"""Opt-in runtime performance metrics (``REPRO_METRICS=1``).

Where :mod:`repro.obs.events` answers *what the protocol did*
(simulated time), this registry answers *where the runtime went*
(wall-clock time and event churn): engine events processed and
cancelled-timer churn, packets serialized/parsed, scheduler decisions,
reassembly operations, congestion-controller state transitions — plus
per-subsystem wall-time attribution, so "profile and flatten the hot
path" starts from numbers instead of guesses.

The hooks are no-ops by default.  Every instrumented call site is
guarded as::

    if _metrics.METRICS:
        _metrics.REGISTRY.inc("engine.events_processed")

so a production run pays one module-attribute load and a falsy branch
per site — the exact wiring discipline of ``repro.util.sanitize``
(``tests/test_obs_metrics.py`` pins it, and ``benchmarks/
bench_engine.py`` measures it).  Enable via the environment (read once
at import)::

    REPRO_METRICS=1 python -m pytest tests/test_handover_repro.py

or programmatically/with a scope in tests::

    from repro.obs import metrics
    with metrics.enabled():
        run_simulation()
    print(json.dumps(metrics.REGISTRY.snapshot(), indent=2))

Wall-time attribution uses *exclusive* scoped timers: entering a scope
pauses its parent, so the per-subsystem seconds sum exactly to the
outermost scope's elapsed wall time.  The simulator opens an
``engine`` scope around its run loop and re-scopes each callback to
the subsystem owning the callback's module; transport entry points
(e.g. ``QuicConnection.datagram_received``) open nested scopes so work
is attributed to the layer doing it, not the layer that scheduled it.

Set ``REPRO_METRICS_FILE=<path>`` to atomically write the registry
snapshot as JSON at interpreter exit (how CI captures the artifact).

Hot-path modules (``netsim.engine``, ``quic.wire``) import this
module, so it must sit at the very bottom of the dependency graph: its
only ``repro`` import is the category constant from
``repro.obs.events`` (itself import-free), so snapshot events carry
``CAT_METRICS`` itself rather than a local copy that could drift.  It
is also the **only**
module in ``src/`` allowed to touch ``time.perf_counter`` — the
``perf-timing`` analyzer rule routes every other timing need through
:data:`clock` / :func:`timed` so no measurement escapes the registry.
"""

from __future__ import annotations

import atexit
import json
import os
import tempfile
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.obs.events import CAT_METRICS

__all__ = [
    "METRICS",
    "REGISTRY",
    "MetricsRegistry",
    "clock",
    "emit_into",
    "enabled",
    "subsystem_of",
    "timed",
    "write_snapshot",
]

#: The sanctioned wall-clock handle.  Harness code (benchmarks, the
#: sweep executor) reads wall time through this name instead of calling
#: ``time.perf_counter`` directly, so the ``perf-timing`` analyzer rule
#: can prove that no timing bypasses the observability layer.
clock: Callable[[], float] = time.perf_counter  # repro: allow[wall-clock,perf-timing] the one sanctioned clock


def _env_enabled() -> bool:
    return os.environ.get("REPRO_METRICS", "").strip().lower() not in (
        "",
        "0",
        "false",
        "no",
        "off",
    )


#: Global switch.  Call sites must read it as ``metrics.METRICS`` (an
#: attribute access, not a from-import) so :func:`enabled` can flip it
#: for everyone at once.
METRICS: bool = _env_enabled()


#: ``module name -> subsystem`` attribution for engine callbacks:
#: ``repro.quic.connection`` -> ``quic``.  Anything outside ``repro``
#: (lambdas defined in tests, functools partials of stdlib functions)
#: lands in ``other``.
_SUBSYSTEM_CACHE: Dict[str, str] = {}


def subsystem_of(module: Optional[str]) -> str:
    """Map a module name to its owning subsystem (cached)."""
    if module is None:
        return "other"
    cached = _SUBSYSTEM_CACHE.get(module)
    if cached is not None:
        return cached
    parts = module.split(".")
    sub = parts[1] if len(parts) >= 2 and parts[0] == "repro" else "other"
    _SUBSYSTEM_CACHE[module] = sub
    return sub


class Histogram:
    """Streaming summary of a value distribution (no sample storage).

    Tracks count / sum / min / max plus power-of-two bucket counts, so
    a million observations cost four scalars and a small dict — cheap
    enough for per-packet sizes and per-callback durations.
    """

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        #: bucket exponent -> count; observation ``v`` lands in bucket
        #: ``v.bit_length()`` for ints (0 for zero/negatives).
        self.buckets: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        bucket = int(value).bit_length() if value > 0 else 0
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    def snapshot(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": (self.total / self.count) if self.count else None,
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
        }


class MetricsRegistry:
    """Process-global store of counters, gauges, histograms and timers.

    One registry instance (:data:`REGISTRY`) serves the whole process;
    :func:`enabled` resets it by default so scoped measurements start
    clean.  All methods are plain dict operations — no locks, because
    the simulator is single-threaded and worker processes each carry
    their own registry.
    """

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}
        #: subsystem -> exclusive wall seconds (scope stack output).
        self.wall: Dict[str, float] = {}
        #: Open scopes as ``[subsystem, slice_start]`` pairs; entering a
        #: nested scope banks the parent's running slice first, so each
        #: subsystem accumulates *exclusive* time.
        self._stack: List[List[Any]] = []

    # -- counters / gauges / histograms ---------------------------------

    def inc(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name`` (created at zero)."""
        counters = self.counters
        counters[name] = counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to its latest ``value``."""
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record one observation into histogram ``name``."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.observe(value)

    # -- scoped wall-time attribution ------------------------------------

    def enter(self, subsystem: str) -> None:
        """Open a scope: pause the parent, start timing ``subsystem``."""
        now = clock()
        stack = self._stack
        if stack:
            top = stack[-1]
            wall = self.wall
            wall[top[0]] = wall.get(top[0], 0.0) + (now - top[1])
            top[1] = now
        stack.append([subsystem, now])

    def exit(self) -> None:
        """Close the innermost scope and resume its parent."""
        now = clock()
        sub, start = self._stack.pop()
        wall = self.wall
        wall[sub] = wall.get(sub, 0.0) + (now - start)
        if self._stack:
            self._stack[-1][1] = now

    # -- export ----------------------------------------------------------

    def reset(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()
        self.wall.clear()
        self._stack.clear()

    def snapshot(self) -> Dict[str, Any]:
        """JSON-serialisable view of everything accumulated so far."""
        wall = dict(self.wall)
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: hist.snapshot()
                for name, hist in sorted(self.histograms.items())
            },
            "wall_time_seconds": wall,
            "wall_time_total_seconds": sum(wall.values()),
        }


#: The process-global registry every instrumented call site feeds.
REGISTRY = MetricsRegistry()


@contextmanager
def enabled(value: bool = True, fresh: bool = True) -> Iterator[MetricsRegistry]:
    """Scoped enable (or disable) of metrics collection, for tests.

    ``fresh`` (default) resets :data:`REGISTRY` on entry so the scope
    measures only its own work; pass ``False`` to accumulate.
    """
    global METRICS
    previous = METRICS
    if fresh:
        REGISTRY.reset()
    METRICS = value
    try:
        yield REGISTRY
    finally:
        METRICS = previous


@contextmanager
def timed(subsystem: str) -> Iterator[None]:
    """Scoped wall-time attribution to ``subsystem`` (no-op when off).

    The coarse-grained companion of the engine's per-callback scopes:
    wrap harness phases (cache probe, result write-back) so their cost
    shows up next to the simulation subsystems.
    """
    if not METRICS:
        yield
        return
    REGISTRY.enter(subsystem)
    try:
        yield
    finally:
        REGISTRY.exit()


def emit_into(tracer: Any, now: float = 0.0, host: str = "runtime") -> int:
    """Merge the registry snapshot into a tracer as ``metrics:*`` events.

    Emits one ``metrics:counter`` / ``metrics:gauge`` /
    ``metrics:histogram`` / ``metrics:wall_time`` event per entry (at
    simulated time ``now``, since wall-clock instants have no meaning
    on the simulated timeline) plus a closing ``metrics:snapshot``
    carrying the totals.  Returns the number of events emitted.
    """
    snap = REGISTRY.snapshot()
    emitted = 0
    # The payload key is ``metric`` (not ``name``): the tracer's event
    # name is already "counter"/"gauge"/"histogram".
    for name, value in sorted(snap["counters"].items()):
        tracer.emit(now, host, CAT_METRICS, "counter", metric=name, value=value)
        emitted += 1
    for name, value in sorted(snap["gauges"].items()):
        tracer.emit(now, host, CAT_METRICS, "gauge", metric=name, value=value)
        emitted += 1
    for name, hist in snap["histograms"].items():
        tracer.emit(now, host, CAT_METRICS, "histogram", metric=name, **hist)
        emitted += 1
    for subsystem, seconds in sorted(snap["wall_time_seconds"].items()):
        tracer.emit(
            now, host, CAT_METRICS, "wall_time",
            subsystem=subsystem, seconds=seconds,
        )
        emitted += 1
    tracer.emit(
        now, host, CAT_METRICS, "snapshot",
        wall_time_total_seconds=snap["wall_time_total_seconds"],
        counters=len(snap["counters"]),
    )
    return emitted + 1


def write_snapshot(path: "os.PathLike[str] | str") -> None:
    """Atomically write the registry snapshot as JSON to ``path``."""
    import pathlib

    target = pathlib.Path(path)
    if str(target.parent) not in ("", "."):
        target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent or None, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(REGISTRY.snapshot(), fh, indent=2)
            fh.write("\n")
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _install_exit_dump() -> Optional[str]:
    """Register the ``REPRO_METRICS_FILE`` exit hook (import-time)."""
    path = os.environ.get("REPRO_METRICS_FILE", "").strip()
    if not path:
        return None
    atexit.register(write_snapshot, path)
    return path


_install_exit_dump()


# -- canonical instrumented metric names -------------------------------------
#
# Kept in one place so dashboards, tests and docs agree on spelling.
# Instrumented call sites use the literals directly (a module-constant
# lookup per event would double the hot-path cost for no benefit);
# ``tests/test_obs_metrics.py`` asserts the live names match this list.

INSTRUMENTED_COUNTERS: Tuple[str, ...] = (
    "engine.events_processed",
    "engine.timers_scheduled",
    "engine.timers_cancelled",
    "engine.heap_compactions",
    "wire.packets_encoded",
    "wire.packets_decoded",
    "quic.packets_sent",
    "quic.packets_received",
    "scheduler.decisions",
    "reassembly.chunks_inserted",
    "reassembly.deliveries",
    "cc.state_transitions",
)
