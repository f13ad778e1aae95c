"""Typed, qlog-style telemetry events and the :class:`Tracer`.

The event taxonomy mirrors the qlog schema the QUIC community settled
on (draft-ietf-quic-qlog-main-schema): every event belongs to a
*category* (``transport``, ``recovery``, ``cc``, ``scheduler``,
``path``, ``flowcontrol``) and carries a free-form ``data`` mapping.
A :class:`Tracer` is the one trace handle of the repo: all four stacks
(TCP, MPTCP, QUIC, MPQUIC), the fault injector, the fluid engine and
the workload harness record through :meth:`Tracer.emit`; the
QUIC/MPQUIC layers additionally feed per-path time series through the
cheap hooks described in ``docs/observability.md``.

Overhead design: every emission site in the transports is guarded by a
single ``is None`` check, so a run without an attached tracer pays one
attribute load per potential event.  A disabled tracer returns after
one boolean check.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

# -- event taxonomy ---------------------------------------------------------

CAT_TRANSPORT = "transport"
CAT_RECOVERY = "recovery"
CAT_CC = "cc"
CAT_SCHEDULER = "scheduler"
CAT_PATH = "path"
CAT_FLOWCONTROL = "flowcontrol"
#: Simulated-network events (fault injection): link up/down, rate and
#: delay changes, loss steps, blackholing.  Emitted with ``host ==
#: "network"`` and ``path_id`` set to the mutated path, so a trace
#: shows the network timeline interleaved with the transport's
#: reaction (see ``netsim/faults.py``).
CAT_NETWORK = "network"
#: Connection-lifetime events: close, idle timeout, handshake deadline,
#: loss of the last viable path.  Emitted with ``path_id == -1`` since
#: they concern the connection as a whole, not one path.
CAT_CONNECTION = "connection"
#: Performance-metrics events merged from :mod:`repro.obs.metrics`
#: (``metrics:counter``, ``metrics:wall_time``, ...).  Emitted with
#: ``path_id == -1``: metrics describe the runtime, not one path.
CAT_METRICS = "metrics"
#: Fluid-approximation engine events (``fluid:flow_started``,
#: ``fluid:share_update``, ``fluid:flow_completed``) from
#: ``netsim/fluid.py``.  Emitted with ``host == "network"`` and
#: ``path_id == -1``: fluid flows are background load, not paths.
CAT_FLUID = "fluid"
#: Open-loop workload harness events (``workload:flow_arrival``,
#: ``workload:flow_started``, ``workload:flow_completed``) from
#: :mod:`repro.experiments.workload`.  Emitted with ``host ==
#: "workload"`` and ``path_id == -1``: they describe the offered load,
#: not any one connection's paths.
CAT_WORKLOAD = "workload"

CATEGORIES = (
    CAT_TRANSPORT,
    CAT_RECOVERY,
    CAT_CC,
    CAT_SCHEDULER,
    CAT_PATH,
    CAT_FLOWCONTROL,
    CAT_NETWORK,
    CAT_CONNECTION,
    CAT_METRICS,
    CAT_FLUID,
    CAT_WORKLOAD,
)

#: Metrics sampled into per-path time series by the QUIC layers.
SERIES_METRICS = (
    "cwnd",
    "ssthresh",
    "srtt",
    "bytes_in_flight",
    "goodput_bytes",
)


@dataclass(frozen=True)
class Event:
    """One structured telemetry event.

    ``path_id`` is ``-1`` for connection-level events (e.g. a
    flow-control block at the connection window).
    """

    time: float
    host: str
    category: str
    name: str
    path_id: int = -1
    data: Mapping[str, Any] = field(default_factory=dict)

    @property
    def type(self) -> str:
        """qlog-style ``category:name`` label."""
        return f"{self.category}:{self.name}"


class Tracer:
    """Structured telemetry collector attached to one simulation.

    * ``emit()`` records typed events with arbitrary payloads;
    * ``sample()`` accumulates per-``(host, path, metric)`` time
      series, optionally throttled by ``sample_interval``;
    * ``sched_decision()`` maintains the scheduler-decision histogram
      alongside a ``scheduler:path_selected`` event stream.
    """

    def __init__(
        self,
        enabled: bool = True,
        sample_interval: float = 0.0,
        capture_scheduler_events: bool = True,
    ) -> None:
        self.enabled = enabled
        self.events: List[Event] = []
        #: (host, path_id, metric) -> [(time, value), ...]
        self.series: Dict[Tuple[str, int, str], List[Tuple[float, float]]] = {}
        #: (host, path_id) -> number of times the scheduler picked it.
        self.scheduler_decisions: Counter = Counter()
        #: Minimum spacing between two samples of the same series key
        #: (0 = record every sample).
        self.sample_interval = sample_interval
        self.capture_scheduler_events = capture_scheduler_events
        self._last_sample_time: Dict[Tuple[str, int, str], float] = {}

    # -- typed API -----------------------------------------------------------

    def emit(
        self,
        time: float,
        host: str,
        category: str,
        name: str,
        path_id: int = -1,
        **data: Any,
    ) -> None:
        """Record one typed event (no-op when disabled)."""
        if not self.enabled:
            return
        self.events.append(Event(time, host, category, name, path_id, data))

    def sample(
        self, time: float, host: str, path_id: int, metric: str, value: float
    ) -> None:
        """Append one time-series point, honouring ``sample_interval``."""
        if not self.enabled:
            return
        key = (host, path_id, metric)
        if self.sample_interval > 0.0:
            last = self._last_sample_time.get(key)
            if last is not None and time - last < self.sample_interval:
                return
            self._last_sample_time[key] = time
        self.series.setdefault(key, []).append((time, value))

    def sched_decision(self, time: float, host: str, path_id: int) -> None:
        """Count (and optionally record) one scheduler path selection."""
        if not self.enabled:
            return
        self.scheduler_decisions[(host, path_id)] += 1
        if self.capture_scheduler_events:
            self.events.append(
                Event(time, host, CAT_SCHEDULER, "path_selected", path_id)
            )

    # -- queries -------------------------------------------------------------

    def events_of(
        self,
        category: Optional[str] = None,
        name: Optional[str] = None,
        host: Optional[str] = None,
        path_id: Optional[int] = None,
        t_min: Optional[float] = None,
        t_max: Optional[float] = None,
    ) -> List[Event]:
        """Typed events matching all provided criteria."""
        out = []
        for ev in self.events:
            if category is not None and ev.category != category:
                continue
            if name is not None and ev.name != name:
                continue
            if host is not None and ev.host != host:
                continue
            if path_id is not None and ev.path_id != path_id:
                continue
            if t_min is not None and ev.time < t_min:
                continue
            if t_max is not None and ev.time > t_max:
                continue
            out.append(ev)
        return out

    def series_of(
        self, host: str, path_id: int, metric: str
    ) -> List[Tuple[float, float]]:
        """One time series (empty list when never sampled)."""
        return self.series.get((host, path_id, metric), [])

    def iter_events(self) -> Iterator[Event]:
        return iter(self.events)
