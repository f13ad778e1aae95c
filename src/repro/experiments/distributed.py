"""The sweep executor's spool protocol: leases, workers, coordinator.

:func:`repro.experiments.parallel.execute_cells` runs ``jobs > 1``
sweeps through this module over a temporary spool with local workers;
pointed at a directory that outlives one call
(:func:`run_distributed_sweep`, or the CLI below) the same protocol
spreads a sweep over *independent* worker processes on any hosts that
mount it.  A **spool directory** is a file-based work protocol with no
sockets, brokers or shared memory; every mutation is an atomic rename,
a temp-file + rename commit or an ``O_APPEND`` write.  See
``docs/distributed.md`` for the layout and the failure matrix.

* **Lease-based claims.**  A cell is claimed by renaming its ``todo/``
  token into ``leases/`` (exactly one winner); a heartbeat renews the
  lease's TTL while the cell runs.  A dead worker's lease expires and
  any peer *reclaims* it — a failed attempt under the retry/quarantine
  policy the in-process loop uses (``parallel.settle_failure``).  A
  coordinator that sees one of its *own* workers exit reclaims that
  child's leases at once instead of waiting out the TTL.
* **Idempotent, checksummed commits** through the content-addressed
  :class:`~repro.experiments.parallel.ResultCache`.  Cells are
  deterministic, so a duplicate execution rewrites identical bytes:
  lease exclusivity is an efficiency mechanism, correctness rests on
  the commit protocol.
* **Stateless coordinator.**  All state lives in the spool; a restarted
  coordinator recovers commits from the cache, reclaims expired leases
  and re-queues lost cells.  ``collect="aggregate"`` folds commits into
  :class:`SweepAggregate` sketches instead of a result matrix.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.metrics import QuantileSketch, StreamingJain
from repro.experiments.parallel import (
    DEFAULT_RETRIES,
    RESULTS_FORMAT_VERSION,
    CellResult,
    ResultCache,
    SweepCell,
    SweepStats,
    atomic_write,
    backoff_delay,
    cell_record,
    clip_error,
    emit,
    run_cell,
    settle_failure,
    sweep_end_record,
    sweep_start_record,
)
from repro.experiments.runner import BulkRunResult
from repro.experiments.workload import WorkloadRunResult
from repro.obs import metrics as _metrics

#: Default lease time-to-live, seconds.  Heartbeats renew at a third
#: of this, so a healthy worker never lets a lease lapse; a SIGKILLed
#: one is reclaimable after at most one TTL.
DEFAULT_LEASE_TTL = 15.0

#: Idle poll interval for workers waiting on claimable cells and for
#: the coordinator's progress scan, seconds.
POLL_INTERVAL = 0.1

#: Known cell runners: ``simulation`` executes the real
#: :func:`repro.experiments.parallel.run_cell`; ``synthetic`` derives
#: a deterministic result from the cell key without simulating —
#: the harness-drill mode that lets 10k-cell protocol tests run in
#: seconds.
RUNNERS = ("simulation", "synthetic")


class SpoolError(RuntimeError):
    """The spool directory is missing, inconsistent or foreign."""


# ----------------------------------------------------------------------
# Spool layout
# ----------------------------------------------------------------------

@dataclass
class Spool:
    """Handle on one spool directory and its parsed manifest."""

    root: Path
    keys: Tuple[str, ...]
    runner: str
    ttl: float
    max_attempts: int

    def __post_init__(self) -> None:
        self.cells_dir = self.root / "cells"
        self.todo_dir = self.root / "todo"
        self.leases_dir = self.root / "leases"
        self.failures_dir = self.root / "failures"
        self.quarantine_dir = self.root / "quarantine"
        self.telemetry_path = self.root / "telemetry.jsonl"

    def cache(self) -> ResultCache:
        return ResultCache(self.root / "cache")

    @staticmethod
    def open(root: "os.PathLike[str]") -> "Spool":
        path = Path(root)
        manifest_path = path / "manifest.json"
        try:
            with open(manifest_path) as fh:
                manifest = json.load(fh)
        except OSError as exc:
            raise SpoolError(f"no spool manifest at {manifest_path}") from exc
        except json.JSONDecodeError as exc:
            raise SpoolError(f"corrupt spool manifest {manifest_path}") from exc
        if manifest.get("format") != RESULTS_FORMAT_VERSION:
            raise SpoolError(
                f"spool {path} has format {manifest.get('format')!r}, "
                f"this build expects {RESULTS_FORMAT_VERSION}"
            )
        try:
            return Spool(
                root=path,
                keys=tuple(manifest["keys"]),
                runner=manifest["runner"],
                ttl=float(manifest["ttl"]),
                max_attempts=int(manifest["max_attempts"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SpoolError(f"corrupt spool manifest {manifest_path}") from exc

    def load_cell(self, key: str) -> SweepCell:
        with open(self.cells_dir / f"{key}.pkl", "rb") as fh:
            cell = pickle.load(fh)
        if not isinstance(cell, SweepCell) or cell.cache_key() != key:
            raise SpoolError(f"spooled cell {key[:12]}... fails verification")
        return cell


def _write_json(path: Path, payload: Dict[str, Any]) -> None:
    atomic_write(path, json.dumps(payload, sort_keys=True).encode())


def _listdir(path: Path) -> List[str]:
    try:
        return os.listdir(path)
    except OSError:
        return []


def _unlink(path: Path) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def init_spool(
    root: "os.PathLike[str]",
    cells: Sequence[SweepCell],
    runner: str = "simulation",
    ttl: float = DEFAULT_LEASE_TTL,
    max_attempts: int = DEFAULT_RETRIES + 1,
) -> Spool:
    """Create (or idempotently re-open) a spool for ``cells``.

    Safe to call again with the same plan — a restarted coordinator
    does exactly that.  A spool holding a *different* plan is refused.
    """
    if runner not in RUNNERS:
        raise ValueError(f"unknown runner {runner!r} (expected {RUNNERS})")
    path = Path(root)
    keys = [cell.cache_key() for cell in cells]
    manifest_path = path / "manifest.json"
    if manifest_path.exists():
        spool = Spool.open(path)
        if tuple(keys) != spool.keys:
            raise SpoolError(
                f"spool {path} already holds a different sweep plan "
                f"({len(spool.keys)} cells vs {len(keys)} requested)"
            )
        return spool
    for sub in ("cells", "todo", "leases", "failures", "quarantine", "cache"):
        (path / sub).mkdir(parents=True, exist_ok=True)
    for key, cell in dict(zip(keys, cells)).items():
        atomic_write(
            path / "cells" / f"{key}.pkl",
            pickle.dumps(cell, protocol=pickle.HIGHEST_PROTOCOL),
        )
    _write_json(
        manifest_path,
        {"format": RESULTS_FORMAT_VERSION, "keys": keys, "runner": runner,
         "ttl": ttl, "max_attempts": max_attempts},
    )
    spool = Spool.open(path)
    ensure_tokens(spool)
    return spool


# ----------------------------------------------------------------------
# Lease protocol primitives (all take `now` explicitly: the property
# suite drives the state machine on a synthetic clock)
# ----------------------------------------------------------------------

def _lease_path(spool: Spool, key: str, worker_id: str) -> Path:
    return spool.leases_dir / f"{key}.{worker_id}.lease"


def _lease_files(spool: Spool) -> List[Path]:
    return [
        spool.leases_dir / name
        for name in sorted(_listdir(spool.leases_dir))
        if name.endswith(".lease")
    ]


def _lease_key(path: Path) -> str:
    return path.name.split(".", 1)[0]


def _stamp_lease(spool: Spool, lease: Path, worker_id: str, now: float) -> bool:
    """Write owner and deadline into an existing lease; False when it is gone.

    Written in place, never created: a lease that a peer reclaimed stays
    reclaimed, and a reader catching the write half-done falls back to
    :func:`read_lease`'s ``mtime + ttl`` grace — the deadline being
    written.
    """
    stamp = {"owner": worker_id, "deadline": now + spool.ttl, "claimed_at": now}
    try:
        fd = os.open(lease, os.O_WRONLY | os.O_TRUNC)
    except OSError:
        return False
    try:
        os.write(fd, json.dumps(stamp, sort_keys=True).encode())
    finally:
        os.close(fd)
    return True


def read_lease(path: Path, now: float, ttl: float) -> Tuple[str, float]:
    """``(owner, deadline)`` of a lease file.

    A freshly-claimed lease briefly holds the renamed todo token's
    content (no owner yet); it is granted a grace deadline from the
    file's mtime so a claim in progress is never mistaken for an
    expired lease, while a claimer that died between rename and write
    still expires one TTL later.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
        return data["owner"], float(data["deadline"])
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError):
        pass
    try:
        mtime = os.stat(path).st_mtime
    except OSError:
        return "?", now  # vanished mid-read: treat as just expired
    return "?", mtime + ttl


def claim_cell(spool: Spool, key: str, worker_id: str, now: float) -> bool:
    """Try to claim ``key``'s todo token; True when this worker won.

    The claim is one atomic rename of ``todo/<key>`` into the lease
    path — exactly one contender can win — stamped afterwards.
    """
    lease = _lease_path(spool, key, worker_id)
    try:
        os.rename(spool.todo_dir / key, lease)
    except OSError:
        return False
    return _stamp_lease(spool, lease, worker_id, now)


def renew_lease(spool: Spool, key: str, worker_id: str, now: float) -> bool:
    """Extend this worker's lease; False when the lease was lost
    (reclaimed by a peer that judged this worker dead)."""
    return _stamp_lease(spool, _lease_path(spool, key, worker_id), worker_id, now)


def release_lease(spool: Spool, key: str, worker_id: str) -> None:
    """Drop this worker's lease after a terminal outcome."""
    _unlink(_lease_path(spool, key, worker_id))


def release_to_todo(spool: Spool, key: str, worker_id: str) -> None:
    """Re-queue a claimed cell after a failed attempt (atomic rename)."""
    try:
        os.rename(_lease_path(spool, key, worker_id), spool.todo_dir / key)
    except OSError:
        pass


def _failure_files(spool: Spool, key: str) -> List[str]:
    return sorted(
        name for name in _listdir(spool.failures_dir)
        if name.startswith(f"{key}.") and name.endswith(".json")
    )


def failure_count(spool: Spool, key: str) -> int:
    """Recorded failed attempts for ``key`` (exceptions + dead leases)."""
    return len(_failure_files(spool, key))


def record_failure(spool: Spool, key: str, error: str, worker_id: str) -> int:
    """Append one failed-attempt record; returns its attempt number."""
    attempt = failure_count(spool, key) + 1
    _write_json(
        spool.failures_dir / f"{key}.{attempt}.{worker_id}.json",
        {"error": clip_error(error), "worker": worker_id, "attempt": attempt},
    )
    return attempt


def failure_errors(spool: Spool, key: str) -> List[str]:
    """The recorded error strings for ``key``, in attempt order."""
    errors = []
    for name in _failure_files(spool, key):
        try:
            with open(spool.failures_dir / name) as fh:
                errors.append(str(json.load(fh).get("error", "?")))
        except (OSError, json.JSONDecodeError):
            errors.append("?")
    return errors


def fail_attempt(spool: Spool, key: str, error: str, worker_id: str) -> bool:
    """Record a failed attempt of ``key``; True when that quarantined it.

    Applies :func:`~repro.experiments.parallel.settle_failure` — the
    in-process loop's policy — to the failure history on disk; a
    quarantined cell gets its skip-list entry and loses its token.
    """
    record_failure(spool, key, error, worker_id)
    try:
        cell: Optional[SweepCell] = spool.load_cell(key)
    except Exception:
        # A corrupt pickle can surface as almost anything (ValueError,
        # EOFError, AttributeError, ...) — the entry must be written
        # regardless; cell metadata is best-effort decoration.
        cell = None
    entry = settle_failure(
        spool.telemetry_path, key, cell, failure_errors(spool, key),
        spool.max_attempts,
    )
    if entry is None:
        return False
    _write_json(spool.quarantine_dir / f"{key}.json", entry)
    _unlink(spool.todo_dir / key)
    return True


def is_quarantined(spool: Spool, key: str) -> bool:
    return (spool.quarantine_dir / f"{key}.json").exists()


def quarantine_entries(spool: Spool) -> List[Dict[str, Any]]:
    """Every terminal skip-list entry, in key order."""
    entries = []
    for name in sorted(_listdir(spool.quarantine_dir)):
        if not name.endswith(".json"):
            continue
        try:
            with open(spool.quarantine_dir / name) as fh:
                entries.append(json.load(fh))
        except (OSError, json.JSONDecodeError):
            entries.append({"cache_key": name[: -len(".json")],
                            "attempts": 0, "errors": ["unreadable entry"]})
    return entries


def _reclaim(spool: Spool, lease: Path, owner: str, why: str, by: str) -> bool:
    """Take ``lease`` back from ``owner``; False when a peer got there first.

    One atomic rename back into ``todo/`` — exactly one contender wins
    — after which the winner records the lost attempt as a failure (a
    SIGKILLed worker never got to).
    """
    key = _lease_key(lease)
    if _committed(spool, key):
        # Died between commit and release: nothing was lost.
        _unlink(lease)
        return False
    try:
        os.rename(lease, spool.todo_dir / key)
    except OSError:
        return False
    emit(
        spool.telemetry_path,
        {"record": "lease_reclaimed", "cache_key": key,
         "previous_owner": owner, "by": by},
    )
    fail_attempt(spool, key, f"{why} (owner={owner} presumed dead)", by)
    return True


def reclaim_expired(spool: Spool, now: float, worker_id: str) -> int:
    """Reclaim every expired lease; returns how many were reclaimed."""
    reclaimed = 0
    for lease in _lease_files(spool):
        owner, deadline = read_lease(lease, now, spool.ttl)
        if deadline < now and owner != worker_id:
            reclaimed += _reclaim(spool, lease, owner, "lease expired", worker_id)
    return reclaimed


def _committed(spool: Spool, key: str) -> bool:
    return os.path.exists(
        os.path.join(spool.root, "cache", key[:2], f"{key}.json")
    )


def terminal_keys(spool: Spool) -> Tuple[set, set]:
    """``(committed, quarantined)`` key sets, by direct directory scan."""
    committed = {key for key in spool.keys if _committed(spool, key)}
    quarantined = {
        name[: -len(".json")] for name in _listdir(spool.quarantine_dir)
        if name.endswith(".json")
    }
    return committed, quarantined


def ensure_tokens(spool: Spool) -> int:
    """Re-queue every cell that is neither terminal, queued nor leased.

    The self-healing pass that makes the coordinator stateless: after
    any crash (or a corrupt cache entry set aside) it restores the
    invariant that every unfinished cell is claimable or leased.
    Returns how many tokens were (re)created.
    """
    return _requeue_lost(spool, spool.keys)


def _requeue_lost(spool: Spool, keys: Sequence[str]) -> int:
    """:func:`ensure_tokens` over ``keys`` (the coordinator passes only
    the cells it still waits for, so a poll never rescans finished ones)."""
    accounted = set(_listdir(spool.todo_dir))
    accounted.update(_lease_key(p) for p in _lease_files(spool))
    created = 0
    for key in keys:
        if key in accounted or _committed(spool, key) or is_quarantined(spool, key):
            continue
        (spool.todo_dir / key).touch()
        created += 1
    return created


# ----------------------------------------------------------------------
# Worker
# ----------------------------------------------------------------------

def _start_heartbeat(spool: Spool, key: str, worker_id: str) -> Callable[[], None]:
    """Renew one lease at TTL/3 cadence while its cell executes; call
    the returned function to stop.

    A SIGKILL kills the daemon thread with the process — exactly the
    signal the protocol needs: the lease stops renewing and expires.  A
    renewal that finds the lease gone (a peer judged this worker dead)
    is not an error: the cell finishes and commits anyway.
    """
    halt = threading.Event()

    def beat() -> None:
        while not halt.wait(max(spool.ttl / 3.0, 0.02)):
            renew_lease(spool, key, worker_id, time.time())

    thread = threading.Thread(target=beat, daemon=True, name=f"lease-{key[:8]}")
    thread.start()

    def stop() -> None:
        halt.set()
        thread.join(timeout=5.0)

    return stop


def synthetic_result(cell: SweepCell) -> BulkRunResult:
    """Deterministic no-simulation result for harness drills, derived
    purely from the cell's cache key so re-execution anywhere reproduces
    it bit-identically."""
    word = int.from_bytes(
        hashlib.sha256(cell.cache_key().encode()).digest()[:8], "big"
    )
    transfer_time = 0.5 + (word % 10_000) / 10_000.0
    return BulkRunResult(
        protocol=cell.protocol,
        initial_interface=cell.initial_interface,
        file_size=cell.file_size,
        transfer_time=transfer_time,
        goodput_bps=cell.file_size * 8.0 / transfer_time,
        completed=True,
        repetitions=cell.repetitions,
        details={"sim_events": float(word % 1000), "synthetic": 1.0},
        rep_times=[transfer_time],
        rep_completed=[True],
    )


def worker_loop(
    spool_root: "os.PathLike[str]",
    worker_id: Optional[str] = None,
    max_cells: Optional[int] = None,
    max_seconds: Optional[float] = None,
) -> SweepStats:
    """Claim, execute and commit cells until the spool drains.

    Independent of any coordinator and of its peers.  Exits when every
    manifest cell is terminal, or when the optional ``max_cells`` /
    ``max_seconds`` budgets run out.
    """
    spool = Spool.open(spool_root)
    me = worker_id if worker_id is not None else f"w{os.getpid()}"
    stats = SweepStats(cells=len(spool.keys))
    cache = spool.cache()
    deadline = time.time() + max_seconds if max_seconds is not None else None
    emit(
        spool.telemetry_path,
        {"record": "worker_start", "worker": me, "pid": os.getpid()},
    )
    # Worker-local claim backlog: one sorted todo/ scan serves many
    # claims, so draining N cells costs O(N) directory reads instead
    # of O(N^2).  Staleness is harmless — a vanished token just fails
    # its claim rename and the backlog refills on exhaustion.
    backlog: List[str] = []
    next_reap = 0.0
    while True:
        if max_cells is not None and (
            stats.executed + stats.cache_hits + stats.quarantined
        ) >= max_cells:
            break
        now = time.time()
        if deadline is not None and now >= deadline:
            break
        if now >= next_reap:
            # No lease can lapse faster than its TTL, so reaping at
            # heartbeat cadence finds every dead peer just as surely as
            # scanning before each claim.
            stats.reclaimed += reclaim_expired(spool, now, me)
            next_reap = now + spool.ttl / 3.0
        key = _claim_next(spool, me, now, backlog)
        if key is not None:
            _work_one(spool, cache, key, me, stats)
        elif not _spool_drained(spool):
            time.sleep(POLL_INTERVAL)
        elif ensure_tokens(spool) == 0 and _spool_drained(spool):
            break
    emit(
        spool.telemetry_path,
        {"record": "worker_end", "worker": me, **stats.counters()},
    )
    return stats


def _spool_drained(spool: Spool) -> bool:
    """No queued tokens and no live leases — the sweep looks finished."""
    return not _listdir(spool.todo_dir) and not _lease_files(spool)


def _claim_next(
    spool: Spool, worker_id: str, now: float, backlog: List[str]
) -> Optional[str]:
    """Claim the next claimable todo token, if any."""
    if not backlog:
        # reverse-sorted: pop() yields key order
        backlog.extend(sorted(_listdir(spool.todo_dir), reverse=True))
    while backlog:
        key = backlog.pop()
        if is_quarantined(spool, key):
            _unlink(spool.todo_dir / key)
        elif claim_cell(spool, key, worker_id, now):
            return key
    return None


def _work_one(
    spool: Spool, cache: ResultCache, key: str, worker_id: str, stats: SweepStats
) -> None:
    """Execute one claimed cell through its terminal outcome."""
    # Already committed (resume re-queued it unnecessarily, or a racing
    # duplicate finished first): drop the lease and move on.
    if cache.get_key(key) is not None:
        release_lease(spool, key, worker_id)
        stats.cache_hits += 1
        return
    stop_heartbeat = _start_heartbeat(spool, key, worker_id)
    t0 = _metrics.clock()
    try:
        # Loading is inside the failure envelope: a corrupt/truncated
        # cell pickle is a failed attempt that ends in quarantine, not
        # a crashed worker.
        cell = spool.load_cell(key)
        result = (
            synthetic_result(cell) if spool.runner == "synthetic"
            else run_cell(cell)
        )
    except Exception as exc:
        stop_heartbeat()
        if fail_attempt(spool, key, repr(exc), worker_id):
            release_lease(spool, key, worker_id)
            stats.quarantined += 1
        else:
            release_to_todo(spool, key, worker_id)
            stats.retries += 1
            time.sleep(backoff_delay(failure_count(spool, key)))
        return
    wall = _metrics.clock() - t0
    stop_heartbeat()
    # Two-phase checksummed commit: temp file + digest + rename into
    # the content-addressed cache.  Idempotent — a racing duplicate, or
    # this worker if a peer reclaimed its lease meanwhile, writes the
    # same bytes under the same key.
    cache.put(cell, result)
    release_lease(spool, key, worker_id)
    emit(
        spool.telemetry_path,
        cell_record(
            key, cell, "executed", wall, os.getpid(),
            failure_count(spool, key) + 1, stats.count_executed(result),
        ),
    )


# ----------------------------------------------------------------------
# Streaming aggregation
# ----------------------------------------------------------------------

@dataclass
class _GroupAggregate:
    """Streaming summary of one group of cells (bounded memory)."""

    cells: int = 0
    completed: int = 0
    transfer_time: QuantileSketch = field(default_factory=QuantileSketch)
    goodput: QuantileSketch = field(default_factory=QuantileSketch)
    jain_goodput: StreamingJain = field(default_factory=StreamingJain)

    def add(self, transfer_time: float, goodput: float, completed: bool) -> None:
        self.cells += 1
        self.completed += completed
        self.transfer_time.insert(transfer_time)
        self.goodput.insert(goodput)
        self.jain_goodput.add(goodput)

    def summary(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "cells": self.cells,
            "completed": self.completed,
            "jain_goodput": self.jain_goodput.value(),
        }
        if self.cells:
            for name, sketch in (
                ("transfer_time", self.transfer_time), ("goodput_bps", self.goodput)
            ):
                out[name] = {"p50": sketch.p50(), "p99": sketch.p99()}
        return out


class SweepAggregate:
    """Streaming fold of committed cell results — never the matrix.

    Each committed cell contributes one ``(transfer_time, goodput)``
    observation (workload cells: mean FCT and aggregate goodput) to a
    global and a per-protocol Greenwald-Khanna sketch plus a streaming
    Jain accumulator, so memory is O(sketch size) whatever the sweep's.
    """

    def __init__(self) -> None:
        self.quarantined = 0
        self.total = _GroupAggregate()
        self.groups: Dict[str, _GroupAggregate] = {}

    @property
    def cells(self) -> int:
        return self.total.cells

    @property
    def completed(self) -> int:
        return self.total.completed

    def fold(self, protocol: str, result: CellResult) -> None:
        if isinstance(result, WorkloadRunResult):
            transfer_time = result.mean_fct
            goodput = (
                result.total_bytes * 8.0 / result.duration
                if result.duration > 0.0 else 0.0
            )
        else:
            transfer_time, goodput = result.transfer_time, result.goodput_bps
        group = self.groups.setdefault(protocol, _GroupAggregate())
        for agg in (self.total, group):
            agg.add(transfer_time, goodput, result.completed)

    def sketch_entries(self) -> int:
        """Total stored summary entries across every sketch."""
        return sum(
            len(agg.transfer_time) + len(agg.goodput)
            for agg in (self.total, *self.groups.values())
        )

    def summary(self) -> Dict[str, Any]:
        return {
            "cells": self.cells,
            "completed": self.completed,
            "quarantined": self.quarantined,
            "sketch_entries": self.sketch_entries(),
            "total": self.total.summary(),
            "protocols": {
                name: group.summary()
                for name, group in sorted(self.groups.items())
            },
        }

    def cdf(
        self, protocol: Optional[str] = None, points: int = 50
    ) -> List[Tuple[float, float]]:
        """Transfer-time CDF points straight from the sketch."""
        agg = self.total if protocol is None else self.groups[protocol]
        return agg.transfer_time.cdf_points(points)


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------

@dataclass
class DistributedResult:
    """What :func:`coordinate` hands back."""

    #: Coordinator accounting; ``stats.quarantine`` is the skip-list.
    stats: SweepStats
    #: Plan-ordered results (``collect="results"``), None per
    #: quarantined cell; empty in aggregate mode.
    results: List[Optional[CellResult]] = field(default_factory=list)
    #: Streaming aggregate (``collect="aggregate"``), else None.
    aggregate: Optional[SweepAggregate] = None


def _repro_env() -> Dict[str, str]:
    """Environment for worker subprocesses: inherit + make repro importable."""
    import repro

    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, env.get("PYTHONPATH")) if p
    )
    return env


def spawn_worker(spool: Spool, worker_id: str) -> "subprocess.Popen[bytes]":
    """Launch one independent worker process over the spool."""
    cmd = [
        sys.executable, "-m", "repro.experiments.distributed",
        "worker", str(spool.root), "--worker-id", worker_id,
    ]
    return subprocess.Popen(
        cmd, env=_repro_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def coordinate(
    spool_root: "os.PathLike[str]",
    cells: Optional[Sequence[SweepCell]] = None,
    workers: int = 0,
    collect: str = "results",
    on_result: Optional[Callable[[str, CellResult], None]] = None,
    runner: str = "simulation",
    ttl: float = DEFAULT_LEASE_TTL,
    max_attempts: int = DEFAULT_RETRIES + 1,
    max_seconds: Optional[float] = None,
) -> DistributedResult:
    """Drive a spool to completion, streaming results as they commit.

    Stateless and crash-resumable: every decision re-derives from the
    spool, so calling :func:`coordinate` again on the directory of a
    killed coordinator recovers committed cells from the cache,
    reclaims expired leases, re-queues lost cells, and continues.

    ``collect="results"`` assembles the plan-ordered result list;
    ``collect="aggregate"`` folds every committed cell into a
    :class:`SweepAggregate` and never materialises the matrix.
    ``on_result`` fires once per distinct cell either way, as commits
    are observed.

    ``workers`` > 0 spawns that many worker subprocesses; 0 coordinates
    workers started elsewhere.  A spawned worker that exits while cells
    remain has its leases reclaimed at once (its exit is observed, so
    there is no TTL to wait out) and is replaced.  When subprocesses
    cannot be spawned at all, the coordinator drains the spool
    in-process, with a warning.
    """
    if collect not in ("results", "aggregate"):
        raise ValueError("collect must be 'results' or 'aggregate'")
    if cells is not None:
        spool = init_spool(
            spool_root, cells, runner=runner, ttl=ttl,
            max_attempts=max_attempts,
        )
    else:
        spool = Spool.open(spool_root)
    stats = SweepStats(cells=len(spool.keys), jobs=max(1, workers))
    cache = spool.cache()
    aggregate = SweepAggregate() if collect == "aggregate" else None
    results_by_key: Dict[str, CellResult] = {}
    started = _metrics.clock()
    emit(spool.telemetry_path, sweep_start_record(len(spool.keys), workers))

    children: Dict[str, "subprocess.Popen[bytes]"] = {}
    inline = False
    try:
        for i in range(workers):
            children[f"w{i}"] = spawn_worker(spool, f"w{i}")
    except OSError as exc:
        for proc in children.values():
            proc.terminate()
        children = {}
        inline = True
        warnings.warn(
            f"cannot spawn worker processes ({exc!r}); coordinator "
            "will drain the spool in-process",
            RuntimeWarning,
            stacklevel=2,
        )
    stats.workers_spawned = len(children)

    #: Cells not yet observed terminal, in plan order.
    pending = dict.fromkeys(spool.keys)
    deadline = time.time() + max_seconds if max_seconds is not None else None

    def _observe_progress() -> None:
        quarantined = set(_listdir(spool.quarantine_dir))
        for key in list(pending):
            if f"{key}.json" in quarantined:
                del pending[key]
                stats.quarantined += 1
                continue
            result = cache.get_key(key) if _committed(spool, key) else None
            if result is None:
                # Not committed yet — or torn/corrupt: set aside by the
                # cache, re-queued by the self-healing pass below.
                continue
            del pending[key]
            stats.committed += 1
            if aggregate is not None:
                aggregate.fold(getattr(result, "protocol", "?"), result)
            else:
                results_by_key[key] = result
            if on_result is not None:
                on_result(key, result)

    try:
        while True:
            # Exits are sampled *before* the scan: a worker that left
            # because the spool drained has committed everything the
            # scan is about to see, so it is never needlessly replaced.
            exited = [n for n, proc in children.items() if proc.poll() is not None]
            _observe_progress()
            stats.corrupt_entries = cache.corrupt
            if not pending:
                stats.complete = True
                break
            now = time.time()
            if deadline is not None and now >= deadline:
                break
            stats.reclaimed += reclaim_expired(spool, now, "coordinator")
            for name in exited:
                status = children.pop(name).returncode
                for lease in _lease_files(spool):
                    if lease.name.endswith(f".{name}.lease"):
                        stats.reclaimed += _reclaim(
                            spool, lease, name,
                            f"worker exited with status {status}",
                            "coordinator",
                        )
                fresh = f"w{stats.workers_spawned}"
                children[fresh] = spawn_worker(spool, fresh)
                stats.workers_spawned += 1
            stats.requeued += _requeue_lost(spool, list(pending))
            if inline:
                stats.reclaimed += worker_loop(
                    spool.root, "coordinator-inline", max_seconds=max_seconds,
                ).reclaimed
            else:
                time.sleep(POLL_INTERVAL)
    finally:
        for proc in children.values():
            # A drained spool sends its workers home; otherwise stop them.
            if not stats.complete:
                proc.terminate()
            try:
                proc.wait(timeout=max(5.0, 2.0 * spool.ttl))
            except subprocess.TimeoutExpired:
                proc.kill()
        stats.quarantine = quarantine_entries(spool)
        # Every recorded failure was re-queued, except each quarantined
        # cell's last one.
        failures = sum(
            name.endswith(".json") for name in _listdir(spool.failures_dir)
        )
        stats.retries = max(0, failures - len(stats.quarantine))
        emit(spool.telemetry_path, sweep_end_record(stats, started))

    results: List[Optional[CellResult]] = []
    if collect == "results":
        results = [results_by_key.get(key) for key in spool.keys]
    return DistributedResult(stats=stats, results=results, aggregate=aggregate)


def run_distributed_sweep(
    cells: Sequence[SweepCell],
    spool_root: Optional["os.PathLike[str]"] = None,
    workers: int = 2,
    collect: str = "results",
    runner: str = "simulation",
) -> DistributedResult:
    """One-call convenience: spool ``cells``, run workers, coordinate.

    With ``spool_root=None`` a temporary spool is used and cleaned up;
    pass a real path to keep the spool inspectable/resumable.
    """
    if spool_root is not None:
        return coordinate(
            spool_root, cells, workers=workers, collect=collect, runner=runner,
        )
    with tempfile.TemporaryDirectory(prefix="repro-spool-") as tmp:
        return coordinate(
            Path(tmp), cells, workers=workers, collect=collect, runner=runner,
        )


# ----------------------------------------------------------------------
# CLI — the multi-host entry points
# ----------------------------------------------------------------------

def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.distributed",
        description="Sweep executor workers and coordinator over a shared "
                    "spool directory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    worker = sub.add_parser("worker", help="run one worker over a spool")
    worker.add_argument("--worker-id", default=None)
    worker.add_argument("--max-cells", type=int, default=None)
    coord = sub.add_parser("coordinate", help="coordinate a spool to completion")
    coord.add_argument("--workers", type=int, default=0)
    coord.add_argument(
        "--collect", choices=("results", "aggregate"), default="aggregate"
    )
    coord.add_argument("--output", default=None)
    status = sub.add_parser("status", help="print spool progress")
    for command in (worker, coord, status):
        command.add_argument("spool")
    for command in (worker, coord):
        command.add_argument("--max-seconds", type=float, default=None)
    args = parser.parse_args(argv)

    if args.command == "worker":
        stats = worker_loop(
            args.spool, args.worker_id, args.max_cells, args.max_seconds
        )
        print(
            f"worker: committed={stats.executed} retries={stats.retries} "
            f"quarantined={stats.quarantined} reclaimed={stats.reclaimed}"
        )
        return 0
    if args.command == "status":
        spool = Spool.open(args.spool)
        committed, quarantined = terminal_keys(spool)
        print(
            f"spool {spool.root}: cells={len(spool.keys)} "
            f"committed={len(committed)} quarantined={len(quarantined)} "
            f"queued={len(_listdir(spool.todo_dir))} "
            f"leased={len(_lease_files(spool))} runner={spool.runner} "
            f"ttl={spool.ttl:g}s"
        )
        return 0
    result = coordinate(
        args.spool, workers=args.workers, collect=args.collect,
        max_seconds=args.max_seconds,
    )
    stats = result.stats
    print(
        f"coordinator: cells={stats.cells} committed={stats.committed} "
        f"quarantined={stats.quarantined} reclaimed={stats.reclaimed} "
        f"complete={stats.complete}"
    )
    if args.output:
        payload: Dict[str, Any] = {
            "stats": stats.counters(), "quarantine": stats.quarantine,
        }
        if result.aggregate is not None:
            payload["aggregate"] = result.aggregate.summary()
        _write_json(Path(args.output), payload)
    return 0 if stats.complete else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
