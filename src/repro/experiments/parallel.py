"""The sweep executor's front: cells, result cache and ``execute_cells``.

The paper's evaluation is embarrassingly parallel: each class sweep is
a grid of independent, deterministic simulations — one cell per
``(scenario, protocol, initial_interface)``, carrying its own seed.
This module decomposes a sweep into :class:`SweepCell` work units,
memoises finished cells in a content-addressed on-disk cache, and runs
the missing ones through the repo's one executor:
:func:`execute_cells` loops in-process for ``jobs == 1`` and otherwise
hands the cells to the spool protocol of
:mod:`repro.experiments.distributed` — ``jobs`` local worker processes
over a temporary spool directory.

* **Bit-identical results.**  Every path makes the very same
  :func:`repro.experiments.runner.run_bulk` call the serial loop makes;
  only the order of execution changes, and results are re-assembled in
  cell order.
* **Content-addressed caching.**  The key hashes everything that
  determines a run's outcome (paths, file size, protocol, interface,
  repetitions, seed, endpoint configs, fault timeline, workload) plus
  :data:`RESULTS_FORMAT_VERSION`.
* **Crash isolation and resume.**  A raising cell, or a worker dying
  mid-cell, is a failed attempt of that cell alone, retried with
  bounded backoff and quarantined into a reported skip-list when it
  keeps failing; every finished cell is persisted *immediately*, so an
  interrupted sweep resumes from disk.

docs/performance.md lists the ``REPRO_*`` environment knobs (§1) and
the telemetry schema (§7); :func:`_chaos_crash_requested` describes
the CI drill hooks.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
import time
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, TextIO, Tuple, Union

from repro.expdesign.parameters import Scenario
from repro.obs import metrics as _metrics
from repro.experiments.runner import (
    DEFAULT_SIM_TIMEOUT,
    BulkRunResult,
    run_bulk,
)
from repro.experiments.workload import (
    WorkloadRunResult,
    WorkloadSpec,
    run_workload,
)
from repro.netsim.faults import FaultTimeline
from repro.netsim.topology import PathConfig
from repro.quic.config import QuicConfig
from repro.tcp.config import TcpConfig

#: A cell's result: closed-loop bulk transfer or open-loop workload.
CellResult = Any

#: A filesystem path argument.
PathArg = Union[str, "os.PathLike[str]"]

#: Bump when the cached result schema or the simulation semantics
#: change, invalidating every previously stored result.
#: v2: fault timelines became part of a cell's identity.
#: v3: path-liveness probing and lifetime limits entered QuicConfig and
#:     the transport's failure reaction (reinjection) changed semantics.
#: v4: open-loop workload cells (a ``workload`` axis on SweepCell,
#:     kind-tagged result records).
RESULTS_FORMAT_VERSION = 4

#: Default retry attempts for a crashed or raising cell (on top of the
#: first attempt); override per call or via ``REPRO_RETRIES``.
DEFAULT_RETRIES = 2
#: Bounded backoff between retry rounds, seconds (wall clock — this is
#: harness code, not simulation).
RETRY_BACKOFF_BASE = 0.25
RETRY_BACKOFF_MAX = 2.0

#: Bounds on stored quarantine evidence: error/traceback strings are
#: clipped and only the most recent attempts are kept, so a cell that
#: fails hundreds of times cannot bloat the skip-list or its report.
MAX_QUARANTINE_ERROR_CHARS = 1000
MAX_QUARANTINE_ERRORS = 5


def backoff_delay(attempt: int) -> float:
    """Bounded-exponential delay before retrying after failed attempt
    ``attempt`` (>= 1) — the in-process loop and the spool workers back
    off identically."""
    return min(RETRY_BACKOFF_BASE * 2 ** (attempt - 1), RETRY_BACKOFF_MAX)


def clip_error(error: str) -> str:
    """Clip an error/traceback string to the stored evidence bound."""
    if len(error) <= MAX_QUARANTINE_ERROR_CHARS:
        return error
    return (
        error[:MAX_QUARANTINE_ERROR_CHARS]
        + f"... [clipped {len(error) - MAX_QUARANTINE_ERROR_CHARS} chars]"
    )


def atomic_write(path: Path, data: bytes) -> None:
    """Commit ``data`` to ``path`` through a temp file + rename — the
    sweep harness's one two-phase write (cache entries, spooled cells,
    failure and quarantine records, reports): concurrent writers or a
    killed process never leave a truncated file behind."""
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


#: Default cache root, relative to the working directory.
DEFAULT_CACHE_DIR = os.path.join("results", "cache")

#: Protocol matrix of the paper's sweep (§4.1).
SWEEP_PROTOCOLS = ("tcp", "quic", "mptcp", "mpquic")


# ----------------------------------------------------------------------
# Work units
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SweepCell:
    """One independent simulation unit of a class sweep.

    Everything needed to reproduce the run (and to address its cached
    result) lives here; cells are picklable and cheap to ship to worker
    processes.
    """

    paths: Tuple[PathConfig, ...]
    protocol: str
    initial_interface: int
    file_size: int
    repetitions: int
    base_seed: int
    timeout: float = DEFAULT_SIM_TIMEOUT
    quic_config: Optional[QuicConfig] = None
    tcp_config: Optional[TcpConfig] = None
    #: Network dynamics injected into every repetition; part of the
    #: cell's identity, so the same static scenario under different
    #: fault timelines never collides in the cache.
    timeline: Optional[FaultTimeline] = None
    #: Open-loop workload axis: when set, the cell runs
    #: :func:`repro.experiments.workload.run_workload` over
    #: ``paths[0]`` instead of a closed-loop bulk transfer
    #: (``file_size``/``repetitions``/``initial_interface`` are then
    #: inert; the spec carries its own seed and flow plan).
    workload: Optional[WorkloadSpec] = None

    def key_material(self) -> Dict:
        """The canonical dict whose hash addresses this cell's result."""
        return {
            "format": RESULTS_FORMAT_VERSION,
            "paths": [asdict(p) for p in self.paths],
            "protocol": self.protocol,
            "initial_interface": self.initial_interface,
            "file_size": self.file_size,
            "repetitions": self.repetitions,
            "base_seed": self.base_seed,
            "timeout": self.timeout,
            "quic_config": asdict(self.quic_config) if self.quic_config else None,
            "tcp_config": asdict(self.tcp_config) if self.tcp_config else None,
            "timeline": (
                self.timeline.key_material() if self.timeline else None
            ),
            "workload": asdict(self.workload) if self.workload else None,
        }

    def cache_key(self) -> str:
        """SHA-256 of the canonical key material, hashed once per cell.

        The digest is memoised on the (frozen) cell, so the cache
        lookup, the commit, telemetry and quarantine entries of one
        sweep share a single hash.  The memo never rides along in a
        pickle: a spooled cell is re-hashed for real when loaded.
        """
        key: Optional[str] = self.__dict__.get("_key")
        if key is None:
            canonical = json.dumps(self.key_material(), sort_keys=True)
            key = hashlib.sha256(canonical.encode()).hexdigest()
            object.__setattr__(self, "_key", key)
        return key

    def __getstate__(self) -> Dict[str, Any]:
        return {k: v for k, v in self.__dict__.items() if k != "_key"}


def plan_class_sweep(
    scenarios: Sequence[Scenario],
    file_size: int,
    lossy: bool,
    protocols: Sequence[str] = SWEEP_PROTOCOLS,
    quic_config: Optional[QuicConfig] = None,
    tcp_config: Optional[TcpConfig] = None,
) -> List[SweepCell]:
    """Decompose a class sweep into cells, in deterministic order.

    The order (scenario-major, then protocol, then initial interface)
    matches the serial loop in the figure harness, so zipping the
    results back against this plan reproduces the serial structure.
    """
    reps = 3 if lossy else 1
    cells: List[SweepCell] = []
    for scenario in scenarios:
        for protocol in protocols:
            for initial in (0, 1):
                cells.append(
                    SweepCell(
                        paths=tuple(scenario.paths),
                        protocol=protocol,
                        initial_interface=initial,
                        file_size=file_size,
                        repetitions=reps,
                        base_seed=scenario.index + 1,
                        quic_config=quic_config,
                        tcp_config=tcp_config,
                    )
                )
    return cells


def plan_workload_sweep(
    specs: Sequence[WorkloadSpec],
    bottleneck: PathConfig,
    protocols: Sequence[str] = SWEEP_PROTOCOLS,
    quic_config: Optional[QuicConfig] = None,
    tcp_config: Optional[TcpConfig] = None,
    timeout: float = 600.0,
) -> List[SweepCell]:
    """Decompose an open-loop workload study into cells.

    Spec-major, then protocol — so each workload's flow plan (identical
    across protocols by construction, the specs carry the seeds) is
    replayed against every protocol before the next spec runs.
    """
    cells: List[SweepCell] = []
    for spec in specs:
        for protocol in protocols:
            cells.append(
                SweepCell(
                    paths=(bottleneck,),
                    protocol=protocol,
                    initial_interface=0,
                    file_size=spec.mean_size,
                    repetitions=1,
                    base_seed=spec.seed,
                    timeout=timeout,
                    quic_config=quic_config,
                    tcp_config=tcp_config,
                    workload=spec,
                )
            )
    return cells


def _chaos_crash_requested(cell: SweepCell) -> bool:
    """CI fault-drill hook: should this cell simulate a worker crash?

    Active when ``REPRO_CHAOS_CRASH_KEY`` is a prefix of the cell's
    cache key.  With ``REPRO_CHAOS_MARKER_DIR`` set, each cell crashes
    at most once (a marker file records the first crash), so the
    retry machinery completes the sweep; without it the cell crashes on
    every attempt and ends up quarantined.  ``REPRO_CHAOS_MODE=raise``
    raises instead of killing the process — the in-process variant used
    by tests running with ``jobs=1``.
    """
    key_prefix = os.environ.get("REPRO_CHAOS_CRASH_KEY")  # repro: allow[sweep-purity] chaos hook is crash-only, never shapes results
    if not key_prefix or not cell.cache_key().startswith(key_prefix):
        return False
    marker_dir = os.environ.get("REPRO_CHAOS_MARKER_DIR")  # repro: allow[sweep-purity] chaos hook is crash-only, never shapes results
    if marker_dir:
        marker = Path(marker_dir) / cell.cache_key()
        if marker.exists():
            return False
        marker.parent.mkdir(parents=True, exist_ok=True)
        marker.touch()
    return True


def run_cell(cell: SweepCell) -> CellResult:
    """Execute one cell: what the in-process loop and every spool
    worker call."""
    if _chaos_crash_requested(cell):
        if os.environ.get("REPRO_CHAOS_MODE") == "raise":  # repro: allow[sweep-purity] chaos hook is crash-only, never shapes results
            raise RuntimeError("chaos drill: simulated cell failure")
        os._exit(17)  # hard death, as a real worker crash would be
    if cell.workload is not None:
        return run_workload(
            cell.workload,
            protocol=cell.protocol,
            bottleneck=cell.paths[0],
            quic_config=cell.quic_config,
            tcp_config=cell.tcp_config,
            timeout=cell.timeout,
        )
    return run_bulk(
        cell.protocol,
        cell.paths,
        cell.file_size,
        initial_interface=cell.initial_interface,
        repetitions=cell.repetitions,
        base_seed=cell.base_seed,
        quic_config=cell.quic_config,
        tcp_config=cell.tcp_config,
        timeout=cell.timeout,
        timeline=cell.timeline,
    )


# ----------------------------------------------------------------------
# Result (de)serialisation
# ----------------------------------------------------------------------

def result_to_dict(result: CellResult) -> Dict:
    """JSON-serialisable form of a result (traces are not cached).

    Workload results are kind-tagged so a cache entry deserialises to
    the type that produced it; untagged records are bulk results (the
    pre-v4 shape).
    """
    if isinstance(result, WorkloadRunResult):
        data = asdict(result)
        data["kind"] = "workload"
        return data
    return {
        "protocol": result.protocol,
        "initial_interface": result.initial_interface,
        "file_size": result.file_size,
        "transfer_time": result.transfer_time,
        "goodput_bps": result.goodput_bps,
        "completed": result.completed,
        "repetitions": result.repetitions,
        "details": dict(result.details),
        "rep_times": list(result.rep_times),
        "rep_completed": list(result.rep_completed),
        "failed_repetitions": result.failed_repetitions,
    }


def result_from_dict(data: Dict) -> CellResult:
    if data.get("kind") == "workload":
        payload = {k: v for k, v in data.items() if k != "kind"}
        return WorkloadRunResult(**payload)
    return BulkRunResult(**data)


# ----------------------------------------------------------------------
# On-disk cache
# ----------------------------------------------------------------------

def result_digest(result_data: Dict) -> str:
    """Content digest of a serialised result (canonical JSON, SHA-256).

    The digest covers the result alone — not the key material — so two
    commits of the same cell can be compared byte-for-byte: the sweep
    engine's determinism guarantee means re-executing a cell must
    reproduce the digest exactly.
    """
    canonical = json.dumps(result_data, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


class ResultCache:
    """Content-addressed store of finished cells under ``root``.

    Layout: ``<root>/<key[:2]>/<key>.json`` where ``key`` is the
    SHA-256 of the cell's canonical key material; each file stores the
    key material and a content digest alongside the result so entries
    are self-describing and self-verifying, and is committed through
    :func:`atomic_write`.

    Reads are hardened: a truncated, garbage, digest-less or
    digest-mismatched entry counts as a *miss* with a
    ``RuntimeWarning``, never an unhandled exception.  The corrupt file
    is moved aside to ``<entry>.corrupt`` (so a fresh commit can land
    cleanly) and its key recorded in :attr:`corrupt_keys`.
    """

    def __init__(self, root: os.PathLike) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        #: Entries rejected as truncated/garbage/digest-mismatched.
        self.corrupt = 0
        #: Cache keys of rejected entries (quarantine candidates).
        self.corrupt_keys: List[str] = []

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def _reject(self, key: str, path: Path, reason: str) -> None:
        """Log and set aside a corrupt entry; it now reads as a miss."""
        self.corrupt += 1
        self.corrupt_keys.append(key)
        try:
            os.replace(path, f"{path}.corrupt")
        except OSError:
            pass
        warnings.warn(
            f"corrupt sweep-cache entry for {key[:12]}... ({reason}); "
            "treating as a miss and quarantining the file aside as "
            f"{path.name}.corrupt",
            RuntimeWarning,
            stacklevel=3,
        )

    def get(self, cell: SweepCell) -> Optional[CellResult]:
        return self.get_key(cell.cache_key())

    def get_key(self, key: str) -> Optional[CellResult]:
        """Key-addressed read (the distributed coordinator's path)."""
        path = self._path(key)
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError:
            self.misses += 1
            return None
        except (json.JSONDecodeError, UnicodeDecodeError):
            self._reject(key, path, "not valid JSON")
            self.misses += 1
            return None
        try:
            result_data = data["result"]
            stored = data.get("digest")
            if stored != result_digest(result_data):
                raise ValueError(
                    "content digest mismatch" if stored
                    else "no content digest"
                )
            result = result_from_dict(result_data)
        except (KeyError, TypeError, ValueError) as exc:
            self._reject(key, path, str(exc) or type(exc).__name__)
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, cell: SweepCell, result: CellResult) -> None:
        result_data = result_to_dict(result)
        payload = {"key_material": cell.key_material(),
                   "result": result_data,
                   "digest": result_digest(result_data)}
        atomic_write(
            self._path(cell.cache_key()), json.dumps(payload).encode()
        )


def cache_enabled() -> bool:
    """Whether ``REPRO_CACHE`` permits the on-disk cache."""
    return os.environ.get("REPRO_CACHE", "on").lower() not in (
        "off", "0", "false", "no"
    )


def default_cache() -> Optional[ResultCache]:
    """The cache configured by the environment, or None if disabled."""
    if not cache_enabled():
        return None
    return ResultCache(os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR))


def _env_int(name: str) -> Optional[int]:
    """Integer value of environment variable ``name``; None when unset."""
    raw = os.environ.get(name)
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit arg > ``REPRO_JOBS`` > ``os.cpu_count()``."""
    if jobs is None:
        jobs = _env_int("REPRO_JOBS")
    if jobs is None:
        return os.cpu_count() or 1
    return max(1, jobs)


def resolve_retries(retries: Optional[int] = None) -> int:
    """Retries per failing cell: explicit arg > ``REPRO_RETRIES`` > default."""
    if retries is None:
        retries = _env_int("REPRO_RETRIES")
    if retries is None:
        return DEFAULT_RETRIES
    return max(0, retries)


# ----------------------------------------------------------------------
# Accounting, telemetry and the retry/quarantine policy: what the
# in-process loop and the spool workers/coordinator share
# ----------------------------------------------------------------------

@dataclass
class SweepStats:
    """Accounting of one sweep participant.

    One type for :func:`execute_cells`, a spool worker and the spool
    coordinator; a counter nobody in that role moves stays 0.
    """

    cells: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: Cells run to a committed result by this process (for a
    #: spool-backed :func:`execute_cells`: by its workers).
    executed: int = 0
    jobs: int = 1
    #: Sum of simulator events over executed (non-cached) cells.
    events_processed: int = 0
    #: Failed attempts (exception, dead worker, expired lease) that
    #: were re-queued rather than quarantined.
    retries: int = 0
    #: Cells that exhausted every attempt and were skipped ...
    quarantined: int = 0
    #: ... and their skip-list entries (see :func:`settle_failure`).
    quarantine: List[Dict[str, Any]] = field(default_factory=list)
    #: Coordinator: commits collected out of the spool's cache.
    committed: int = 0
    #: Leases taken back from dead or silent owners.
    reclaimed: int = 0
    #: Claim tokens re-created for cells found neither queued, leased
    #: nor terminal (the spool's self-healing pass).
    requeued: int = 0
    #: Cache entries rejected as corrupt and set aside.
    corrupt_entries: int = 0
    #: Worker processes launched, respawns included.
    workers_spawned: int = 0
    #: Every cell reached a terminal state (False after an exception,
    #: or a coordinator stopped by its ``max_seconds`` budget).
    complete: bool = False

    def count_executed(self, result: CellResult) -> int:
        """Account one executed cell; returns its simulator events."""
        self.executed += 1
        events = int(result.details.get("sim_events", 0))
        self.events_processed += events
        return events

    def counters(self) -> Dict[str, Any]:
        """The scalar counters (payload of ``sweep_end``/``worker_end``)."""
        return {
            name: value for name, value in vars(self).items()
            if name != "quarantine"
        }


#: The one telemetry vocabulary: every ``"record"`` value a sidecar
#: line can carry, whoever wrote it (docs/performance.md §7 tabulates
#: the fields).  ``cell`` is the *terminal* record — exactly one per
#: cell, ``status`` ``cached``, ``executed`` or ``quarantined`` —
#: preceded by one ``attempt_failed`` per failed attempt; a spool-backed
#: :func:`execute_cells` nests its coordinator's ``sweep_start`` /
#: ``sweep_end`` block inside its own.
TELEMETRY_RECORDS = (
    "sweep_start", "cell", "attempt_failed", "lease_reclaimed",
    "worker_start", "worker_end", "sweep_end",
)


def emit(path: Optional[PathArg], record: Dict[str, Any]) -> None:
    """Append one JSONL telemetry record to ``path`` (no-op when None).

    The one telemetry writer.  Each record is one line written by a
    single ``os.write`` on an ``O_APPEND`` descriptor, which the kernel
    makes *line-atomic*: threads, spool workers and coordinators sharing
    a sidecar never interleave partial lines, a killed sweep leaves a
    readable prefix, and successive sweeps accumulate in one file.
    """
    if path is None:
        return
    line = json.dumps(record, sort_keys=True) + "\n"
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, line.encode())
    finally:
        os.close(fd)


def _cell_identity(key: str, cell: Optional[SweepCell]) -> Dict[str, Any]:
    """What names a cell in a record or skip-list entry (``cell`` is
    None when a spooled pickle would not load)."""
    identity: Dict[str, Any] = {"cache_key": key}
    if cell is not None:
        identity["protocol"] = cell.protocol
        identity["initial_interface"] = cell.initial_interface
        identity["base_seed"] = cell.base_seed
    return identity


def cell_record(
    key: str,
    cell: Optional[SweepCell],
    status: str,
    wall_seconds: float = 0.0,
    worker_pid: Optional[int] = None,
    attempts: int = 1,
    events: int = 0,
    error: Optional[str] = None,
) -> Dict[str, Any]:
    """The terminal ``cell`` telemetry record."""
    record = _cell_identity(key, cell)
    record.update(
        record="cell", status=status,
        wall_seconds=round(wall_seconds, 6), attempts=attempts,
    )
    if worker_pid is not None:
        record["worker_pid"] = worker_pid
    if events:
        record["events"] = events
        if wall_seconds > 0:
            record["events_per_second"] = round(events / wall_seconds)
    if error is not None:
        record["error"] = error
    return record


def sweep_start_record(cells: int, jobs: int) -> Dict[str, Any]:
    return {"record": "sweep_start", "format": RESULTS_FORMAT_VERSION,
            "cells": cells, "jobs": jobs}


def sweep_end_record(stats: SweepStats, started: float) -> Dict[str, Any]:
    return {
        "record": "sweep_end", **stats.counters(),
        "wall_seconds": round(_metrics.clock() - started, 6),
    }


def settle_failure(
    telemetry: Optional[PathArg],
    key: str,
    cell: Optional[SweepCell],
    errors: List[str],
    max_attempts: int,
) -> Optional[Dict[str, Any]]:
    """One failed attempt under the one retry/quarantine policy.

    ``errors`` is the cell's clipped error history, this attempt last.
    Below ``max_attempts`` the cell is to be retried (after
    :func:`backoff_delay`) and None is returned; at the bound it is
    terminal: its ``quarantined`` record is emitted and its skip-list
    entry — the one entry shape — returned.
    """
    emit(telemetry, {"record": "attempt_failed", "cache_key": key,
                     "attempt": len(errors), "error": errors[-1]})
    if len(errors) < max_attempts:
        return None
    emit(telemetry, cell_record(
        key, cell, "quarantined", attempts=len(errors), error=errors[-1],
    ))
    entry = _cell_identity(key, cell)
    entry["attempts"] = len(errors)
    entry["errors"] = errors[-MAX_QUARANTINE_ERRORS:]
    return entry


def dedupe_quarantine(entries: List[Dict]) -> List[Dict]:
    """Collapse a quarantine skip-list to one entry per cache key.

    Later entries win (they carry the most recent attempt counts), and
    stored error evidence is re-clipped to the configured bounds.
    """
    by_key: Dict[str, Dict] = {}
    for entry in entries:
        key = entry.get("cache_key", "")
        merged = dict(entry)
        errors = [clip_error(e) for e in merged.get("errors", [])]
        merged["errors"] = errors[-MAX_QUARANTINE_ERRORS:]
        by_key[key] = merged
    return list(by_key.values())


def write_quarantine_report(path: PathArg, entries: List[Dict]) -> None:
    """Atomically write the (deduplicated) quarantine skip-list as JSON.

    Written even when empty so CI can always upload the artifact and a
    clean run is distinguishable from a run that never reported.
    """
    entries = dedupe_quarantine(entries)
    payload = {
        "format": RESULTS_FORMAT_VERSION,
        "quarantined_cells": len(entries),
        "quarantined": entries,
    }
    atomic_write(Path(path), json.dumps(payload, indent=2).encode())


def _progress_stream() -> Optional[TextIO]:
    """stderr when it wants a progress line (tty, or forced by env)."""
    if os.environ.get("REPRO_PROGRESS", "").lower() in ("1", "on", "true", "yes"):
        return sys.stderr
    try:
        if sys.stderr.isatty():
            return sys.stderr
    except (AttributeError, ValueError):
        pass
    return None


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------

def execute_cells(
    cells: Sequence[SweepCell],
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = "auto",  # type: ignore[assignment]
    stats: Optional[SweepStats] = None,
    retries: Optional[int] = None,
    telemetry: Optional[PathArg] = "auto",
) -> List[Optional[CellResult]]:
    """Run every cell, returning results aligned with ``cells``.

    Cached cells are served from disk; the rest are executed and stored
    back — in-process when ``jobs == 1`` or at most one cell is
    missing, otherwise by ``jobs`` worker processes that
    :func:`repro.experiments.distributed.coordinate` drives over a
    temporary spool directory.  Results are bit-identical either way:
    every path makes the exact same ``run_bulk`` call, and ordering is
    restored from the plan, not from completion order.

    A raising cell, or a worker dying mid-cell, is a failed attempt of
    that cell alone, retried up to ``retries`` more times
    (``REPRO_RETRIES``, default 2) with bounded backoff.  Cells failing
    every attempt are quarantined — their result slot is ``None``, their
    skip-list entries land in ``stats.quarantine`` (and
    ``REPRO_QUARANTINE_FILE`` when set), and a ``RuntimeWarning``
    reports the count.

    ``cache="auto"`` resolves via :func:`default_cache`; ``None``
    bypasses caching.  ``telemetry`` names the JSONL sidecar (see
    :data:`TELEMETRY_RECORDS`): ``"auto"`` reads
    ``REPRO_SWEEP_TELEMETRY``; ``None`` silences the sidecar and the
    progress/ETA line this front otherwise keeps on stderr (when it is
    a terminal, or under ``REPRO_PROGRESS=1``).
    """
    if cache == "auto":
        cache = default_cache()
    jobs = resolve_jobs(jobs)
    progress = None if telemetry is None else _progress_stream()
    if telemetry == "auto":
        telemetry = os.environ.get("REPRO_SWEEP_TELEMETRY", "").strip() or None
    if telemetry is not None:
        Path(telemetry).parent.mkdir(parents=True, exist_ok=True)
    stats = stats if stats is not None else SweepStats()
    stats.cells += len(cells)
    stats.jobs = max(stats.jobs, jobs)
    max_attempts = resolve_retries(retries) + 1
    results: List[Optional[CellResult]] = [None] * len(cells)
    quarantine: List[Dict[str, Any]] = []
    started = _metrics.clock()
    done = 0

    def tick(slots: int) -> None:
        """``slots`` more result slots are terminal: move the progress line."""
        nonlocal done
        done += slots
        if progress is None:
            return
        elapsed = _metrics.clock() - started
        eta = elapsed / done * (len(cells) - done) if done else float("nan")
        progress.write(
            f"\rsweep [{done}/{len(cells)}] "
            f"elapsed={elapsed:6.1f}s eta={eta:6.1f}s"
        )
        if done >= len(cells):
            progress.write("\n")
        progress.flush()

    def commit(slots: List[int], result: CellResult) -> int:
        """Fill ``slots`` and persist at once: an interrupted sweep
        resumes from whatever completed.  Returns the cell's events."""
        for i in slots:
            results[i] = result
        if cache is not None:
            cache.put(cells[slots[0]], result)
        return stats.count_executed(result)

    emit(telemetry, sweep_start_record(len(cells), jobs))
    try:
        missing: List[int] = []
        for i, cell in enumerate(cells):
            cached = cache.get(cell) if cache is not None else None
            if cached is None:
                missing.append(i)
                continue
            results[i] = cached
            if telemetry is not None:
                emit(telemetry, cell_record(cell.cache_key(), cell, "cached"))
        if cache is not None:
            stats.cache_hits += len(cells) - len(missing)
            stats.cache_misses += len(missing)
            tick(len(cells) - len(missing))

        if jobs > 1 and len(missing) > 1:
            # Spool the distinct missing cells; workers write their own
            # telemetry, through the spool's sidecar, into the caller's.
            from repro.experiments.distributed import coordinate

            slots_of: Dict[str, List[int]] = {}
            for i in missing:
                slots_of.setdefault(cells[i].cache_key(), []).append(i)

            def on_result(key: str, result: CellResult) -> None:
                commit(slots_of[key], result)
                tick(len(slots_of[key]))

            with tempfile.TemporaryDirectory(prefix="repro-spool-") as spool:
                if telemetry is not None:
                    os.symlink(
                        os.path.abspath(telemetry),
                        os.path.join(spool, "telemetry.jsonl"),
                    )
                outcome = coordinate(
                    Path(spool), [cells[slots[0]] for slots in slots_of.values()],
                    workers=jobs, max_attempts=max_attempts,
                    on_result=on_result,
                ).stats
            quarantine = outcome.quarantine
            tick(sum(len(slots_of[e["cache_key"]]) for e in quarantine))
            stats.retries += outcome.retries
            stats.reclaimed += outcome.reclaimed
            stats.requeued += outcome.requeued
            stats.corrupt_entries += outcome.corrupt_entries
            stats.workers_spawned += outcome.workers_spawned
        else:
            for i in missing:
                cell = cells[i]
                errors: List[str] = []
                while True:
                    t0 = _metrics.clock()
                    try:
                        result = run_cell(cell)
                    except Exception as exc:
                        # In-process stand-in for a worker crash.
                        errors.append(clip_error(repr(exc)))
                        entry = settle_failure(
                            telemetry, cell.cache_key(), cell, errors,
                            max_attempts,
                        )
                        if entry is not None:
                            quarantine.append(entry)
                            break
                        stats.retries += 1
                        time.sleep(backoff_delay(len(errors)))
                        continue
                    wall = _metrics.clock() - t0
                    events = commit([i], result)
                    if telemetry is not None:
                        emit(telemetry, cell_record(
                            cell.cache_key(), cell, "executed", wall,
                            os.getpid(), len(errors) + 1, events,
                        ))
                    break
                tick(1)

        stats.quarantined += len(quarantine)
        stats.quarantine.extend(quarantine)
        stats.complete = True
        if quarantine:
            warnings.warn(
                f"{len(quarantine)} sweep cell(s) quarantined after "
                f"{max_attempts} failed attempt(s) each; their result "
                "slots are None (see the quarantine report)",
                RuntimeWarning,
                stacklevel=2,
            )
    finally:
        emit(telemetry, sweep_end_record(stats, started))

    report_path = os.environ.get("REPRO_QUARANTINE_FILE")
    if report_path:
        write_quarantine_report(report_path, quarantine)
    return results


def execute_class_sweep(
    scenarios: Sequence[Scenario],
    file_size: int,
    lossy: bool,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = "auto",  # type: ignore[assignment]
    stats: Optional[SweepStats] = None,
    protocols: Sequence[str] = SWEEP_PROTOCOLS,
) -> List[Tuple[Scenario, Dict[Tuple[str, int], BulkRunResult]]]:
    """Plan, execute and regroup a class sweep.

    Returns the exact structure of the serial figure harness: one
    ``(scenario, {(protocol, initial): BulkRunResult})`` pair per
    scenario, in scenario order.
    """
    cells = plan_class_sweep(scenarios, file_size, lossy, protocols=protocols)
    results = execute_cells(cells, jobs=jobs, cache=cache, stats=stats)
    per_scenario = 2 * len(protocols)
    out: List[Tuple[Scenario, Dict[Tuple[str, int], BulkRunResult]]] = []
    for s_idx, scenario in enumerate(scenarios):
        matrix: Dict[Tuple[str, int], BulkRunResult] = {}
        base = s_idx * per_scenario
        for c_idx in range(per_scenario):
            cell = cells[base + c_idx]
            matrix[(cell.protocol, cell.initial_interface)] = results[base + c_idx]
        out.append((scenario, matrix))
    return out
