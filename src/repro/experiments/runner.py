"""Run one protocol over one scenario and collect results.

The measurement mirrors the paper's §4.1: the client downloads a file
on a single stream and times the interval between its first connection
packet and the last response byte.  Lossy scenarios are repeated with
different seeds and summarised by the median run (the paper repeats
each simulation three times).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps.bulk import BulkTransferApp
from repro.apps.reqres import RequestResponseApp
from repro.apps.transport import make_client_server
from repro.experiments.metrics import median
from repro.experiments.scenarios import (
    HANDOVER_SCENARIO,
    HandoverScenario,
    MobilityScenario,
)
from repro.netsim.engine import Simulator
from repro.netsim.faults import FaultTimeline
from repro.netsim.topology import PathConfig, TwoPathTopology
from repro.obs import Tracer
from repro.quic.config import QuicConfig
from repro.tcp.config import TcpConfig

#: Hard ceiling on simulated seconds per run; generous enough for a
#: 0.1 Mbps path (the range minimum) to finish any benchmark transfer.
DEFAULT_SIM_TIMEOUT = 4000.0


@dataclass
class BulkRunResult:
    """Outcome of one bulk-transfer run (median over repetitions).

    ``transfer_time`` is the median over *completed* repetitions only:
    a timed-out repetition no longer silently skews the median towards
    the timeout ceiling — it is recorded in ``rep_completed`` /
    ``failed_repetitions`` instead.  When every repetition times out,
    ``transfer_time`` falls back to the timeout and ``completed`` is
    False.
    """

    protocol: str
    initial_interface: int
    file_size: int
    transfer_time: float
    goodput_bps: float
    completed: bool
    repetitions: int = 1
    details: Dict[str, float] = field(default_factory=dict)
    #: Per-repetition transfer time (timeout value for failed reps).
    rep_times: List[float] = field(default_factory=list)
    #: Per-repetition completion flag, aligned with ``rep_times``.
    rep_completed: List[bool] = field(default_factory=list)
    #: Number of repetitions that hit the simulation timeout.
    failed_repetitions: int = 0
    #: Telemetry of the median completed repetition when the run was
    #: made with ``collect_trace=True`` (None otherwise).
    trace: Optional[Tracer] = None


def _single_bulk(
    protocol: str,
    paths: Sequence[PathConfig],
    file_size: int,
    initial_interface: int,
    seed: int,
    quic_config: Optional[QuicConfig],
    tcp_config: Optional[TcpConfig],
    timeout: float,
    trace: Optional[Tracer] = None,
    timeline: Optional[FaultTimeline] = None,
) -> Tuple[bool, float, int]:
    sim = Simulator()
    topo = TwoPathTopology(sim, list(paths), seed=seed)
    if timeline is not None:
        timeline.install(sim, topo, trace=trace)
    client, server = make_client_server(
        protocol, sim, topo,
        initial_interface=initial_interface,
        trace=trace,
        quic_config=quic_config, tcp_config=tcp_config,
    )
    app = BulkTransferApp(sim, client, server, file_size, initial_interface)
    ok = app.run(timeout=timeout)
    return ok, app.transfer_time if ok else timeout, sim.events_processed


def run_bulk(
    protocol: str,
    paths: Sequence[PathConfig],
    file_size: int,
    initial_interface: int = 0,
    repetitions: int = 1,
    base_seed: int = 1,
    quic_config: Optional[QuicConfig] = None,
    tcp_config: Optional[TcpConfig] = None,
    timeout: float = DEFAULT_SIM_TIMEOUT,
    collect_trace: bool = False,
    timeline: Optional[FaultTimeline] = None,
) -> BulkRunResult:
    """Run a bulk download, reporting the median over ``repetitions``.

    Loss-free scenarios are deterministic, so a single repetition
    suffices; lossy ones should use 3, matching the paper.  The median
    is taken over *completed* repetitions; timed-out ones are flagged
    via ``rep_completed`` / ``failed_repetitions`` rather than pulling
    the median towards the timeout.  With ``collect_trace=True`` each
    repetition runs with a :class:`repro.obs.Tracer` attached and the
    median repetition's trace is returned on the result.  A
    ``timeline`` (:class:`repro.netsim.faults.FaultTimeline`) injects
    network dynamics — link failures, rate/delay/loss changes — into
    every repetition.
    """
    times: List[float] = []
    rep_ok: List[bool] = []
    traces: List[Optional[Tracer]] = []
    sim_events = 0
    for rep in range(repetitions):
        tracer = Tracer() if collect_trace else None
        ok, duration, events = _single_bulk(
            protocol, paths, file_size, initial_interface,
            seed=base_seed + rep * 1000,
            quic_config=quic_config, tcp_config=tcp_config, timeout=timeout,
            trace=tracer, timeline=timeline,
        )
        rep_ok.append(ok)
        times.append(duration)
        traces.append(tracer)
        sim_events += events
    completed_times = [t for t, ok in zip(times, rep_ok) if ok]
    t = median(completed_times) if completed_times else median(times)
    trace: Optional[Tracer] = None
    if collect_trace:
        # The trace of the (completed) repetition whose duration is the
        # reported median, ties resolved to the first such repetition.
        candidates = [i for i, ok in enumerate(rep_ok) if ok] or list(
            range(len(times))
        )
        trace = traces[min(candidates, key=lambda i: abs(times[i] - t))]
    return BulkRunResult(
        protocol=protocol,
        initial_interface=initial_interface,
        file_size=file_size,
        transfer_time=t,
        goodput_bps=file_size * 8.0 / t if t > 0 else 0.0,
        completed=all(rep_ok),
        repetitions=repetitions,
        details={"sim_events": float(sim_events)},
        rep_times=times,
        rep_completed=rep_ok,
        failed_repetitions=rep_ok.count(False),
        trace=trace,
    )


def run_handover(
    scenario: HandoverScenario = HANDOVER_SCENARIO,
    seed: int = 3,
    quic_config: Optional[QuicConfig] = None,
    protocol: str = "mpquic",
    tcp_config: Optional[TcpConfig] = None,
    trace: Optional[Tracer] = None,
) -> List[Tuple[float, float]]:
    """Reproduce the §4.3 handover experiment.

    Returns ``(request sent time, response delay)`` pairs — the series
    of the paper's Fig. 11.  At ``scenario.failure_time`` the initial
    path becomes completely lossy in both directions (injected via the
    scenario's :class:`~repro.netsim.faults.FaultTimeline`).  Attach a
    :class:`repro.obs.Tracer` via ``trace`` to capture the handover
    timeline (the ``network:loss_change`` fault,
    ``path:potentially_failed`` and the traffic shift).
    """
    sim = Simulator()
    topo = TwoPathTopology(sim, list(scenario.paths), seed=seed)
    scenario.timeline().install(sim, topo, trace=trace)
    client, server = make_client_server(
        protocol, sim, topo, initial_interface=0,
        trace=trace,
        quic_config=quic_config, tcp_config=tcp_config,
    )
    app = RequestResponseApp(
        sim, client, server,
        message_size=scenario.message_size,
        interval=scenario.interval,
        total_requests=scenario.total_requests,
    )
    app.run(timeout=scenario.failure_time + scenario.total_requests * scenario.interval + 30.0)
    return app.delays()


def run_mobility(
    scenario: MobilityScenario,
    protocol: str = "mpquic",
    initial_interface: int = 0,
    base_seed: int = 1,
    quic_config: Optional[QuicConfig] = None,
    tcp_config: Optional[TcpConfig] = None,
    collect_trace: bool = False,
) -> BulkRunResult:
    """Run one :class:`~repro.experiments.scenarios.MobilityScenario`.

    A bulk transfer with the scenario's fault timeline installed — the
    unit of the WiFi-to-LTE handover sweep.  ``completed=False`` with
    ``transfer_time == scenario.timeout`` means the transport never
    survived the failure (the single-path fate).
    """
    return run_bulk(
        protocol,
        scenario.paths,
        scenario.file_size,
        initial_interface=initial_interface,
        base_seed=base_seed,
        quic_config=quic_config,
        tcp_config=tcp_config,
        timeout=scenario.timeout,
        collect_trace=collect_trace,
        timeline=scenario.timeline,
    )


def run_scenario_protocol_matrix(
    paths: Sequence[PathConfig],
    file_size: int,
    lossy: bool,
    base_seed: int = 1,
    protocols: Sequence[str] = ("tcp", "quic", "mptcp", "mpquic"),
    quic_config: Optional[QuicConfig] = None,
    tcp_config: Optional[TcpConfig] = None,
) -> Dict[Tuple[str, int], BulkRunResult]:
    """All (protocol, initial interface) runs for one scenario.

    This is the unit of the paper's sweep: four protocols, each started
    once on each of the two paths.
    """
    reps = 3 if lossy else 1
    out: Dict[Tuple[str, int], BulkRunResult] = {}
    for protocol in protocols:
        for initial in (0, 1):
            out[(protocol, initial)] = run_bulk(
                protocol, paths, file_size,
                initial_interface=initial,
                repetitions=reps, base_seed=base_seed,
                quic_config=quic_config, tcp_config=tcp_config,
            )
    return out
