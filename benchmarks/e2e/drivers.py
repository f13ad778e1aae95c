"""Per-layer drivers: untraced loops over one layer's public API.

Each driver times a batch of operations on one layer alone, sized by
calibration to ``loop_s`` seconds, and reports the median of ``reps``
batches as a rate (or a cost per operation).  They tell *which layer*
moved when an end-to-end number moves; none of them is gated.
"""

from __future__ import annotations

import math
import shutil
import tempfile
import time
from pathlib import Path
from statistics import median
from typing import Any, Callable, Dict, List, Tuple

from benchmarks.e2e.workloads import DESIGN_SEED, PROTOCOLS

clock = time.perf_counter

#: name -> unit of everything :func:`run_all` returns.
UNITS: Dict[str, str] = {
    "netsim.engine.dispatch_ev_per_s": "1/s",
    "netsim.engine.churn_ev_per_s": "1/s",
    "netsim.link.mtu_dgrams_per_s": "1/s",
    "netsim.link.small_dgrams_per_s": "1/s",
    "quic.wire.encode_data_pkts_per_s": "1/s",
    "quic.wire.decode_data_pkts_per_s": "1/s",
    "quic.wire.encode_ack_pkts_per_s": "1/s",
    "quic.wire.decode_ack_pkts_per_s": "1/s",
    "tcp.wire_encode_segs_per_s": "1/s",
    "tcp.wire_decode_segs_per_s": "1/s",
    "quic.recovery_inorder_acks_per_s": "1/s",
    "quic.recovery_gappy_acks_per_s": "1/s",
    "quic.ackmgr_pkts_per_s": "1/s",
    "quic.stream_frames_per_s": "1/s",
    "cc.cubic_acks_per_s": "1/s",
    "cc.olia_acks_per_s": "1/s",
    "cc.newreno_acks_per_s": "1/s",
    "core.lowrtt_decisions_per_s": "1/s",
    "mptcp.lowrtt_decisions_per_s": "1/s",
    "util.reassembly_inorder_per_s": "1/s",
    "util.reassembly_reversed_per_s": "1/s",
    "util.ranges_adds_per_s": "1/s",
    "util.sanitize_on_ratio": "ratio",
    **{f"apps.pair_setup_us.{p}": "us" for p in PROTOCOLS},
    **{f"apps.bulk20mb_s.{p}": "s" for p in PROTOCOLS},
    "expdesign.wsp253_s": "s",
    "experiments.plan_cells_per_s": "1/s",
    "experiments.cache_put_us": "us",
    "experiments.cache_get_us": "us",
    "experiments.result_codec_us": "us",
    "experiments.pool2_wall_s": "s",
    "experiments.pool2_speedup": "ratio",
    "experiments.spool2_wall_s": "s",
    "obs.trace_on_ratio": "ratio",
}

Batch = Callable[[], int]  # runs one batch, returns the operations it did


def _timed(fn: Callable[[], Any]) -> float:
    start = clock()
    fn()
    return clock() - start


def _seconds_per_op(batch: Batch, loop_s: float, reps: int) -> float:
    """Median over ``reps`` loops of (loop wall / operations done)."""
    once = max(_timed(batch), 1e-9)
    batches = max(1, math.ceil(loop_s / once))
    samples = []
    for _ in range(reps):
        start = clock()
        done = sum(batch() for _ in range(batches))
        samples.append((clock() - start) / done)
    return median(samples)


# -- netsim ---------------------------------------------------------------------

def _noop() -> None:
    pass


def _engine_dispatch() -> int:
    from repro.netsim.engine import Simulator

    sim = Simulator()
    for i in range(20_000):
        sim.schedule(i * 1e-6, _noop)
    sim.run()
    return sim.events_processed


def _engine_churn() -> int:
    """Schedule two, cancel one: the loss-recovery timer pattern."""
    from repro.netsim.engine import Simulator

    sim = Simulator()
    for i in range(10_000):
        sim.schedule(i * 1e-6, _noop)
        sim.schedule(i * 1e-6 + 2.0, _noop).cancel()
    sim.run()
    return sim.events_processed


def _link(size: int) -> Batch:
    from repro.netsim.engine import Simulator
    from repro.netsim.link import Link
    from repro.netsim.node import Datagram

    count = 5_000

    def batch() -> int:
        sim = Simulator()
        delivered: List[Any] = []
        link = Link(
            sim, rate_bps=1e9, prop_delay=1e-3, queue_capacity=count * size,
            sink=delivered.append,
        )
        for _ in range(count):
            link.send(Datagram(None, size))
        sim.run()
        if len(delivered) != count:
            raise RuntimeError("link driver lost datagrams")
        return count

    return batch


# -- wire formats -----------------------------------------------------------------

def _quic_packets() -> Tuple[Any, Any]:
    from repro.quic.frames import AckFrame, StreamFrame
    from repro.quic.packet import Packet

    data = Packet(0, 1234, (StreamFrame(1, 1_000_000, b"x" * 1350),), multipath=True)
    ack = Packet(
        1, 77, (AckFrame(1, 1000, 0.001, ((990, 1001), (980, 985), (970, 975))),),
        multipath=True,
    )
    return data, ack


def _repeat(fn: Callable[[Any], Any], arg: Any, count: int = 2_000) -> Batch:
    def batch() -> int:
        for _ in range(count):
            fn(arg)
        return count

    return batch


# -- quic -------------------------------------------------------------------------

def _recovery_inorder() -> int:
    from repro.quic.frames import AckFrame
    from repro.quic.recovery import LossRecovery
    from repro.quic.rtt import RttEstimator

    recovery = LossRecovery(RttEstimator())
    acks = 0
    for pn in range(4_000):
        now = pn * 1e-3
        recovery.on_packet_sent(pn, (), 1400, now, True)
        if pn % 2:
            recovery.on_ack_received(AckFrame(0, pn, 0.0, ((pn - 1, pn + 1),)), now + 0.03)
            acks += 1
    return acks


def _recovery_gappy() -> int:
    """Every tenth packet is lost: multi-range ACKs and loss detection."""
    from repro.quic.ackmgr import AckManager
    from repro.quic.recovery import LossRecovery
    from repro.quic.rtt import RttEstimator

    recovery = LossRecovery(RttEstimator())
    receiver = AckManager(0)
    acks = 0
    for pn in range(4_000):
        now = pn * 1e-3
        recovery.on_packet_sent(pn, (), 1400, now, True)
        if pn % 10:
            receiver.on_packet_received(pn, now + 0.015, True)
            if receiver.should_ack_now():
                recovery.on_ack_received(receiver.build_ack(now + 0.015), now + 0.03)
                acks += 1
    return acks


def _ack_manager() -> int:
    from repro.quic.ackmgr import AckManager

    manager = AckManager(0)
    for pn in range(5_000):
        manager.on_packet_received(pn, pn * 1e-3, True)
        if manager.should_ack_now():
            manager.build_ack(pn * 1e-3)
    return 5_000


def _stream_frames() -> int:
    from repro.quic.stream import SendStream

    stream = SendStream(1)
    stream.write(b"x" * (1350 * 2_000), fin=True)
    frames = 0
    while stream.next_frame(1350, 1 << 40) is not None:
        frames += 1
    return frames


# -- congestion control -----------------------------------------------------------

def _cc_acks(make: Callable[[], List[Any]]) -> Batch:
    def batch() -> int:
        controllers = make()
        for i in range(5_000):
            controllers[i % len(controllers)].on_ack(i * 1e-3, 1400, 0.05)
        return 5_000

    return batch


def _olia_pair() -> List[Any]:
    from repro.cc import OliaCoordinator

    coordinator = OliaCoordinator()
    return [coordinator.path_controller(0), coordinator.path_controller(1)]


# -- schedulers -------------------------------------------------------------------

def _finished_pair(protocol: str) -> Any:
    """The server endpoint after a 200 KB transfer over two live paths."""
    from repro.apps.bulk import BulkTransferApp
    from repro.apps.transport import make_client_server
    from repro.netsim.engine import Simulator
    from repro.netsim.topology import PathConfig, TwoPathTopology

    sim = Simulator()
    topology = TwoPathTopology(sim, [PathConfig(10, 30, 60), PathConfig(10, 40, 60)], seed=1)
    client, server = make_client_server(protocol, sim, topology)
    if not BulkTransferApp(sim, client, server, 200_000).run():
        raise RuntimeError(f"{protocol} driver transfer did not complete")
    return server.connection


def _scheduler(protocol: str) -> Batch:
    connection = _finished_pair(protocol)
    if protocol == "mpquic":
        choose, candidates = connection.scheduler.select_path, list(connection.paths.values())
    else:
        choose, candidates = connection.scheduler.select, list(connection.subflows.values())
    if len(candidates) < 2 or choose(candidates) is None:
        raise RuntimeError(f"{protocol} scheduler driver has nothing to choose from")
    return _repeat(choose, candidates, 5_000)


# -- util -------------------------------------------------------------------------

def _reassembly(block: int) -> Batch:
    """Chunks arrive in blocks of ``block``, each block highest offset first."""
    from repro.util.reassembly import Reassembler

    chunk = b"x" * 1400
    count = 4_096

    def batch() -> int:
        reassembler = Reassembler()
        received = 0
        for base in range(0, count, block):
            for i in reversed(range(base, base + block)):
                reassembler.insert(i * 1400, chunk)
                received += len(reassembler.pop_ready())
        if received != count * 1400:
            raise RuntimeError("reassembly driver lost bytes")
        return count

    return batch


def _range_adds() -> int:
    from repro.util.ranges import RangeSet

    ranges = RangeSet()
    for value in range(0, 2_000, 2):
        ranges.add_value(value)
    for value in range(1, 2_000, 2):
        ranges.add_value(value)
    if len(ranges) != 1:
        raise RuntimeError("range driver did not merge")
    return 2_000


# -- apps -------------------------------------------------------------------------

def _paths() -> List[Any]:
    from repro.netsim.topology import PathConfig

    return [PathConfig(10, 30, 60), PathConfig(10, 30, 60)]


def _pair_setup(protocol: str) -> Batch:
    from repro.apps.transport import make_client_server
    from repro.netsim.engine import Simulator
    from repro.netsim.topology import TwoPathTopology

    paths = _paths()

    def batch() -> int:
        for _ in range(50):
            sim = Simulator()
            make_client_server(protocol, sim, TwoPathTopology(sim, paths, seed=1))
        return 50

    return batch


def _bulk(protocol: str, file_size: int, **kwargs: Any) -> Callable[[], None]:
    from repro.experiments.runner import run_bulk

    paths = _paths()

    def run() -> None:
        if not run_bulk(protocol, paths, file_size, **kwargs).completed:
            raise RuntimeError(f"{protocol} driver transfer did not complete")

    return run


def _on_off_ratio(on: Callable[[], Any], off: Callable[[], Any], reps: int) -> float:
    """Median wall of ``on`` over median wall of ``off``, interleaved."""
    on_s, off_s = [], []
    for _ in range(reps):
        off_s.append(_timed(off))
        on_s.append(_timed(on))
    return median(on_s) / median(off_s)


# -- experiments ------------------------------------------------------------------

def _harness(out: Dict[str, float], scale: float, loop_s: float, reps: int, work: Path) -> None:
    from repro.expdesign.parameters import generate_scenarios
    from repro.experiments.distributed import run_distributed_sweep
    from repro.experiments.parallel import (
        ResultCache, execute_cells, plan_class_sweep, result_from_dict, result_to_dict,
    )

    count = max(2, round(253 * scale))
    heavy_reps = min(reps, 3)
    samples = []
    for _ in range(heavy_reps):
        start = clock()
        scenarios = generate_scenarios("low-bdp-no-loss", count, seed=DESIGN_SEED)
        samples.append(clock() - start)
    out["expdesign.wsp253_s"] = median(samples)

    def plan() -> int:
        return len(plan_class_sweep(scenarios, 20_000, False))

    out["experiments.plan_cells_per_s"] = 1.0 / _seconds_per_op(plan, loop_s, reps)

    # A quarter of the sweep-scale plan: enough cells to amortise the
    # pool and worker start-up, without costing a whole cold pass thrice.
    cells = plan_class_sweep(scenarios[: max(2, count // 4)], 20_000, False)
    start = clock()
    results = execute_cells(cells, jobs=1, cache=None, telemetry=None)
    serial_s = clock() - start
    pairs = list(zip(cells, results))[:64]
    cache = ResultCache(work / "cache")

    def put() -> int:
        for cell, result in pairs:
            cache.put(cell, result)
        return len(pairs)

    def get() -> int:
        for cell, _result in pairs:
            if cache.get(cell) is None:
                raise RuntimeError("cache driver missed an entry it just wrote")
        return len(pairs)

    def codec() -> int:
        for _cell, result in pairs:
            result_from_dict(result_to_dict(result))
        return len(pairs)

    out["experiments.cache_put_us"] = _seconds_per_op(put, loop_s, reps) * 1e6
    out["experiments.cache_get_us"] = _seconds_per_op(get, loop_s, reps) * 1e6
    out["experiments.result_codec_us"] = _seconds_per_op(codec, loop_s, reps) * 1e6

    start = clock()
    pooled = execute_cells(cells, jobs=2, cache=None, telemetry=None)
    out["experiments.pool2_wall_s"] = clock() - start
    out["experiments.pool2_speedup"] = serial_s / out["experiments.pool2_wall_s"]
    start = clock()
    spooled = run_distributed_sweep(cells, spool_root=work / "spool", workers=2)
    out["experiments.spool2_wall_s"] = clock() - start
    reference = [result_to_dict(r) for r in results]
    for other in (pooled, spooled.results):
        if [result_to_dict(r) for r in other] != reference:
            raise RuntimeError("pooled sweep results differ from the serial ones")


def run_all(scale: float, loop_s: float, reps: int, work_dir: str) -> Dict[str, float]:
    """Every driver metric of :data:`UNITS`.

    ``scale`` shrinks the heavy drivers (20 MB transfers, the 253-point
    design, the pooled sweeps) for ``--selfcheck``; at 1.0 they are the
    sizes their names state.
    """
    from repro.cc import Cubic, NewReno
    from repro.obs import metrics
    from repro.quic.wire import decode_packet, encode_packet
    from repro.tcp.segment import Segment
    from repro.tcp.wire import decode_segment, encode_segment
    from repro.util import sanitize

    data, ack = _quic_packets()
    segment = Segment(
        seq=1_000_000, ack=5_000, data=b"x" * 1400, window_edge=2_000_000,
        sack_blocks=((10_000, 11_400), (14_000, 15_400)),
    )
    rates: Dict[str, Batch] = {
        "netsim.engine.dispatch_ev_per_s": _engine_dispatch,
        "netsim.engine.churn_ev_per_s": _engine_churn,
        "netsim.link.mtu_dgrams_per_s": _link(1500),
        "netsim.link.small_dgrams_per_s": _link(40),
        "quic.wire.encode_data_pkts_per_s": _repeat(encode_packet, data),
        "quic.wire.decode_data_pkts_per_s": _repeat(decode_packet, encode_packet(data)),
        "quic.wire.encode_ack_pkts_per_s": _repeat(encode_packet, ack),
        "quic.wire.decode_ack_pkts_per_s": _repeat(decode_packet, encode_packet(ack)),
        "tcp.wire_encode_segs_per_s": _repeat(encode_segment, segment),
        "tcp.wire_decode_segs_per_s": _repeat(decode_segment, encode_segment(segment)),
        "quic.recovery_inorder_acks_per_s": _recovery_inorder,
        "quic.recovery_gappy_acks_per_s": _recovery_gappy,
        "quic.ackmgr_pkts_per_s": _ack_manager,
        "quic.stream_frames_per_s": _stream_frames,
        "cc.cubic_acks_per_s": _cc_acks(lambda: [Cubic()]),
        "cc.olia_acks_per_s": _cc_acks(_olia_pair),
        "cc.newreno_acks_per_s": _cc_acks(lambda: [NewReno()]),
        "core.lowrtt_decisions_per_s": _scheduler("mpquic"),
        "mptcp.lowrtt_decisions_per_s": _scheduler("mptcp"),
        "util.reassembly_inorder_per_s": _reassembly(1),
        "util.reassembly_reversed_per_s": _reassembly(64),
        "util.ranges_adds_per_s": _range_adds,
    }
    out = {name: 1.0 / _seconds_per_op(batch, loop_s, reps) for name, batch in rates.items()}

    heavy_reps = min(reps, 3)
    for protocol in PROTOCOLS:
        out[f"apps.pair_setup_us.{protocol}"] = (
            _seconds_per_op(_pair_setup(protocol), loop_s, reps) * 1e6
        )
        transfer = _bulk(protocol, max(20_000, round(20_000_000 * scale)))
        out[f"apps.bulk20mb_s.{protocol}"] = median(
            [_timed(transfer) for _ in range(heavy_reps)]
        )

    plain = _bulk("mpquic", max(20_000, round(2_000_000 * scale)))
    traced = _bulk("mpquic", max(20_000, round(2_000_000 * scale)), collect_trace=True)

    def sanitized() -> None:
        with sanitize.enabled():
            plain()

    if metrics.METRICS or sanitize.SANITIZE:
        raise RuntimeError("drivers must start with metrics and sanitizer off")
    out["util.sanitize_on_ratio"] = _on_off_ratio(sanitized, plain, reps)
    out["obs.trace_on_ratio"] = _on_off_ratio(traced, plain, reps)

    work = Path(tempfile.mkdtemp(prefix="drivers-", dir=work_dir))
    try:
        _harness(out, scale, loop_s, reps, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(out) != set(UNITS):
        raise RuntimeError(f"driver names drifted: {sorted(set(out) ^ set(UNITS))}")
    return out
