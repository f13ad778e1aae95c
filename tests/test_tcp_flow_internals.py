"""White-box tests of TcpFlow internals: SACK recency, Karn probe,
TLP arming, loss marking and pipe accounting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc import make_controller
from repro.netsim.engine import Simulator
from repro.netsim.topology import PathConfig, TwoPathTopology
from repro.tcp.config import TcpConfig
from repro.tcp.flow import FlowOwner, FlowState, TcpFlow
from repro.tcp.segment import Segment


class RecordingOwner(FlowOwner):
    def __init__(self):
        self.delivered = bytearray()
        self.established = False
        self.rtos = 0
        self.window_edge = 10**9

    def flow_established(self, flow):
        self.established = True

    def flow_delivered(self, flow, data, fin):
        self.delivered.extend(data)

    def flow_window_edge(self, flow):
        return self.window_edge

    def flow_on_rto(self, flow):
        self.rtos += 1


def make_flow(role="client", mss=1000):
    sim = Simulator()
    topo = TwoPathTopology(sim, [PathConfig(10, 20, 100)], seed=1)
    host = topo.client if role == "client" else topo.server
    owner = RecordingOwner()
    cfg = TcpConfig(mss=mss, use_tls=False)
    flow = TcpFlow(
        sim, host, 0, role, cfg, make_controller("cubic", mss=mss), owner
    )
    return sim, topo, flow, owner


def established_flow():
    """A flow forced into ESTABLISHED without running the handshake."""
    sim, topo, flow, owner = make_flow()
    flow.state = FlowState.ESTABLISHED
    flow.peer_window_edge = 10**9
    flow.rtt.update(0.02)
    return sim, topo, flow, owner


class TestSackBlocks:
    def test_block_of_last_arrival_reported_first(self):
        sim, topo, flow, owner = established_flow()
        flow.reassembler.insert(100, b"x" * 10)   # old block
        flow._last_block_received = (100, 110)
        flow.reassembler.insert(300, b"y" * 10)   # new block
        flow._last_block_received = (300, 310)
        blocks = flow._sack_blocks()
        # Most recent block (300) first despite another higher/lower.
        assert blocks[0] == (301, 311)  # +SEQ_BASE

    def test_at_most_three_blocks(self):
        sim, topo, flow, owner = established_flow()
        for start in (100, 200, 300, 400, 500):
            flow.reassembler.insert(start, b"z" * 10)
        assert len(flow._sack_blocks()) == 3

    def test_no_blocks_when_in_order(self):
        sim, topo, flow, owner = established_flow()
        flow.reassembler.insert(0, b"a" * 10)
        flow.reassembler.pop_ready()
        assert flow._sack_blocks() == ()


class TestKarnProbe:
    def test_probe_set_on_new_data(self):
        sim, topo, flow, owner = established_flow()
        flow.write(b"d" * 500)
        assert flow._rtt_probe is not None

    def test_probe_invalidated_by_retransmission(self):
        sim, topo, flow, owner = established_flow()
        flow.write(b"d" * 500)
        flow._retx_queue.add(1, 501)
        flow.try_send()  # retransmits the probed range
        assert flow._rtt_probe is None

    def test_sample_absorbed_on_covering_ack(self):
        sim, topo, flow, owner = established_flow()
        before = flow.rtt.samples_taken
        flow.write(b"d" * 500)
        # Ack before the tail loss probe fires (at ~2 smoothed RTTs),
        # which would retransmit the range and invalidate the probe.
        sim.run(until=0.03)
        flow.segment_received(
            Segment(seq=1, ack=501, window_edge=10**9)
        )
        assert flow.rtt.samples_taken == before + 1
        assert flow.rtt.latest == pytest.approx(0.03)


class TestLossMarking:
    def test_hole_marked_with_enough_sack_above(self):
        sim, topo, flow, owner = established_flow()
        flow.write(b"d" * 10_000)
        sim.run(until=0.001)
        mss = flow.config.mss
        # SACK blocks covering 3*MSS above the first segment.
        sack = ((1 + mss, 1 + 4 * mss),)
        flow.segment_received(
            Segment(seq=1, ack=1, window_edge=10**9, sack_blocks=sack)
        )
        assert flow._retx_queue.total + flow._retransmitted_ever.total >= mss
        assert flow.in_recovery

    def test_small_sack_does_not_mark_midstream(self):
        sim, topo, flow, owner = established_flow()
        flow.write(b"d" * 50_000)  # plenty of unsent data remains
        sim.run(until=0.001)
        mss = flow.config.mss
        sack = ((1 + mss, 1 + 2 * mss),)  # only 1 MSS above the hole
        flow.segment_received(
            Segment(seq=1, ack=1, window_edge=10**9, sack_blocks=sack)
        )
        assert not flow.in_recovery

    def test_one_reduction_per_recovery(self):
        sim, topo, flow, owner = established_flow()
        flow.write(b"d" * 50_000)
        sim.run(until=0.001)
        mss = flow.config.mss
        flow.segment_received(
            Segment(seq=1, ack=1, window_edge=10**9,
                    sack_blocks=((1 + mss, 1 + 4 * mss),))
        )
        cwnd_after_first = flow.cc.cwnd_bytes
        flow.segment_received(
            Segment(seq=1, ack=1, window_edge=10**9,
                    sack_blocks=((1 + 5 * mss, 1 + 9 * mss),))
        )
        assert flow.cc.cwnd_bytes == cwnd_after_first


def definitional_loss_marks(flow):
    """``_mark_losses`` as RFC 6675 states it — per hole, re-sum the
    SACKed bytes above it.  Returns the (start, stop) holes to mark."""
    sacked = list(flow._sacked)
    highest_sacked = sacked[-1][1]
    mss = flow.config.mss
    threshold = flow.config.dupack_threshold * mss
    at_tail = flow.snd_nxt >= flow.buffered_end_seq or (
        flow.enforce_flow_window and flow.snd_nxt >= flow.peer_window_edge
    )
    outstanding = max(
        1,
        round(
            (flow.snd_nxt - flow.snd_una - sum(e - s for s, e in sacked)) / mss
        ),
    )
    if at_tail and outstanding < 4:
        threshold = max(1, outstanding - 1) * mss
    marks = []
    cursor = flow.snd_una
    while cursor < highest_sacked:
        gap_start = flow._sacked.first_gap_after(cursor)
        if gap_start >= highest_sacked:
            break
        gap_end = min(s for s, _ in sacked if s > gap_start)
        sacked_above = sum(e - max(s, gap_end) for s, e in sacked if e > gap_end)
        if sacked_above >= threshold and not flow._retx_marked.contains_range(
            gap_start, gap_end
        ):
            marks.append((gap_start, gap_end))
        cursor = gap_end
    return marks


class TestLossMarkingEquivalence:
    @given(
        blocks=st.lists(
            st.tuples(st.integers(0, 59), st.integers(1, 12)), min_size=1,
            max_size=8,
        ),
        premarked=st.lists(
            st.tuples(st.integers(0, 59), st.integers(1, 6)), max_size=3
        ),
        una=st.integers(0, 20),
        unsent=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_one_pass_marks_what_the_per_hole_definition_marks(
        self, blocks, premarked, una, unsent
    ):
        sim, topo, flow, owner = established_flow()
        unit = flow.config.mss // 2  # half-segments: thresholds get crossed
        sent = 60 * unit
        flow._buf = bytearray(sent + (5 * unit if unsent else 0))
        flow.snd_nxt = flow.SEQ_BASE + sent
        flow.snd_una = flow.SEQ_BASE + una * unit
        for start, length in blocks:
            lo = max(flow.SEQ_BASE + start * unit, flow.snd_una)
            hi = min(flow.SEQ_BASE + (start + length) * unit, flow.snd_nxt)
            flow._sacked.add(lo, hi)
        for start, length in premarked:
            lo = flow.SEQ_BASE + start * unit
            flow._retx_marked.add(lo, lo + length * unit)
        if not flow._sacked:
            return
        expected_marks = definitional_loss_marks(flow)
        expected_queue = flow._retx_queue.copy()
        expected_marked = flow._retx_marked.copy()
        for start, stop in expected_marks:
            expected_queue.add(start, stop)
            expected_marked.add(start, stop)

        flow._mark_losses(now=1.0)

        assert flow._retx_queue == expected_queue
        assert flow._retx_marked == expected_marked
        assert flow.fast_retransmits == (1 if expected_marks else 0)
        assert flow.in_recovery == bool(expected_marks)


class TestPipeAccounting:
    def test_outstanding_excludes_sacked_and_marked(self):
        sim, topo, flow, owner = established_flow()
        flow.write(b"d" * 10_000)
        sim.run(until=0.001)
        raw = flow.snd_nxt - flow.snd_una
        flow._sacked.add(2001, 3001)
        assert flow.bytes_outstanding == raw - 1000
        flow._retx_queue.add(1, 1001)
        assert flow.bytes_outstanding == raw - 2000


class TestTlpArming:
    def test_tlp_timer_armed_with_outstanding_data(self):
        sim, topo, flow, owner = established_flow()
        flow.write(b"d" * 3000)
        assert flow._tlp_timer is not None

    def test_tlp_not_armed_without_rtt_sample(self):
        sim, topo, flow, owner = make_flow()
        flow.state = FlowState.ESTABLISHED
        flow.peer_window_edge = 10**9
        flow.write(b"d" * 3000)
        assert flow._tlp_timer is None

    def test_tlp_probe_fires_and_is_single_shot(self):
        sim, topo, flow, owner = established_flow()
        topo.forward_links[0].set_loss_rate(1.0)  # everything dies
        flow.write(b"d" * 3000)
        sim.run(until=flow._tlp_interval() + 0.01)
        assert flow.tlp_probes == 1
        sim.run(until=flow._tlp_interval() * 3)
        assert flow.tlp_probes == 1  # no further probes before RTO

    def test_rto_follows_failed_tlp(self):
        sim, topo, flow, owner = established_flow()
        topo.forward_links[0].set_loss_rate(1.0)
        flow.write(b"d" * 3000)
        sim.run(until=2.0)
        assert owner.rtos >= 1
        assert flow.potentially_failed
