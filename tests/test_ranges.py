"""Unit and property tests for repro.util.ranges.RangeSet."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.ranges import RangeSet


class TestRangeSetBasics:
    def test_empty(self):
        rs = RangeSet()
        assert len(rs) == 0
        assert not rs
        assert rs.total == 0
        assert 5 not in rs

    def test_single_add(self):
        rs = RangeSet()
        rs.add(3, 7)
        assert list(rs) == [(3, 7)]
        assert rs.total == 4
        assert 3 in rs and 6 in rs
        assert 2 not in rs and 7 not in rs

    def test_add_value(self):
        rs = RangeSet()
        rs.add_value(10)
        assert list(rs) == [(10, 11)]

    def test_empty_range_ignored(self):
        rs = RangeSet()
        rs.add(5, 5)
        rs.add(7, 3)
        assert not rs

    def test_disjoint_adds_sorted(self):
        rs = RangeSet()
        rs.add(10, 12)
        rs.add(0, 2)
        rs.add(5, 6)
        assert list(rs) == [(0, 2), (5, 6), (10, 12)]

    def test_overlapping_merge(self):
        rs = RangeSet()
        rs.add(0, 5)
        rs.add(3, 8)
        assert list(rs) == [(0, 8)]

    def test_touching_merge(self):
        rs = RangeSet()
        rs.add(0, 5)
        rs.add(5, 8)
        assert list(rs) == [(0, 8)]

    def test_bridging_merge(self):
        rs = RangeSet()
        rs.add(0, 2)
        rs.add(4, 6)
        rs.add(1, 5)
        assert list(rs) == [(0, 6)]

    def test_superset_add(self):
        rs = RangeSet()
        rs.add(2, 3)
        rs.add(5, 6)
        rs.add(0, 10)
        assert list(rs) == [(0, 10)]

    def test_min_max(self):
        rs = RangeSet([(4, 6), (9, 12)])
        assert rs.min == 4
        assert rs.max == 11

    def test_contains_range(self):
        rs = RangeSet([(0, 10)])
        assert rs.contains_range(0, 10)
        assert rs.contains_range(3, 7)
        assert not rs.contains_range(5, 11)
        assert rs.contains_range(5, 5)  # empty range is trivially contained

    def test_intersects(self):
        rs = RangeSet([(5, 10)])
        assert rs.intersects(9, 20)
        assert rs.intersects(0, 6)
        assert not rs.intersects(0, 5)
        assert not rs.intersects(10, 20)

    def test_remove_middle_splits(self):
        rs = RangeSet([(0, 10)])
        rs.remove(3, 6)
        assert list(rs) == [(0, 3), (6, 10)]

    def test_remove_exact(self):
        rs = RangeSet([(0, 10)])
        rs.remove(0, 10)
        assert not rs

    def test_remove_spanning(self):
        rs = RangeSet([(0, 3), (5, 8), (10, 12)])
        rs.remove(2, 11)
        assert list(rs) == [(0, 2), (11, 12)]

    def test_remove_absent_noop(self):
        rs = RangeSet([(5, 8)])
        rs.remove(0, 3)
        assert list(rs) == [(5, 8)]

    def test_first_gap_after(self):
        rs = RangeSet([(0, 5), (8, 10)])
        assert rs.first_gap_after(0) == 5
        assert rs.first_gap_after(5) == 5
        assert rs.first_gap_after(8) == 10
        assert rs.first_gap_after(20) == 20

    def test_descending_ranges_with_limit(self):
        rs = RangeSet([(0, 1), (3, 4), (6, 7), (9, 10)])
        assert rs.descending_ranges() == [(9, 10), (6, 7), (3, 4), (0, 1)]
        assert rs.descending_ranges(limit=2) == [(9, 10), (6, 7)]

    def test_copy_is_independent(self):
        rs = RangeSet([(0, 5)])
        dup = rs.copy()
        dup.add(10, 12)
        assert list(rs) == [(0, 5)]
        assert rs == RangeSet([(0, 5)])
        assert dup != rs


@st.composite
def range_lists(draw):
    n = draw(st.integers(0, 30))
    out = []
    for _ in range(n):
        start = draw(st.integers(0, 200))
        length = draw(st.integers(1, 30))
        out.append((start, start + length))
    return out


class TestRangeSetProperties:
    @given(range_lists())
    @settings(max_examples=200)
    def test_matches_reference_set(self, ranges):
        rs = RangeSet()
        reference = set()
        for start, stop in ranges:
            rs.add(start, stop)
            reference.update(range(start, stop))
        assert rs.total == len(reference)
        for value in range(0, 240):
            assert (value in rs) == (value in reference)

    @given(range_lists(), range_lists())
    @settings(max_examples=100)
    def test_remove_matches_reference(self, adds, removes):
        rs = RangeSet()
        reference = set()
        for start, stop in adds:
            rs.add(start, stop)
            reference.update(range(start, stop))
        for start, stop in removes:
            rs.remove(start, stop)
            reference.difference_update(range(start, stop))
        assert rs.total == len(reference)
        for value in range(0, 240):
            assert (value in rs) == (value in reference)

    @given(range_lists())
    @settings(max_examples=100)
    def test_invariants_sorted_disjoint(self, ranges):
        rs = RangeSet()
        for start, stop in ranges:
            rs.add(start, stop)
        spans = list(rs)
        for start, stop in spans:
            assert start < stop
        for (_, prev_stop), (next_start, _) in zip(spans, spans[1:]):
            assert prev_stop < next_start  # disjoint and non-touching

    @given(range_lists())
    @settings(max_examples=50)
    def test_add_is_idempotent(self, ranges):
        rs = RangeSet()
        for start, stop in ranges:
            rs.add(start, stop)
        snapshot = list(rs)
        for start, stop in ranges:
            rs.add(start, stop)
        assert list(rs) == snapshot

    @given(st.lists(
        st.tuples(
            st.sampled_from(["add", "remove", "copy"]),
            st.integers(0, 200),
            st.integers(0, 30),
        ),
        max_size=40,
    ))
    @settings(max_examples=300)
    def test_total_is_current_after_every_mutation(self, ops):
        """``total`` is maintained, not re-summed: walk add / remove /
        copy and hold it against a brute-force set after each step."""
        rs = RangeSet()
        reference = set()
        for op, start, length in ops:
            if op == "add":
                rs.add(start, start + length)
                reference.update(range(start, start + length))
            elif op == "remove":
                rs.remove(start, start + length)
                reference.difference_update(range(start, start + length))
            else:
                original, rs = rs, rs.copy()
                original.add(start, start + length + 1)  # must not leak
            assert rs.total == len(reference)
            assert rs.total == sum(stop - begin for begin, stop in rs)
        assert RangeSet(list(rs)).total == len(reference)


# ----------------------------------------------------------------------
# AckManager invariants under randomized receive/ack/drop churn
# ----------------------------------------------------------------------

from repro.quic.ackmgr import AckManager  # noqa: E402
from repro.quic.frames import MAX_ACK_RANGES  # noqa: E402


class TestAckManagerChurnInvariants:
    """Drive an AckManager through random packet-arrival histories.

    Invariants (the receiver-side contract the sender's loss detection
    relies on):

    * an ACK never acknowledges a packet number that was not received;
    * neither the stored range set nor any built ACK frame ever exceeds
      ``MAX_ACK_RANGES`` ranges;
    * ``largest_acked`` is the true largest received packet number.
    """

    @given(st.data())
    @settings(max_examples=60, derandomize=True)
    def test_churn(self, data):
        mgr = AckManager(path_id=0)
        received = set()
        forgotten_below = 0
        now = 0.0
        next_pn = 0
        n_ops = data.draw(st.integers(10, 120), label="ops")
        for _ in range(n_ops):
            op = data.draw(
                st.sampled_from(["recv", "drop", "rerecv", "ack", "forget"]),
                label="op",
            )
            now += data.draw(
                st.floats(0.0, 0.05, allow_nan=False), label="dt"
            )
            if op == "recv":
                mgr.on_packet_received(next_pn, now, ack_eliciting=True)
                received.add(next_pn)
                next_pn += 1
            elif op == "drop":
                # The network ate this packet number: the receiver
                # never sees it (a gap the sender must retransmit).
                next_pn += data.draw(st.integers(1, 40), label="gap")
            elif op == "rerecv":
                if received:
                    dup = data.draw(
                        st.sampled_from(sorted(received)), label="dup"
                    )
                    mgr.on_packet_received(dup, now, ack_eliciting=True)
            elif op == "ack":
                frame = mgr.build_ack(now)
                if frame is not None:
                    self._check_ack(frame, mgr, received, forgotten_below)
            elif op == "forget":
                if received:
                    cut = data.draw(
                        st.sampled_from(sorted(received)), label="cut"
                    )
                    mgr.forget_below(cut)
                    forgotten_below = max(forgotten_below, cut)
            # Stored state stays bounded no matter the history.
            assert len(mgr.received) <= MAX_ACK_RANGES
        final = mgr.build_ack(now)
        if final is not None:
            self._check_ack(final, mgr, received, forgotten_below)

    @staticmethod
    def _check_ack(frame, mgr, received, forgotten_below):
        assert len(frame.ranges) <= MAX_ACK_RANGES
        acked = set()
        for start, stop in frame.ranges:
            acked.update(range(start, stop))
        # Soundness: everything acknowledged was actually received.
        assert acked <= received
        assert frame.largest_acked == max(received)
        assert frame.largest_acked in acked
        # Completeness: everything received, not yet forgotten and not
        # trimmed out of the bounded range window is re-acknowledged.
        reportable = {p for p in received if p >= forgotten_below}
        if len(mgr.received) < MAX_ACK_RANGES and len(frame.ranges) < MAX_ACK_RANGES:
            assert reportable <= acked


class TestAckManagerRangeBound:
    def test_pathological_alternating_receives_stay_bounded(self):
        mgr = AckManager(path_id=1)
        # Every other packet lost: worst case for range growth.
        for pn in range(0, 4 * MAX_ACK_RANGES, 2):
            mgr.on_packet_received(pn, now=pn * 0.001, ack_eliciting=True)
            assert len(mgr.received) <= MAX_ACK_RANGES
        frame = mgr.build_ack(now=1.0)
        assert len(frame.ranges) == MAX_ACK_RANGES
        # The *highest* ranges are kept: trimming discards old state.
        assert frame.largest_acked == 4 * MAX_ACK_RANGES - 2
        assert min(s for s, _ in frame.ranges) >= 2 * MAX_ACK_RANGES

    def test_trim_never_drops_the_largest_range(self):
        mgr = AckManager(path_id=0)
        pns = list(range(0, 10 * MAX_ACK_RANGES, 3))
        for pn in pns:
            mgr.on_packet_received(pn, now=0.0, ack_eliciting=False)
        assert mgr.received.max == pns[-1]
        assert mgr.largest_received == pns[-1]
