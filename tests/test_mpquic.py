"""End-to-end tests of Multipath QUIC (the paper's contribution)."""

import pytest

from repro.core.connection import MultipathQuicConnection
from repro.core.scheduler import (
    LowestRttScheduler,
    RoundRobinScheduler,
    SinglePathScheduler,
    make_scheduler,
)
from repro.netsim.engine import Simulator
from repro.netsim.topology import PathConfig, TwoPathTopology
from repro.obs import Tracer
from repro.quic.config import QuicConfig
from repro.quic.connection import PathState

from tests.helpers import (
    HETEROGENEOUS_PATHS,
    LOSSY_PATHS,
    TWO_CLEAN_PATHS,
    run_transfer,
)


def make_pair(paths=None, seed=1, config=None, trace=None):
    sim = Simulator()
    topo = TwoPathTopology(sim, paths or TWO_CLEAN_PATHS, seed=seed)
    client = MultipathQuicConnection(
        sim, topo.client, "client", config or QuicConfig(), trace
    )
    server = MultipathQuicConnection(
        sim, topo.server, "server", config or QuicConfig(), trace
    )
    return sim, topo, client, server


class FakePath:
    """Minimal stand-in for PathState in scheduler unit tests."""

    def __init__(self, path_id, srtt=None, can_send=True, failed=False):
        self.path_id = path_id
        self.active = True
        self.potentially_failed = failed
        self._can_send = can_send
        self._srtt = srtt

    @property
    def rtt_known(self):
        return self._srtt is not None

    @property
    def rtt(self):
        class R:
            smoothed = self._srtt or 0.0
        return R()

    def can_send_data(self):
        return self._can_send


class TestSchedulers:
    def test_factory(self):
        assert isinstance(make_scheduler("lowest_rtt"), LowestRttScheduler)
        assert isinstance(make_scheduler("lowest_rtt_no_dup"), LowestRttScheduler)
        assert isinstance(make_scheduler("round_robin"), RoundRobinScheduler)
        assert isinstance(make_scheduler("single"), SinglePathScheduler)
        with pytest.raises(ValueError):
            make_scheduler("bogus")

    def test_lowest_rtt_prefers_fastest(self):
        sched = LowestRttScheduler()
        slow = FakePath(0, srtt=0.1)
        fast = FakePath(1, srtt=0.02)
        assert sched.select_path([slow, fast]) is fast

    def test_lowest_rtt_skips_full_windows(self):
        sched = LowestRttScheduler()
        fast = FakePath(0, srtt=0.02, can_send=False)
        slow = FakePath(1, srtt=0.1)
        assert sched.select_path([fast, slow]) is slow

    def test_lowest_rtt_blocked_when_all_full(self):
        sched = LowestRttScheduler()
        assert sched.select_path([FakePath(0, srtt=0.02, can_send=False)]) is None

    def test_lowest_rtt_unknown_path_as_fallback(self):
        sched = LowestRttScheduler()
        unknown = FakePath(1, srtt=None)
        assert sched.select_path([unknown]) is unknown

    def test_lowest_rtt_prefers_known_over_unknown(self):
        sched = LowestRttScheduler()
        unknown = FakePath(1, srtt=None)
        known = FakePath(0, srtt=0.5)
        assert sched.select_path([unknown, known]) is known

    def test_round_robin_cycles(self):
        sched = RoundRobinScheduler()
        a, b = FakePath(0, srtt=0.1), FakePath(1, srtt=0.1)
        picks = [sched.select_path([a, b]).path_id for _ in range(4)]
        assert picks == [0, 1, 0, 1]

    def test_single_path_sticks_to_zero(self):
        sched = SinglePathScheduler()
        a, b = FakePath(0, srtt=0.1), FakePath(1, srtt=0.01)
        assert sched.select_path([a, b]) is a


class TestPathManagement:
    def test_paths_open_after_handshake(self):
        sim, topo, client, server = make_pair()
        client.connect()
        sim.run(until=1.0)
        assert client.path_count == 2
        # Client-initiated extra paths get odd IDs (paper §3).
        assert set(client.paths) == {0, 1}
        assert server.path_count == 2

    def test_data_in_first_packet_of_new_path(self):
        """MPQUIC can use a new path without any handshake on it."""
        trace = Tracer()
        sim, topo, client, server = make_pair(trace=trace)
        done = {}
        state = {}

        def osd(sid, data, fin):
            if sid not in state:
                state[sid] = True
                server.send_stream_data(sid, b"y" * 500_000, fin=True)

        server.on_stream_data = osd
        client.on_stream_data = lambda sid, d, fin: done.update(t=sim.now) if fin else None
        client.on_established = lambda: client.send_stream_data(
            client.open_stream(), b"GET", fin=True
        )
        client.connect()
        sim.run_until(lambda: "t" in done, timeout=30.0)
        # Packet number 0 on server path 1 carried stream data.
        sends = trace.events_of(name="packet_sent", host="server", path_id=1)
        assert sends and sends[0].data["packet_number"] == 0

    def test_initial_path_interface_choice(self):
        sim, topo, client, server = make_pair(HETEROGENEOUS_PATHS)
        client.connect(initial_interface=1)
        sim.run(until=2.0)
        assert client.paths[0].interface_index == 1
        assert client.paths[1].interface_index == 0

    def test_down_interface_not_opened(self):
        sim, topo, client, server = make_pair()
        topo.client.interfaces[1].up = False
        client.connect()
        sim.run(until=1.0)
        assert client.path_count == 1


class TestAggregation:
    def test_two_paths_beat_one(self):
        single = run_transfer("quic", TWO_CLEAN_PATHS, file_size=2_000_000)
        multi = run_transfer("mpquic", TWO_CLEAN_PATHS, file_size=2_000_000)
        assert multi.ok and single.ok
        assert multi.transfer_time < single.transfer_time * 0.8

    def test_both_paths_carry_data(self):
        result = run_transfer("mpquic", TWO_CLEAN_PATHS, file_size=2_000_000)
        sent = result.server.connection.bytes_sent_per_path()
        assert sent[0] > 200_000 and sent[1] > 200_000

    def test_aggregation_with_losses(self):
        result = run_transfer("mpquic", LOSSY_PATHS, file_size=1_000_000)
        assert result.ok
        assert result.app.bytes_received == 1_000_000

    def test_heterogeneous_paths_work(self):
        result = run_transfer("mpquic", HETEROGENEOUS_PATHS, file_size=1_000_000)
        assert result.ok

    def test_worst_path_first_still_completes_quickly(self):
        best = run_transfer(
            "mpquic", HETEROGENEOUS_PATHS, file_size=1_000_000, initial_interface=0
        )
        worst = run_transfer(
            "mpquic", HETEROGENEOUS_PATHS, file_size=1_000_000, initial_interface=1
        )
        # Paper §4.1: MPQUIC is only mildly affected by the initial path.
        assert worst.transfer_time < best.transfer_time * 1.8


class TestDuplication:
    def test_duplicates_sent_while_rtt_unknown(self):
        trace = Tracer()
        cfg = QuicConfig(duplicate_on_unknown_rtt=True)
        sim, topo, client, server = make_pair(trace=trace, config=cfg)
        state = {}

        def osd(sid, data, fin):
            if sid not in state:
                state[sid] = True
                server.send_stream_data(sid, b"y" * 300_000, fin=True)

        server.on_stream_data = osd
        client.on_established = lambda: client.send_stream_data(
            client.open_stream(), b"GET", fin=True
        )
        client.connect()
        sim.run(until=5.0)
        assert trace.events_of(name="duplicated")

    def test_no_duplicates_when_disabled(self):
        trace = Tracer()
        cfg = QuicConfig(duplicate_on_unknown_rtt=False)
        sim, topo, client, server = make_pair(trace=trace, config=cfg)
        state = {}

        def osd(sid, data, fin):
            if sid not in state:
                state[sid] = True
                server.send_stream_data(sid, b"y" * 300_000, fin=True)

        server.on_stream_data = osd
        client.on_established = lambda: client.send_stream_data(
            client.open_stream(), b"GET", fin=True
        )
        client.connect()
        sim.run(until=5.0)
        assert not trace.events_of(name="duplicated")

    def test_duplicated_data_not_retransmitted_spuriously(self):
        # Duplicates whose twin was acked must not requeue on loss.
        result = run_transfer(
            "mpquic",
            [
                PathConfig(10, 20, 50),
                PathConfig(1, 200, 100, loss_percent=20.0),
            ],
            file_size=300_000,
        )
        assert result.ok


class TestOliaIntegration:
    def test_olia_is_default_for_multipath(self):
        sim, topo, client, server = make_pair()
        client.connect()
        sim.run(until=1.0)
        from repro.cc.olia import OliaPath

        assert all(isinstance(p.cc, OliaPath) for p in client.paths.values())

    def test_uncoupled_cubic_optional(self):
        cfg = QuicConfig(multipath_cc="cubic2")
        sim, topo, client, server = make_pair(config=cfg)
        client.connect()
        sim.run(until=1.0)
        from repro.cc.cubic import Cubic

        assert all(isinstance(p.cc, Cubic) for p in client.paths.values())


class TestPathsFrame:
    def test_failed_path_signalled_to_peer(self):
        sim, topo, client, server = make_pair(
            [PathConfig(10, 30, 50), PathConfig(10, 30, 50)]
        )
        state = {}

        def osd(sid, data, fin):
            if sid not in state:
                state[sid] = True
                server.send_stream_data(sid, b"y" * 50_000, fin=False)

        server.on_stream_data = osd
        client.on_established = lambda: client.send_stream_data(
            client.open_stream(), b"GET", fin=True
        )
        client.connect()
        sim.run(until=2.0)
        # Kill path 0 mid-connection; keep the app chatty via pings from
        # more server data so RTOs can fire.
        topo.set_path_loss(0, 100.0)
        server.send_stream_data(1, b"z" * 200_000, fin=True)
        sim.run(until=8.0)
        assert server.paths[0].potentially_failed or client.paths[0].potentially_failed


# ----------------------------------------------------------------------
# Scheduler invariants under path failure (fault-injection satellites)
# ----------------------------------------------------------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.obs import Tracer  # noqa: E402
from tests.helpers import failure_timeline  # noqa: E402

fake_paths = st.lists(
    st.builds(
        FakePath,
        path_id=st.integers(0, 7),
        srtt=st.one_of(st.none(), st.floats(0.001, 1.0, allow_nan=False)),
        can_send=st.booleans(),
        failed=st.booleans(),
    ),
    min_size=1,
    max_size=6,
)


def usable(paths):
    """The connection's `_usable_paths` policy: prefer non-failed."""
    good = [p for p in paths if p.active and not p.potentially_failed]
    return good or [p for p in paths if p.active]


class TestFailedPathAvoidanceProperty:
    @given(fake_paths)
    @settings(max_examples=300, derandomize=True)
    def test_never_selects_failed_path_while_alternative_lives(self, paths):
        choice = LowestRttScheduler().select_path(usable(paths))
        live = [
            p for p in paths
            if not p.potentially_failed and p.can_send_data()
        ]
        if live:
            assert choice is not None
            assert not choice.potentially_failed
        if choice is not None:
            assert choice.can_send_data()

    @given(fake_paths)
    @settings(max_examples=300, derandomize=True)
    def test_known_rtt_paths_beat_unknown_ones(self, paths):
        candidates = usable(paths)
        choice = LowestRttScheduler().select_path(candidates)
        known_live = [
            p for p in candidates if p.rtt_known and p.can_send_data()
        ]
        if known_live and choice is not None:
            assert choice.rtt_known
            assert choice.rtt.smoothed == min(
                p.rtt.smoothed for p in known_live
            )


class TestSchedulerUnderInjectedFailure:
    def test_no_selection_of_failed_path_after_detection(self):
        """After the server marks path 0 potentially failed, the
        scheduler must route everything onto the surviving path."""
        trace = Tracer()
        result = run_transfer(
            "mpquic", TWO_CLEAN_PATHS, file_size=2_000_000,
            timeline=failure_timeline(0.5, path=0, mode="down"),
            trace=trace, timeout=60.0,
        )
        assert result.ok
        failures = trace.events_of(
            category="path", name="potentially_failed",
            host="server", path_id=0,
        )
        assert failures, "failure was never detected"
        detected = min(e.time for e in failures)
        later_picks = trace.events_of(
            category="scheduler", name="path_selected",
            host="server", t_min=detected,
        )
        assert later_picks, "no scheduling decisions after detection"
        assert all(e.path_id != 0 for e in later_picks if e.time > detected)

    def test_duplication_only_targets_rtt_unknown_paths(self):
        """Every duplicated packet on a path precedes that path's
        validation (first RTT sample) — duplication exists to probe
        paths whose characteristics are unknown, nothing else."""
        trace = Tracer()
        result = run_transfer(
            "mpquic", HETEROGENEOUS_PATHS, file_size=1_000_000,
            trace=trace, timeout=60.0,
        )
        assert result.ok
        dups = trace.events_of(category="scheduler", name="duplicated")
        assert dups, "no duplication observed during path bring-up"
        for host in ("client", "server"):
            validated = {
                e.path_id: e.time
                for e in trace.events_of(
                    category="path", name="validated", host=host
                )
            }
            for dup in dups:
                if dup.host != host:
                    continue
                first_sample = validated.get(dup.path_id)
                if first_sample is not None:
                    assert dup.time <= first_sample

    def test_failed_path_recovers_when_link_returns(self):
        """down -> up: the path is declared failed, then rejoins."""
        from repro.netsim.faults import link_down, link_up, timeline

        trace = Tracer()
        result = run_transfer(
            "mpquic", TWO_CLEAN_PATHS, file_size=4_000_000,
            timeline=timeline(link_down(0.5, 0), link_up(2.5, 0)),
            trace=trace, timeout=120.0,
        )
        assert result.ok
        failed = trace.events_of(category="path", name="potentially_failed",
                                 path_id=0)
        recovered = trace.events_of(category="path", name="recovered",
                                    path_id=0)
        assert failed and recovered
        assert min(e.time for e in recovered) > min(e.time for e in failed)
