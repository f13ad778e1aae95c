"""End-to-end tests of MPTCP scheduler variants and DSS integrity."""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mptcp.connection import MptcpConnection
from repro.mptcp.scheduler import LowestRttSubflowScheduler
from repro.netsim.engine import Simulator
from repro.netsim.topology import PathConfig, TwoPathTopology
from repro.tcp.config import TcpConfig

from tests.helpers import run_transfer


class TestRoundRobinSubflows:
    PATHS = [PathConfig(10, 30, 60), PathConfig(10, 30, 60)]

    def test_round_robin_completes_and_balances(self):
        cfg = TcpConfig(scheduler="round_robin")
        result = run_transfer(
            "mptcp", self.PATHS, file_size=1_000_000, tcp_config=cfg
        )
        assert result.ok
        sent = result.server.connection.bytes_sent_per_subflow()
        low, high = sorted(sent.values())
        # Equal paths, alternating chunks: close to an even split.
        assert low > high * 0.6

    def test_round_robin_on_heterogeneous_paths_still_works(self):
        cfg = TcpConfig(scheduler="round_robin")
        result = run_transfer(
            "mptcp",
            [PathConfig(10, 20, 60), PathConfig(2, 100, 100)],
            file_size=500_000,
            tcp_config=cfg,
        )
        assert result.ok


def _fake_subflow(index, established, room, failed, sampled, srtt):
    return SimpleNamespace(
        interface_index=index,
        established=established,
        can_take_data=lambda: established and room,
        potentially_failed=failed,
        rtt=SimpleNamespace(has_sample=sampled, smoothed=srtt),
    )


def usable_then_min(subflows):
    """The lowest-RTT choice as the docs state it: filter to usable
    subflows, then ``min`` over the RTT-sampled ones."""
    ready = [f for f in subflows if f.established and f.can_take_data()]
    candidates = [f for f in ready if not f.potentially_failed] or ready
    if not candidates:
        return None
    with_rtt = [f for f in candidates if f.rtt.has_sample]
    if with_rtt:
        return min(with_rtt, key=lambda f: (f.rtt.smoothed, f.interface_index))
    return candidates[0]


class TestLowestRttOnePassEquivalence:
    @given(st.lists(
        st.tuples(
            st.booleans(), st.booleans(), st.booleans(), st.booleans(),
            st.sampled_from([0.01, 0.02, 0.02, 0.05, 0.3]),  # ties on srtt
        ),
        max_size=5,
    ), st.randoms(use_true_random=False))
    @settings(max_examples=500, deadline=None)
    def test_same_choice_and_tie_break(self, states, rng):
        order = list(range(len(states)))
        rng.shuffle(order)  # list order need not be interface order
        subflows = [_fake_subflow(i, *state) for i, state in zip(order, states)]
        chosen = LowestRttSubflowScheduler().select(subflows)
        assert chosen is usable_then_min(subflows)
        # A dict view (what MptcpConnection passes) works like a list.
        by_index = {f.interface_index: f for f in subflows}
        assert LowestRttSubflowScheduler().select(by_index.values()) is chosen


class TestDssIntegrity:
    def test_patterned_payload_with_loss_and_reinjection(self):
        """Reinjected chunks create duplicate DSS mappings; the
        connection-level reassembly must still produce exact bytes."""
        sim = Simulator()
        topo = TwoPathTopology(
            sim,
            [
                PathConfig(5, 25, 50, loss_percent=2.0),
                PathConfig(1, 120, 100, loss_percent=2.0),
            ],
            seed=5,
        )
        cfg = TcpConfig(
            initial_receive_window=40_000, max_receive_window=80_000
        )
        client = MptcpConnection(sim, topo.client, "client", cfg)
        server = MptcpConnection(sim, topo.server, "server", TcpConfig(
            initial_receive_window=40_000, max_receive_window=80_000
        ))
        payload = bytes((i * 31 + 7) % 253 for i in range(400_000))
        received = bytearray()
        state, done = {}, {}

        def osd(data, fin):
            if "s" not in state:
                state["s"] = True
                server.send_app_data(payload, fin=True)

        server.on_app_data = osd

        def ocd(data, fin):
            received.extend(data)
            if fin:
                done["t"] = sim.now

        client.on_app_data = ocd
        client.on_established = lambda: client.send_app_data(b"GET")
        client.connect()
        ok = sim.run_until(lambda: "t" in done, timeout=600.0)
        assert ok
        assert bytes(received) == payload

    def test_data_fin_on_exact_chunk_boundary(self):
        # File size a multiple of the MSS: DATA_FIN rides the last full
        # chunk rather than an empty one.
        cfg = TcpConfig(mss=1000)
        result = run_transfer(
            "mptcp",
            [PathConfig(10, 30, 60), PathConfig(10, 30, 60)],
            file_size=50_000,  # 50 chunks exactly
            tcp_config=cfg,
        )
        assert result.ok
        assert result.app.bytes_received == 50_000


class TestSubflowRttVisibility:
    def test_scheduler_sees_karn_noisy_rtt(self):
        """The scheduler-visible srtt is probe-based (few samples),
        while the congestion controller consumed many more per-ack
        samples — the paper's RTT-ambiguity modelling (§4.1)."""
        result = run_transfer(
            "mptcp",
            [PathConfig(10, 30, 60), PathConfig(10, 30, 60)],
            file_size=1_000_000,
        )
        flow = result.server.connection.subflows[0]
        assert flow.rtt.has_sample
        assert flow.rtt.samples_taken < flow.segments_received / 2
