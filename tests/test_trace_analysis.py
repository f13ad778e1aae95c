"""Trace-driven behavioural tests: assert on *how* protocols behaved,
not just the outcome, using the typed event trace."""


from repro.core.connection import MultipathQuicConnection
from repro.netsim.engine import Simulator
from repro.netsim.topology import PathConfig, TwoPathTopology
from repro.obs import Tracer
from repro.quic.config import QuicConfig
from repro.quic.connection import PathLiveness

from tests.test_obs_events import traced_transfer


class TestTraceAnalysis:
    def test_packet_numbers_monotonic_per_path(self):
        trace, client, server, done = traced_transfer(
            [PathConfig(10, 30, 60), PathConfig(10, 30, 60)], size=500_000
        )
        for host in ("client", "server"):
            for path_id in (0, 1):
                pns = [
                    ev.data["packet_number"]
                    for ev in trace.events_of(
                        name="packet_sent", host=host, path_id=path_id
                    )
                ]
                assert pns == sorted(pns)
                assert len(pns) == len(set(pns))  # never reused (nonce rule)

    def test_both_paths_carry_traffic(self):
        trace, *_ = traced_transfer(
            [PathConfig(10, 30, 60), PathConfig(10, 30, 60)], size=500_000
        )
        sends_p0 = trace.events_of(name="packet_sent", host="server", path_id=0)
        sends_p1 = trace.events_of(name="packet_sent", host="server", path_id=1)
        assert len(sends_p0) > 50 and len(sends_p1) > 50

    def test_no_sends_after_completion_settles(self):
        trace, client, server, done = traced_transfer(
            [PathConfig(10, 30, 60), PathConfig(10, 30, 60)], size=500_000
        )
        finish = done["t"]
        # After the final ACKs drain (a couple of RTTs), silence.
        assert trace.events_of(name="packet_sent", t_min=finish + 0.5) == []

    def test_tlp_events_appear_on_dead_path(self):
        sim = Simulator()
        topo = TwoPathTopology(
            sim, [PathConfig(10, 30, 60), PathConfig(10, 30, 60)], seed=1
        )
        trace = Tracer()
        client = MultipathQuicConnection(sim, topo.client, "client", QuicConfig(), trace)
        server = MultipathQuicConnection(sim, topo.server, "server", QuicConfig(), trace)
        state = {}

        def osd(sid, data, fin):
            if sid not in state:
                state[sid] = True
                server.send_stream_data(sid, b"t" * 2_000_000, fin=True)

        server.on_stream_data = osd
        client.on_stream_data = lambda sid, d, fin: None
        client.on_established = lambda: client.send_stream_data(
            client.open_stream(), b"GET", fin=True
        )
        client.connect()
        sim.run(until=0.4)
        topo.set_path_loss(0, 100.0)
        sim.run(until=3.0)
        # The sender probed the dead path before giving up on it (TLP);
        # then either its own RTO or the peer's PATHS warning marked the
        # path potentially failed and reinjected the in-flight window
        # onto the surviving path — no per-packet RTO wait.
        assert trace.events_of(name="tail_loss_probe", host="server", path_id=0)
        assert server.paths[0].liveness is not PathLiveness.ACTIVE
        assert server.stats.reinjected_bytes > 0
