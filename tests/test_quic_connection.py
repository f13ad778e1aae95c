"""End-to-end tests of the single-path QUIC connection."""

import pytest

from repro.netsim.engine import Simulator
from repro.netsim.topology import PathConfig, TwoPathTopology
from repro.obs import Tracer
from repro.quic.config import QuicConfig
from repro.quic.connection import QuicConnection

from tests.helpers import TWO_CLEAN_PATHS, run_transfer


def make_pair(paths=None, seed=1, config=None, trace=None):
    sim = Simulator()
    topo = TwoPathTopology(sim, paths or [PathConfig(10, 40, 50)], seed=seed)
    client = QuicConnection(sim, topo.client, "client", config or QuicConfig(), trace)
    server = QuicConnection(sim, topo.server, "server", config or QuicConfig(), trace)
    return sim, topo, client, server


class TestHandshake:
    def test_one_rtt_handshake(self):
        sim, topo, client, server = make_pair([PathConfig(10, 40, 50)])
        established = {}
        client.on_established = lambda: established.update(t=sim.now)
        client.connect()
        sim.run(until=1.0)
        assert client.established and server.established
        # 1 RTT plus serialization of CHLO/SHLO: well under 2 RTT.
        assert 0.04 <= established["t"] < 0.08

    def test_server_established_on_chlo(self):
        sim, topo, client, server = make_pair([PathConfig(10, 40, 50)])
        client.connect()
        sim.run(until=0.025)  # CHLO delivered after half RTT
        assert server.established
        assert not client.established

    def test_chlo_loss_recovered_by_rto(self):
        paths = [PathConfig(10, 40, 50)]
        sim = Simulator()
        topo = TwoPathTopology(sim, paths, seed=1)
        client = QuicConnection(sim, topo.client, "client", QuicConfig())
        QuicConnection(sim, topo.server, "server", QuicConfig())
        topo.forward_links[0].set_loss_rate(1.0)
        client.connect()
        sim.run(until=0.3)
        topo.forward_links[0].set_loss_rate(0.0)  # path heals
        sim.run(until=2.0)
        assert client.established  # retransmitted CHLO got through

    def test_server_advertises_addresses(self):
        sim, topo, client, server = make_pair(TWO_CLEAN_PATHS)
        client.connect()
        sim.run(until=1.0)
        assert set(client.peer_addresses) == set(topo.server.addresses)

    def test_rtt_sample_from_handshake(self):
        sim, topo, client, server = make_pair([PathConfig(10, 40, 50)])
        client.connect()
        sim.run(until=1.0)
        assert client.paths[0].rtt.has_sample
        assert client.paths[0].rtt.smoothed == pytest.approx(0.04, rel=0.3)


class TestDataTransfer:
    def test_download_completes_with_correct_size(self):
        result = run_transfer("quic", [PathConfig(10, 40, 50)], file_size=300_000)
        assert result.ok
        assert result.app.bytes_received == 300_000

    def test_transfer_time_close_to_link_limit(self):
        size = 1_000_000
        result = run_transfer("quic", [PathConfig(10, 40, 50)], file_size=size)
        floor = size * 8 / 10e6  # pure serialization
        assert floor < result.transfer_time < floor * 1.6

    def test_data_integrity_under_loss(self):
        # The app sends 'x' * N; byte count plus FIN-complete reassembly
        # guarantee content integrity through the Reassembler layer.
        result = run_transfer(
            "quic",
            [PathConfig(5, 30, 50, loss_percent=3.0)],
            file_size=200_000,
        )
        assert result.ok
        assert result.app.bytes_received == 200_000

    def test_retransmissions_happen_under_loss(self):
        result = run_transfer(
            "quic", [PathConfig(5, 30, 50, loss_percent=2.0)], file_size=300_000
        )
        server_stats = result.server.connection.stats
        assert server_stats.stream_bytes_retransmitted > 0
        assert server_stats.packets_lost > 0

    def test_no_loss_means_no_retransmission_without_bufferbloat(self):
        # Large queue, tiny transfer: nothing should be lost.
        result = run_transfer(
            "quic", [PathConfig(10, 40, 500)], file_size=100_000
        )
        assert result.server.connection.stats.stream_bytes_retransmitted == 0

    def test_flow_control_limits_respected(self):
        cfg = QuicConfig(
            initial_connection_window=20_000,
            initial_stream_window=10_000,
            max_connection_window=50_000,
            max_stream_window=30_000,
        )
        result = run_transfer(
            "quic", [PathConfig(10, 20, 100)], file_size=200_000,
            quic_config=cfg,
        )
        assert result.ok  # window updates kept it moving

    def test_bidirectional_streams(self):
        sim, topo, client, server = make_pair([PathConfig(10, 40, 50)])
        got = {}
        server.on_stream_data = (
            lambda sid, data, fin: got.setdefault("server", bytearray()).extend(data)
        )
        client.on_stream_data = (
            lambda sid, data, fin: got.setdefault("client", bytearray()).extend(data)
        )

        def client_go():
            sid = client.open_stream()
            client.send_stream_data(sid, b"c" * 5000, fin=True)
            sid2 = server.open_stream()
            server.send_stream_data(sid2, b"s" * 7000, fin=True)

        client.on_established = client_go
        client.connect()
        sim.run(until=2.0)
        assert bytes(got["server"]) == b"c" * 5000
        assert bytes(got["client"]) == b"s" * 7000

    def test_multiple_streams_multiplexed(self):
        sim, topo, client, server = make_pair([PathConfig(10, 40, 50)])
        received = {}

        def on_server_data(sid, data, fin):
            received.setdefault(sid, 0)
            received[sid] += len(data)

        server.on_stream_data = on_server_data

        def go():
            for i in range(3):
                sid = client.open_stream()
                client.send_stream_data(sid, bytes([i]) * 10_000, fin=True)

        client.on_established = go
        client.connect()
        sim.run(until=5.0)
        assert sorted(received.values()) == [10_000, 10_000, 10_000]
        assert len(received) == 3

    def test_stream_fully_acked(self):
        sim, topo, client, server = make_pair([PathConfig(10, 40, 50)])

        def go():
            sid = client.open_stream()
            client.send_stream_data(sid, b"z" * 1000, fin=True)

        client.on_established = go
        client.connect()
        sim.run(until=2.0)
        assert client.stream_fully_acked(1)

    def test_close_stops_traffic(self):
        sim, topo, client, server = make_pair([PathConfig(10, 40, 50)])
        client.connect()
        sim.run(until=1.0)
        client.close()
        sent_before = server.stats.packets_received
        sim.run(until=2.0)
        assert client.closed
        # At most the in-flight CONNECTION_CLOSE arrives afterwards.
        assert server.stats.packets_received <= sent_before + 1
        assert server.closed


class TestQuicSinglePathUsesOnePath:
    def test_second_interface_untouched(self):
        result = run_transfer("quic", TWO_CLEAN_PATHS, file_size=200_000)
        assert result.ok
        fwd1 = result.topology.forward_links[1].stats
        ret1 = result.topology.return_links[1].stats
        assert fwd1.datagrams_sent == 0
        assert ret1.datagrams_sent == 0

    def test_initial_interface_selection(self):
        result = run_transfer(
            "quic", TWO_CLEAN_PATHS, file_size=200_000, initial_interface=1
        )
        assert result.ok
        assert result.topology.forward_links[0].stats.datagrams_sent == 0


class TestTrace:
    def test_trace_records_send_and_recv(self):
        trace = Tracer()
        sim, topo, client, server = make_pair(trace=trace)
        client.connect()
        sim.run(until=1.0)
        assert trace.events_of(name="packet_sent", host="client")
        assert trace.events_of(name="packet_received", host="server")
