"""Unit tests for MPTCP DSS mapping bookkeeping and the path manager."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.path_manager import PathManager
from repro.mptcp.connection import MptcpConnection, _Mapping
from repro.netsim.engine import Simulator
from repro.netsim.topology import PathConfig, TwoPathTopology
from repro.core.connection import MultipathQuicConnection
from repro.quic.config import QuicConfig
from repro.tcp.config import TcpConfig


class TestMapping:
    def test_lookup_inside_chunks(self):
        m = _Mapping()
        m.add(1, 0, 1000)      # subflow seq 1..1001 -> dsn 0..1000
        m.add(1001, 5000, 500)  # subflow seq 1001..1501 -> dsn 5000..5500
        assert m.lookup(1) == (1, 0, 1000)
        assert m.lookup(1000) == (1, 0, 1000)
        assert m.lookup(1001) == (1001, 5000, 500)
        assert m.lookup(1500) == (1001, 5000, 500)

    def test_lookup_outside_returns_none(self):
        m = _Mapping()
        m.add(100, 0, 50)
        assert m.lookup(99) is None
        assert m.lookup(150) is None

    def test_lookup_empty(self):
        assert _Mapping().lookup(5) is None

    def test_dsn_ranges_bound(self):
        m = _Mapping()
        m.add(1, 0, 10)
        m.add(11, 40, 5)
        assert m.dsn_ranges_bound() == [(0, 10), (40, 45)]

    def test_reinjected_chunk_creates_second_mapping(self):
        # The same DSN range can be bound twice (original + reinjection).
        m = _Mapping()
        m.add(1, 0, 10)
        m.add(11, 0, 10)  # reinjection of dsn [0, 10)
        assert m.lookup(1)[1] == 0
        assert m.lookup(11)[1] == 0


def linear_scan_holder(conn, dsn):
    """``_holder_of`` by definition: walk every mapping entry of every
    subflow; the last interface (in order) that ever held ``dsn`` wins."""
    best = None
    for iface, mapping in conn._mappings.items():
        if any(m_dsn <= dsn < m_dsn + length
               for _sf, m_dsn, length in mapping.entries):
            best = conn.subflows[iface]
    return best


class TestHolderIndex:
    DATA = 4000

    @given(st.lists(
        st.tuples(
            st.sampled_from(["new", "reinject", "orp"]),
            st.integers(0, 2),       # subflow
            st.integers(0, 3999),    # where a reinjection / DATA_UNA sits
            st.integers(1, 300),     # chunk length
        ),
        max_size=40,
    ))
    @settings(max_examples=150, deadline=None)
    def test_index_answers_like_the_linear_scan(self, ops):
        sim = Simulator()
        topo = TwoPathTopology(sim, [PathConfig(10, 30, 50)] * 3, seed=1)
        conn = MptcpConnection(sim, topo.server, "server", TcpConfig(mss=300))
        conn._dsn_buf = bytearray(self.DATA)
        for op, iface, where, length in ops:
            flow = conn.subflows[iface]
            if op == "new":  # fresh data, in DSN order
                start, stop = conn._dsn_next, min(conn._dsn_next + length, self.DATA)
                conn._dsn_next = stop
            elif op == "reinject":  # any earlier range, any boundaries
                start, stop = where, min(where + length, self.DATA)
            else:  # ORP: one MSS at an arbitrary DATA_UNA
                start, stop = where, min(where + conn.config.mss, self.DATA)
            if stop > start:
                conn._bind_chunk(flow, start, stop)
        for dsn in range(-1, self.DATA + 1):
            assert conn._holder_of(dsn) is linear_scan_holder(conn, dsn), dsn


class TestPathManager:
    def make_connection(self, role="client"):
        sim = Simulator()
        topo = TwoPathTopology(
            sim,
            [PathConfig(10, 30, 50), PathConfig(10, 30, 50)],
            seed=1,
        )
        host = topo.client if role == "client" else topo.server
        return MultipathQuicConnection(sim, host, role, QuicConfig()), topo

    def test_client_path_ids_are_odd(self):
        conn, _ = self.make_connection("client")
        pm = conn.path_manager
        assert pm.next_path_id() == 1
        assert pm.next_path_id() == 3
        assert pm.next_path_id() == 5

    def test_server_path_ids_are_even(self):
        conn, _ = self.make_connection("server")
        pm = conn.path_manager
        assert pm.next_path_id() == 2
        assert pm.next_path_id() == 4

    def test_server_does_not_open_paths(self):
        conn, _ = self.make_connection("server")
        conn.path_manager.on_handshake_complete()
        assert conn.paths == {}

    def test_usable_interfaces_respect_up_flag(self):
        conn, topo = self.make_connection("client")
        topo.client.interfaces[1].up = False
        assert conn.path_manager.usable_interface_indices() == [0]
