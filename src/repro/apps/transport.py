"""A uniform transport facade over TCP, MPTCP, QUIC and MPQUIC.

Applications see a byte-stream interface:

* ``send(data, fin)`` — write application data;
* ``on_data(data, fin)`` — receive callback;
* ``on_established`` — the (secure) handshake completed.

QUIC-family endpoints map this onto a single data stream; stream
multiplexing remains available on the native objects for tests that
need it.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Optional, Tuple

from repro.core.connection import MultipathQuicConnection
from repro.mptcp.connection import MptcpConnection
from repro.netsim.engine import Simulator
from repro.netsim.topology import TwoPathTopology
from repro.obs.events import Tracer
from repro.quic.config import QuicConfig
from repro.quic.connection import QuicConnection
from repro.tcp.config import TcpConfig
from repro.tcp.connection import TcpConnection

#: Protocols the experiment harness understands.
PROTOCOLS = ("tcp", "mptcp", "quic", "mpquic")


def _fresh_quic_config(template: Optional[QuicConfig]) -> QuicConfig:
    """A private config instance for one endpoint.

    Endpoints mutate their config (window autotuning), so client and
    server must not share one object.  ``QuicConfig`` holds only scalar
    fields, so a flat dataclass copy suffices — ``copy.deepcopy`` here
    was one of the hottest per-connection allocations in sweep profiles.
    """
    return replace(template) if template is not None else QuicConfig()


class TransportEndpoint:
    """Protocol-agnostic endpoint wrapper."""

    def __init__(self, protocol: str, connection) -> None:
        self.protocol = protocol
        self.connection = connection
        self.on_established: Optional[Callable[[], None]] = None
        self.on_data: Optional[Callable[[bytes, bool], None]] = None
        self._stream_id: Optional[int] = None
        if protocol in ("quic", "mpquic"):
            connection.on_established = self._established
            connection.on_stream_data = self._quic_data
        else:
            connection.on_established = self._established
            connection.on_app_data = self._tcp_data

    # -- callbacks -----------------------------------------------------

    def _established(self) -> None:
        if self.on_established:
            self.on_established()

    def _quic_data(self, stream_id: int, data: bytes, fin: bool) -> None:
        if self._stream_id is None:
            self._stream_id = stream_id
        if self.on_data:
            self.on_data(data, fin)

    def _tcp_data(self, data: bytes, fin: bool) -> None:
        if self.on_data:
            self.on_data(data, fin)

    # -- actions ---------------------------------------------------------

    def connect(self, initial_interface: int = 0) -> None:
        """Client: start the handshake."""
        if self.protocol in ("quic", "mpquic"):
            self.connection.connect(initial_interface=initial_interface)
        else:
            self.connection.connect()

    def send(self, data: bytes, fin: bool = False) -> None:
        """Write application data on the (single) app stream."""
        if self.protocol in ("quic", "mpquic"):
            if self._stream_id is None:
                self._stream_id = self.connection.open_stream()
            self.connection.send_stream_data(self._stream_id, data, fin)
        else:
            self.connection.send_app_data(data, fin)

    @property
    def established(self) -> bool:
        if self.protocol in ("quic", "mpquic"):
            return self.connection.established
        return self.connection.secure_established

    @property
    def smoothed_rtt(self) -> float:
        return self.connection.smoothed_rtt


def make_client_server(
    protocol: str,
    sim: Simulator,
    topology: TwoPathTopology,
    initial_interface: int = 0,
    trace: Optional[Tracer] = None,
    quic_config: Optional[QuicConfig] = None,
    tcp_config: Optional[TcpConfig] = None,
) -> Tuple[TransportEndpoint, TransportEndpoint]:
    """Instantiate a client/server endpoint pair for ``protocol``.

    Single-path protocols are pinned to ``initial_interface``; the
    multipath ones start there and then open every other path.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}; pick from {PROTOCOLS}")
    if protocol == "quic":
        client = QuicConnection(
            sim, topology.client, "client", _fresh_quic_config(quic_config), trace
        )
        server = QuicConnection(
            sim, topology.server, "server", _fresh_quic_config(quic_config), trace
        )
    elif protocol == "mpquic":
        client = MultipathQuicConnection(
            sim, topology.client, "client", _fresh_quic_config(quic_config), trace,
        )
        server = MultipathQuicConnection(
            sim, topology.server, "server", _fresh_quic_config(quic_config), trace,
        )
    elif protocol == "tcp":
        client = TcpConnection(
            sim, topology.client, "client", tcp_config or TcpConfig(), trace,
            interface_index=initial_interface,
        )
        server = TcpConnection(
            sim, topology.server, "server", tcp_config or TcpConfig(), trace,
            interface_index=initial_interface,
        )
    else:  # mptcp
        client = MptcpConnection(
            sim, topology.client, "client", tcp_config or TcpConfig(), trace,
            initial_interface=initial_interface,
        )
        server = MptcpConnection(
            sim, topology.server, "server", tcp_config or TcpConfig(), trace,
            initial_interface=initial_interface,
        )
    return (
        TransportEndpoint(protocol, client),
        TransportEndpoint(protocol, server),
    )
