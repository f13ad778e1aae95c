"""Short request/response flows over a recycled pool of host pairs.

The open-loop workload harness (:mod:`repro.experiments.workload`)
launches a new transport connection per arrival.  Building a topology
per flow would be prohibitively expensive, so instead a fixed set of
client/server host pairs (:class:`repro.netsim.bottleneck.ManyFlowTopology`)
is *recycled*: a flow leases a pair, runs one GET-``size``-bytes
exchange over a fresh connection, and releases the pair after a drain
delay that lets stragglers (final ACKs, spurious retransmissions) age
out before the next connection installs its datagram handler on the
same hosts.

:class:`ShortFlow` is the single exchange — a stripped-down
:class:`repro.apps.bulk.BulkTransferApp` with a completion callback
instead of a private ``run()`` loop, because hundreds of short flows
share one simulator.  :class:`HostPairPool` is the lease/drain
machinery.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from repro.apps.transport import TransportEndpoint
from repro.core.connection import MultipathQuicConnection
from repro.mptcp.connection import MptcpConnection
from repro.netsim.engine import Simulator
from repro.netsim.node import Host
from repro.obs.events import Tracer
from repro.quic.config import QuicConfig
from repro.quic.connection import QuicConnection
from repro.tcp.config import TcpConfig
from repro.tcp.connection import TcpConnection


def make_endpoints(
    protocol: str,
    sim: Simulator,
    client_host: Host,
    server_host: Host,
    quic_config: Optional[QuicConfig] = None,
    tcp_config: Optional[TcpConfig] = None,
    trace: Optional[Tracer] = None,
    connection_id: int = 0x1234,
) -> Tuple[TransportEndpoint, TransportEndpoint]:
    """Endpoint pair over explicit hosts (vs. a two-path topology).

    Mirrors :func:`repro.apps.transport.make_client_server` but works
    against any hosts — the workload topology has N pairs, not the
    ``client``/``server`` attributes the facade expects.  A fresh
    ``connection_id`` per flow keeps stray datagrams from a previous
    lease of the same host pair distinguishable in traces.
    """
    from repro.apps.transport import _fresh_quic_config

    if protocol == "quic":
        client = QuicConnection(
            sim, client_host, "client", _fresh_quic_config(quic_config),
            trace, connection_id=connection_id,
        )
        server = QuicConnection(
            sim, server_host, "server", _fresh_quic_config(quic_config),
            trace, connection_id=connection_id,
        )
    elif protocol == "mpquic":
        client = MultipathQuicConnection(
            sim, client_host, "client", _fresh_quic_config(quic_config),
            trace, connection_id=connection_id,
        )
        server = MultipathQuicConnection(
            sim, server_host, "server", _fresh_quic_config(quic_config),
            trace, connection_id=connection_id,
        )
    elif protocol == "tcp":
        client = TcpConnection(
            sim, client_host, "client", tcp_config or TcpConfig(), trace,
        )
        server = TcpConnection(
            sim, server_host, "server", tcp_config or TcpConfig(), trace,
        )
    elif protocol == "mptcp":
        client = MptcpConnection(
            sim, client_host, "client", tcp_config or TcpConfig(), trace,
        )
        server = MptcpConnection(
            sim, server_host, "server", tcp_config or TcpConfig(), trace,
        )
    else:
        raise ValueError(f"unknown protocol {protocol!r}")
    return (
        TransportEndpoint(protocol, client),
        TransportEndpoint(protocol, server),
    )


class ShortFlow:
    """One GET-``size``-bytes exchange with a completion callback."""

    REQUEST = b"GET /flow HTTP/1.1\r\n\r\n"

    def __init__(
        self,
        sim: Simulator,
        client: TransportEndpoint,
        server: TransportEndpoint,
        size: int,
        on_complete: Optional[Callable[["ShortFlow"], None]] = None,
    ) -> None:
        self.sim = sim
        self.client = client
        self.server = server
        self.size = size
        self.on_complete = on_complete
        self.start_time: Optional[float] = None
        self.completion_time: Optional[float] = None
        self.bytes_received = 0
        self._request_seen = False
        client.on_established = self._client_established
        client.on_data = self._client_data
        server.on_data = self._server_data

    def start(self) -> None:
        self.start_time = self.sim.now
        self.client.connect()

    def _client_established(self) -> None:
        self.client.send(self.REQUEST, fin=False)

    def _server_data(self, data: bytes, fin: bool) -> None:
        if not self._request_seen and data:
            self._request_seen = True
            self.server.send(b"x" * self.size, fin=True)

    def _client_data(self, data: bytes, fin: bool) -> None:
        self.bytes_received += len(data)
        if fin and self.completion_time is None:
            self.completion_time = self.sim.now
            if self.on_complete is not None:
                self.on_complete(self)

    def close(self) -> None:
        """Quiesce both endpoints so the host pair can be recycled.

        QUIC-family endpoints send CONNECTION_CLOSE and cancel their
        timers; TCP-family ones just cancel timers (the simulator has
        no FIN handshake to wait out).  Without this, hundreds of
        finished flows keep idle/RTO timers armed and the event loop
        never goes quiet.
        """
        for endpoint in (self.client, self.server):
            conn = endpoint.connection
            if endpoint.protocol in ("quic", "mpquic"):
                if not conn.closed:
                    conn.close()
            else:
                conn.close_timers()

    @property
    def complete(self) -> bool:
        return self.completion_time is not None

    def fct(self) -> float:
        """Seconds from connect to last byte."""
        if self.start_time is None or self.completion_time is None:
            raise RuntimeError("flow has not completed")
        return self.completion_time - self.start_time


class HostPairPool:
    """Leases of (client, server) host pairs with drain-delayed reuse.

    ``acquire()`` hands out a free pair index or ``None`` when every
    pair is leased (the caller decides whether to queue or to model the
    flow at fluid fidelity instead).  ``release()`` returns the pair
    after ``drain_delay`` simulated seconds: a connection's last ACKs
    and late retransmissions are still in flight when the application
    sees its final byte, and a host delivers datagrams to whichever
    connection registered last — the delay lets the network drain
    before a new connection takes over the hosts.
    """

    def __init__(
        self,
        sim: Simulator,
        pairs: List[Tuple[Host, Host]],
        drain_delay: float,
        on_available: Optional[Callable[[], None]] = None,
    ) -> None:
        if drain_delay < 0.0:
            raise ValueError("drain_delay must be non-negative")
        self.sim = sim
        self.pairs = pairs
        self.drain_delay = drain_delay
        #: Called whenever a pair (re-)enters the free list — the hook
        #: a backlogged caller uses to retry, since a released pair only
        #: becomes acquirable after the drain delay, not at release().
        self.on_available = on_available
        self._free: Deque[int] = deque(range(len(pairs)))
        self.leases = 0

    def __len__(self) -> int:
        return len(self.pairs)

    @property
    def available(self) -> int:
        return len(self._free)

    def acquire(self) -> Optional[int]:
        """Lease a pair index, or None when the pool is exhausted."""
        if not self._free:
            return None
        self.leases += 1
        return self._free.popleft()

    def release(self, index: int) -> None:
        """Return a pair to the pool once the drain delay elapses."""
        if self.drain_delay > 0.0:
            self.sim.schedule(self.drain_delay, self._return, index)
        else:
            self._return(index)

    def _return(self, index: int) -> None:
        self._free.append(index)
        if self.on_available is not None:
            self.on_available()
