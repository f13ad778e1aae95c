"""Single-path TCP connection with a TLS 1.2 handshake model (HTTPS).

The paper's baseline is HTTPS over TCP: a 3-way handshake followed by
a 2-RTT TLS 1.2 exchange, so the client's request leaves 3 RTTs after
the SYN — versus 1 RTT for QUIC (§4.2).  TLS flights are modelled as
ordinary stream bytes, so they are congestion-controlled, loss-
recovered and delivered in order exactly like the real thing.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional

from repro.cc import make_controller
from repro.netsim.engine import Simulator
from repro.netsim.node import Datagram, Host
from repro.obs import metrics as _metrics
from repro.obs.events import Tracer
from repro.quic.flowcontrol import ReceiveWindow
from repro.tcp.config import TcpConfig, TLS13_MESSAGE_SIZES, TLS_MESSAGE_SIZES
from repro.tcp.flow import FlowOwner, TcpFlow
from repro.tcp.segment import Segment


class TlsState(enum.Enum):
    """Simplified TLS handshake state machine (1.2 and 1.3 flights)."""

    IDLE = "idle"
    WAIT_CLIENT_HELLO = "wait_client_hello"
    WAIT_SERVER_HELLO = "wait_server_hello"
    WAIT_CLIENT_FINISHED = "wait_client_finished"
    WAIT_SERVER_FINISHED = "wait_server_finished"
    # TLS 1.3 states.
    WAIT_CLIENT_HELLO_13 = "wait_client_hello_13"
    WAIT_SERVER_FLIGHT_13 = "wait_server_flight_13"
    WAIT_CLIENT_FINISHED_13 = "wait_client_finished_13"
    DONE = "done"


class TcpConnection(FlowOwner):
    """One endpoint of a TCP (TLS) connection over a single path."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        role: str,
        config: Optional[TcpConfig] = None,
        trace: Optional[Tracer] = None,
        interface_index: int = 0,
    ) -> None:
        if role not in ("client", "server"):
            raise ValueError("role must be 'client' or 'server'")
        self.sim = sim
        self.host = host
        self.role = role
        self.config = config or TcpConfig()
        self.trace = trace
        cc = make_controller(self.config.cc_algorithm, mss=self.config.mss)
        self.flow = TcpFlow(
            sim, host, interface_index, role, self.config, cc, owner=self,
            mapped_delivery=False, trace=trace, name=f"tcp-{role}",
        )
        host.set_datagram_handler(self._datagram_received)
        self._recv_window = ReceiveWindow(
            self.config.initial_receive_window,
            self.config.max_receive_window,
            autotune=self.config.window_autotune,
        )
        self._last_advertised_edge = 0
        # TLS bookkeeping: bytes of handshake data still expected.  The
        # server expects the ClientHello from the start so TFO data
        # arriving on the SYN is consumed correctly.
        self._tls_state = TlsState.IDLE
        self._tls_bytes_expected = 0
        if role == "server" and self.config.use_tls:
            if self.config.tls_version == "1.3":
                self._tls_state = TlsState.WAIT_CLIENT_HELLO_13
                self._tls_bytes_expected = TLS13_MESSAGE_SIZES["client_hello"]
            else:
                self._tls_state = TlsState.WAIT_CLIENT_HELLO
                self._tls_bytes_expected = TLS_MESSAGE_SIZES["client_hello"]
        self.secure_established = False
        self.established_at: Optional[float] = None
        # App interface.
        self.on_established: Optional[Callable[[], None]] = None
        self.on_app_data: Optional[Callable[[bytes, bool], None]] = None
        self.app_bytes_received = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def connect(self) -> None:
        """Client: start the TCP (and then TLS) handshake.

        With TCP Fast Open the ClientHello is written first so it rides
        the SYN, shaving the 3-way-handshake round trip.
        """
        if self.config.fast_open and self.config.use_tls:
            self._client_send_hello()
        self.flow.connect()

    def send_app_data(self, data: bytes, fin: bool = False) -> None:
        """Write application bytes (only once the TLS handshake is done)."""
        if not self.secure_established:
            raise RuntimeError("connection not yet established")
        self.flow.write(data, fin)

    def all_sent_data_acked(self) -> bool:
        return self.flow.all_data_acked()

    @property
    def smoothed_rtt(self) -> float:
        return self.flow.rtt.smoothed

    # ------------------------------------------------------------------
    # FlowOwner hooks
    # ------------------------------------------------------------------

    def flow_established(self, flow: TcpFlow) -> None:
        if not self.config.use_tls:
            self._secure_done()
            return
        if self.role == "client" and self._tls_state is TlsState.IDLE:
            self._client_send_hello()

    def _client_send_hello(self) -> None:
        if self.config.tls_version == "1.3":
            self._tls_state = TlsState.WAIT_SERVER_FLIGHT_13
            self._tls_bytes_expected = TLS13_MESSAGE_SIZES["server_flight"]
            self.flow.write(b"\x16" * TLS13_MESSAGE_SIZES["client_hello"])
        else:
            self._tls_state = TlsState.WAIT_SERVER_HELLO
            self._tls_bytes_expected = TLS_MESSAGE_SIZES["server_hello"]
            self.flow.write(b"\x16" * TLS_MESSAGE_SIZES["client_hello"])

    def flow_delivered(self, flow: TcpFlow, data: bytes, fin: bool) -> None:
        data = self._consume_tls(data)
        if data or fin:
            self.app_bytes_received += len(data)
            self._account_consumption(len(data))
            if self.on_app_data:
                self.on_app_data(data, fin)

    def _consume_tls(self, data: bytes) -> bytes:
        """Feed stream bytes through the TLS handshake state machine."""
        while data and self._tls_bytes_expected > 0:
            take = min(len(data), self._tls_bytes_expected)
            self._tls_bytes_expected -= take
            self._account_consumption(take)
            data = data[take:]
            if self._tls_bytes_expected == 0:
                self._advance_tls()
        return data

    def _advance_tls(self) -> None:
        sizes = TLS_MESSAGE_SIZES
        if self._tls_state is TlsState.WAIT_CLIENT_HELLO:
            # Server read the ClientHello: answer with hello+certificate.
            self.flow.write(b"\x16" * sizes["server_hello"])
            self._tls_bytes_expected = sizes["client_finished"]
            self._tls_state = TlsState.WAIT_CLIENT_FINISHED
        elif self._tls_state is TlsState.WAIT_CLIENT_FINISHED:
            # Server read the client key exchange + Finished.
            self.flow.write(b"\x16" * sizes["server_finished"])
            self._secure_done()
        elif self._tls_state is TlsState.WAIT_SERVER_HELLO:
            # Client read ServerHello+certificate: send key exchange.
            self.flow.write(b"\x16" * sizes["client_finished"])
            self._tls_bytes_expected = sizes["server_finished"]
            self._tls_state = TlsState.WAIT_SERVER_FINISHED
        elif self._tls_state is TlsState.WAIT_SERVER_FINISHED:
            self._secure_done()
        # -- TLS 1.3 (one round trip) --
        elif self._tls_state is TlsState.WAIT_CLIENT_HELLO_13:
            # Server read the ClientHello: send its whole flight and be
            # ready for application data right away (0.5-RTT send).
            self.flow.write(b"\x16" * TLS13_MESSAGE_SIZES["server_flight"])
            self._tls_bytes_expected = TLS13_MESSAGE_SIZES["client_finished"]
            self._tls_state = TlsState.WAIT_CLIENT_FINISHED_13
            self._secure_done()
        elif self._tls_state is TlsState.WAIT_CLIENT_FINISHED_13:
            pass  # server consumed the client Finished; already secure
        elif self._tls_state is TlsState.WAIT_SERVER_FLIGHT_13:
            # Client read the server flight: send Finished, done.
            self.flow.write(b"\x16" * TLS13_MESSAGE_SIZES["client_finished"])
            self._secure_done()

    def _secure_done(self) -> None:
        if self._tls_state is not TlsState.WAIT_CLIENT_FINISHED_13:
            self._tls_state = TlsState.DONE
        if self.secure_established:
            return
        self.secure_established = True
        self.established_at = self.sim.now
        if self.on_established:
            self.on_established()

    def flow_window_edge(self, flow: TcpFlow) -> int:
        edge = TcpFlow.SEQ_BASE + self._recv_window.advertised_limit
        self._last_advertised_edge = edge
        return edge

    def flow_on_ack(self, flow: TcpFlow, data_ack: Optional[int]) -> None:
        pass

    def flow_on_rto(self, flow: TcpFlow) -> None:
        pass

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _account_consumption(self, n: int) -> None:
        if n <= 0:
            return
        window = self._recv_window
        window.on_data_consumed(n)
        new_limit = window.maybe_update(self.sim.now, self.flow.rtt.smoothed)
        if new_limit is not None:
            # Advertise the wider window with a pure ACK (a window
            # update), as Linux does when the application drains the
            # receive queue.
            self.flow.send_ack()

    def _datagram_received(self, datagram: Datagram, interface_index: int) -> None:
        segment: Segment = datagram.payload
        if interface_index != self.flow.interface_index:
            return  # single-path TCP ignores other interfaces
        if _metrics.METRICS:
            # Re-scope wall time from the delivering link to `tcp`, as
            # QuicConnection.datagram_received does for `quic`.
            _metrics.REGISTRY.enter("tcp")
            try:
                self.flow.segment_received(segment)
            finally:
                _metrics.REGISTRY.exit()
        else:
            self.flow.segment_received(segment)

    def close_timers(self) -> None:
        self.flow.close_timers()
