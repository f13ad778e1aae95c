"""TCP/MPTCP endpoint configuration."""

from __future__ import annotations

from dataclasses import dataclass

#: TLS 1.2 handshake flight sizes in stream bytes (client hello; server
#: hello + certificate chain; client key exchange + finished; server
#: change-cipher-spec + finished).  Two full round trips on top of the
#: TCP handshake, as in the paper's HTTPS baseline (§4.2).
TLS_MESSAGE_SIZES = {
    "client_hello": 250,
    "server_hello": 3000,
    "client_finished": 350,
    "server_finished": 300,
}

#: TLS 1.3 collapses the exchange into one round trip: ClientHello with
#: key share; ServerHello + EncryptedExtensions + Certificate +
#: Finished; client Finished.  (The §4.2 "emerging TLS 1.3" case.)
TLS13_MESSAGE_SIZES = {
    "client_hello": 300,
    "server_flight": 3000,
    "client_finished": 100,
}


@dataclass
class TcpConfig:
    """Configuration of a TCP or MPTCP endpoint.

    Defaults mirror the paper's baseline: Linux 4.x TCP with CUBIC,
    SACK, a 16 MB maximum receive window, and (for MPTCP) the
    default lowest-RTT scheduler with OLIA coupling.
    """

    #: Maximum segment payload size.
    mss: int = 1400

    #: Congestion control for single-path TCP.
    cc_algorithm: str = "cubic"
    #: Coupled controller for MPTCP.
    multipath_cc: str = "olia"

    #: Initial / maximum receive window (connection level).
    initial_receive_window: int = 3 * 16 * 1024
    max_receive_window: int = 16 * 1024 * 1024
    window_autotune: bool = True

    #: Maximum SACK blocks per ACK (the TCP option space limit the
    #: paper contrasts with QUIC's 256 ACK ranges).
    max_sack_blocks: int = 3

    #: Model the TLS exchange before app data.
    use_tls: bool = True
    #: TLS version: "1.2" costs 2 RTTs, "1.3" costs 1 RTT (the paper's
    #: §4.2 notes the emerging TLS 1.3 would shrink the handshake gap).
    tls_version: str = "1.2"
    #: TCP Fast Open (RFC 7413): carry the first client flight on the
    #: SYN, removing the 3WHS round trip for repeat connections.
    fast_open: bool = False

    #: Loss detection / timers.
    dupack_threshold: int = 3
    min_rto: float = 0.2
    max_rto: float = 60.0
    #: Linux initial RTO (RFC 6298).
    initial_rto: float = 1.0
    #: Delayed-ACK interval.
    delayed_ack: float = 0.025

    #: MPTCP: opportunistic retransmission and penalisation (ORP).
    enable_orp: bool = True
    #: MPTCP: reinject a failed subflow's outstanding data elsewhere.
    reinject_on_rto: bool = True
    #: MPTCP scheduler name ('lowest_rtt', 'round_robin' or 'backup').
    scheduler: str = "lowest_rtt"
