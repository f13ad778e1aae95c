"""Tunable transport parameters shared by QUIC and MPQUIC endpoints."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class QuicConfig:
    """Configuration of one endpoint.

    The defaults mirror the paper's setup (§4.1): CUBIC congestion
    control for single path, OLIA for multipath, and a maximum receive
    window of 16 MB for both the connection and its streams.
    """

    #: Maximum wire size of one QUIC packet (header + frames), bytes.
    max_packet_size: int = 1350
    #: Maximum segment size used by congestion controllers.
    mss: int = 1300

    #: Congestion controller for single-path connections.  quic-go (and
    #: Chromium) ship CUBIC with 2-connection emulation enabled.
    cc_algorithm: str = "cubic2"
    #: Coupled controller used when multipath is enabled.
    multipath_cc: str = "olia"

    #: Initial / maximum receive windows (connection level).
    initial_connection_window: int = 3 * 16 * 1024
    max_connection_window: int = 16 * 1024 * 1024
    #: Initial / maximum receive windows (per stream).
    initial_stream_window: int = 2 * 16 * 1024
    max_stream_window: int = 16 * 1024 * 1024
    #: Whether receive windows auto-tune upward (quic-go / DRS style).
    window_autotune: bool = True
    #: Application read rate in bits/s (0 = the app consumes instantly).
    #: A positive value makes the endpoint receiver-limited: window
    #: credit is returned at this rate, so flow control throttles the
    #: peer — e.g. video playback or a slow disk.
    app_consume_rate_bps: float = 0.0

    #: Simulation fidelity for this connection's traffic.  ``"packet"``
    #: (the default) runs the full per-packet protocol machinery;
    #: ``"fluid"`` marks the connection as background load to be
    #: modelled analytically by :mod:`repro.netsim.fluid` — orders of
    #: magnitude fewer simulator events, suitable for cross-traffic
    #: whose only job is to occupy a bottleneck while the *measured*
    #: connections stay packet-level.
    fidelity: str = "packet"

    #: Multipath switch: a False value yields plain single-path QUIC.
    enable_multipath: bool = False
    #: Single-path QUIC only: on a potentially-failed path, migrate the
    #: connection to another interface (QUIC connection migration — the
    #: "hard handover" the paper contrasts with MPQUIC's seamless one).
    migrate_on_failure: bool = False
    #: Send a PING after this many seconds without transmitting (0 =
    #: disabled).  Keeps the RTO machinery armed on idle directions so
    #: a dead path is noticed even by a pure receiver.
    keepalive_interval: float = 0.0
    #: Packet scheduler name for multipath ('lowest_rtt', 'round_robin',
    #: 'lowest_rtt_no_dup', 'single', 'redundant').
    scheduler: str = "lowest_rtt"
    #: Send WINDOW_UPDATE frames on every active path (paper §3).  Can
    #: be disabled for the ablation study.
    window_update_all_paths: bool = True
    #: Duplicate traffic onto paths whose RTT is still unknown (§3).
    duplicate_on_unknown_rtt: bool = True
    #: Periodically exchange PATHS frames so both hosts keep "a global
    #: view about the active paths' performances" (§3); 0 = only on
    #: failure events.
    paths_frame_interval: float = 0.0

    #: Crypto handshake message sizes (bytes of CHLO / SHLO payload).
    chlo_size: int = 730
    shlo_size: int = 730
    #: 0-RTT resumption: the client holds cached server credentials and
    #: sends application data together with its CHLO (gQUIC supported
    #: this for repeat connections; the paper measures the 1-RTT case).
    zero_rtt: bool = False

    #: Path liveness probing (PATH_CHALLENGE / PATH_RESPONSE): interval
    #: before the first probe after a path turns potentially failed.
    probe_interval_initial: float = 0.2
    #: Ceiling of the exponential probe backoff.
    probe_interval_max: float = 2.0
    #: Multiplier applied to the probe interval after every probe.
    probe_backoff: float = 2.0
    #: Unanswered probes before the path is abandoned for good.
    path_max_probes: int = 6

    #: Connection lifetime limits: close with IdleTimeoutError after
    #: this many seconds without receiving anything (0 = disabled).
    idle_timeout: float = 0.0
    #: Abort with HandshakeTimeoutError when the handshake has not
    #: completed within this many seconds (0 = disabled).
    handshake_timeout: float = 0.0
    #: Draining period after close, in multiples of the current RTO
    #: (RFC 9000 §10.2 uses 3·PTO): how long a closed endpoint keeps
    #: answering stray peer packets with the final CONNECTION_CLOSE.
    drain_period_rtos: float = 3.0

    #: Loss detection: reordering threshold in packets.
    packet_reordering_threshold: int = 3
    #: Loss detection: time threshold as a fraction of RTT.
    time_reordering_fraction: float = 1.125
    #: Bounds for the retransmission timeout.
    min_rto: float = 0.2
    max_rto: float = 60.0
    #: RTO before any RTT sample exists.
    initial_rto: float = 0.5
