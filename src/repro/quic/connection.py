"""The QUIC connection: handshake, streams, recovery, sending logic.

This class is written path-generically so :class:`repro.core.connection.
MultipathQuicConnection` can extend it with a path manager and a packet
scheduler; a plain :class:`QuicConnection` simply never opens a second
path.  The separation mirrors the paper's observation that most QUIC
machinery (streams, frames, flow control) is already multipath-ready —
only packet-number spaces, scheduling and path management need work.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.cc import make_controller
from repro.cc.base import CongestionController
from repro.netsim.engine import Simulator, Timer
from repro.netsim.node import Datagram, Host
from repro.obs import metrics as _metrics
from repro.obs.events import (
    CAT_CC,
    CAT_CONNECTION,
    CAT_FLOWCONTROL,
    CAT_PATH,
    CAT_RECOVERY,
    CAT_TRANSPORT,
    Tracer,
)
from repro.quic import wire
from repro.quic.ackmgr import AckManager, MAX_ACK_DELAY
from repro.quic.config import QuicConfig
from repro.quic.flowcontrol import FlowControlError, ReceiveWindow, SendWindow
from repro.quic.frames import (
    AckFrame,
    AddAddressFrame,
    ConnectionCloseFrame,
    Frame,
    HandshakeFrame,
    PathChallengeFrame,
    PathInfo,
    PathResponseFrame,
    PathsFrame,
    PingFrame,
    StreamFrame,
    WindowUpdateFrame,
)
from repro.quic.nonce import PathAwareNonce
from repro.quic.packet import Packet, UDP_IP_OVERHEAD
from repro.quic.recovery import LossRecovery, SentPacket
from repro.quic.rtt import RttEstimator
from repro.quic.stream import RecvStream, SendStream
from repro.util import sanitize as _san


class PathLiveness(Enum):
    """Liveness of one path, as seen by the local endpoint.

    The state machine (paper §4.3, extended with RFC 9000 §8.2-style
    active probing)::

        ACTIVE ──rto/peer──▶ POTENTIALLY_FAILED ──probe timer──▶ PROBING
           ▲                     │        │                     │     │
           └──────ack/probe──────┘────────│─────────────────────┘     │
                                          ▼                           ▼
                                      ABANDONED ◀──give-up threshold──┘

    Recovery (a fresh ACK of data sent on the path, or a matching
    PATH_RESPONSE) returns the path to ``ACTIVE``; exhausting the probe
    budget retires it to ``ABANDONED``, which is terminal.
    """

    ACTIVE = "active"
    POTENTIALLY_FAILED = "potentially_failed"
    PROBING = "probing"
    ABANDONED = "abandoned"


#: Legal liveness transitions; everything else is a protocol bug (and a
#: sanitizer trip under ``REPRO_SANITIZE=1``).
LEGAL_LIVENESS_TRANSITIONS: Dict[PathLiveness, FrozenSet[PathLiveness]] = {
    PathLiveness.ACTIVE: frozenset({PathLiveness.POTENTIALLY_FAILED}),
    PathLiveness.POTENTIALLY_FAILED: frozenset(
        {PathLiveness.PROBING, PathLiveness.ACTIVE, PathLiveness.ABANDONED}
    ),
    PathLiveness.PROBING: frozenset(
        {PathLiveness.ACTIVE, PathLiveness.ABANDONED}
    ),
    PathLiveness.ABANDONED: frozenset(),
}

#: Obs event emitted on entry to each liveness state.
_LIVENESS_EVENT: Dict[PathLiveness, str] = {
    PathLiveness.ACTIVE: "recovered",
    PathLiveness.POTENTIALLY_FAILED: "potentially_failed",
    PathLiveness.PROBING: "probing",
    PathLiveness.ABANDONED: "abandoned",
}


class TransportError(Exception):
    """Fatal connection-level condition, surfaced via ``close_error``."""

    event = "error"


class IdleTimeoutError(TransportError):
    """Nothing received for ``QuicConfig.idle_timeout`` seconds."""

    event = "idle_timeout"


class HandshakeTimeoutError(TransportError):
    """Handshake incomplete after ``QuicConfig.handshake_timeout``."""

    event = "handshake_timeout"


class NoViablePathError(TransportError):
    """Every path of the connection has been abandoned."""

    event = "no_viable_path"


class PathState:
    """Everything one path owns: number space, recovery, CC, ack state.

    Per the paper's design (§3), each path has its own packet-number
    space (avoiding giant ACK frames under heterogeneous delays) and
    its own congestion-control state, while streams and flow control
    remain connection-level.
    """

    __slots__ = (
        "path_id", "interface_index", "rtt", "recovery", "ack_mgr", "cc",
        "next_packet_number", "active", "liveness", "probe_timer",
        "probe_interval", "probes_sent", "probe_seq", "last_challenge",
        "abandoned_at", "recovery_exit_pn", "tlp_count", "last_send_time",
        "last_receive_time", "rto_timer", "loss_timer", "ack_timer",
        "packets_sent", "bytes_sent", "packets_received", "bytes_received",
        "duplicated_packets", "stream_bytes_retransmitted", "reinjected_bytes",
    )

    def __init__(
        self,
        path_id: int,
        interface_index: int,
        cc: CongestionController,
        config: QuicConfig,
    ) -> None:
        self.path_id = path_id
        self.interface_index = interface_index
        self.rtt = RttEstimator(use_ack_delay=True)
        self.recovery = LossRecovery(
            self.rtt,
            packet_threshold=config.packet_reordering_threshold,
            time_fraction=config.time_reordering_fraction,
        )
        self.ack_mgr = AckManager(path_id)
        self.cc = cc
        self.next_packet_number = 0
        self.active = True
        #: Liveness state machine (see :class:`PathLiveness`); mutate
        #: only through ``QuicConnection._set_liveness`` so transitions
        #: stay legal and observable.
        self.liveness = PathLiveness.ACTIVE
        # Probe machinery (PATH_CHALLENGE / PATH_RESPONSE).
        self.probe_timer: Optional[Timer] = None
        self.probe_interval = config.probe_interval_initial
        self.probes_sent = 0
        self.probe_seq = 0
        self.last_challenge: Optional[bytes] = None
        self.abandoned_at: Optional[float] = None
        #: Loss episode bookkeeping: packets lost while the largest
        #: acknowledged number is below this mark belong to the current
        #: recovery episode and trigger no further window reduction
        #: (mirrors TCP's one-reduction-per-recovery semantics).
        self.recovery_exit_pn = -1
        #: Tail loss probes sent since the last acknowledged packet
        #: (gQUIC sends up to two TLPs before declaring an RTO).
        self.tlp_count = 0
        self.last_send_time = -1.0
        self.last_receive_time = -1.0
        # Timers (owned by the connection, slot per purpose).
        self.rto_timer: Optional[Timer] = None
        self.loss_timer: Optional[Timer] = None
        self.ack_timer: Optional[Timer] = None
        # Stats.
        self.packets_sent = 0
        self.bytes_sent = 0
        self.packets_received = 0
        self.bytes_received = 0
        self.duplicated_packets = 0
        self.stream_bytes_retransmitted = 0
        self.reinjected_bytes = 0

    @property
    def potentially_failed(self) -> bool:
        """Back-compat view: any non-ACTIVE liveness counts as failed."""
        return self.liveness is not PathLiveness.ACTIVE

    @property
    def rtt_known(self) -> bool:
        """True once the path has produced at least one RTT sample."""
        return self.rtt.has_sample

    def take_packet_number(self) -> int:
        pn = self.next_packet_number
        self.next_packet_number += 1
        return pn

    def can_send_data(self) -> bool:
        """Congestion-window room for one more data packet?

        Inlines ``cc.can_send``: this is probed per path on every send
        opportunity.
        """
        cc = self.cc
        return self.recovery.bytes_in_flight + cc.mss <= cc.cwnd_bytes


@dataclass
class ConnectionStats:
    """Aggregate counters exposed to experiments."""

    packets_sent: int = 0
    packets_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    stream_bytes_sent: int = 0
    stream_bytes_retransmitted: int = 0
    stream_bytes_received: int = 0
    handshake_completed_at: Optional[float] = None
    rto_count: int = 0
    packets_lost: int = 0
    #: Loss episodes (one per recovery period, not per packet).
    loss_events: int = 0
    #: STREAM frames re-sent after a loss declaration.
    frames_retransmitted: int = 0
    #: Packets proactively duplicated onto other paths by the scheduler.
    packets_duplicated: int = 0
    #: Stream bytes pulled off a potentially-failed/abandoned path and
    #: handed back for immediate transmission on the surviving paths
    #: (the §4.3 reinjection policy; no per-packet RTO wait).
    reinjected_bytes: int = 0
    #: Retransmittable frames reinjected the same way.
    reinjected_frames: int = 0


class QuicConnection:
    """One endpoint of a (MP)QUIC connection, attached to a host."""

    #: Stream carrying connection-level WINDOW_UPDATE frames.
    CONNECTION_FC_STREAM = 0

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        role: str,
        config: Optional[QuicConfig] = None,
        trace: Optional[Tracer] = None,
        connection_id: int = 0x1234,
    ) -> None:
        if role not in ("client", "server"):
            raise ValueError("role must be 'client' or 'server'")
        self.sim = sim
        self.host = host
        self.role = role
        self.config = config or QuicConfig()
        #: Structured telemetry.  Every emission site below guards on
        #: ``self.trace is not None`` so plain runs stay free.
        self.trace = trace
        self._fc_blocked: Set[int] = set()
        self.connection_id = connection_id
        self.established = False
        self.closed = False
        #: Set when a lifetime limit (idle/handshake timeout, loss of
        #: the last viable path) terminated the connection.
        self.close_error: Optional[TransportError] = None
        self.stats = ConnectionStats()

        # Connection lifetime limits.
        self._idle_timer: Optional[Timer] = None
        self._handshake_timer: Optional[Timer] = None
        self._last_activity = sim.now
        self._drain_deadline: Optional[float] = None
        self._drain_close_echoed = False

        self.paths: Dict[int, PathState] = {}
        #: Cached ``_active_paths``/``_usable_paths`` results; path
        #: membership and liveness change orders of magnitude less
        #: often than the per-packet scheduler reads them.  Invalidated
        #: by ``_invalidate_path_cache`` on create/liveness/abandon.
        self._active_cache: Optional[List[PathState]] = None
        self._usable_cache: Optional[List[PathState]] = None
        #: Enforces the paper's nonce-uniqueness rule: the Path ID is
        #: part of the nonce, and packet numbers never repeat per path.
        self._nonce = PathAwareNonce()
        host.set_datagram_handler(self.datagram_received)

        # Streams and flow control.
        self._send_streams: Dict[int, SendStream] = {}
        self._recv_streams: Dict[int, RecvStream] = {}
        self._next_stream_id = 1 if role == "client" else 2
        cfg = self.config
        self._conn_recv_window = ReceiveWindow(
            cfg.initial_connection_window,
            cfg.max_connection_window,
            autotune=cfg.window_autotune,
        )
        self._conn_send_window = SendWindow(cfg.initial_connection_window)
        self._stream_recv_windows: Dict[int, ReceiveWindow] = {}
        self._stream_send_windows: Dict[int, SendWindow] = {}
        self._conn_recv_sum = 0  # sum of per-stream highest offsets seen
        self._stream_recv_highest: Dict[int, int] = {}
        self._stream_rr_index = 0  # round-robin cursor over send streams
        # Rate-limited application reader (app_consume_rate_bps > 0):
        # (stream id, bytes) still to be credited back to the windows.
        self._consume_backlog: List[Tuple[int, int]] = []
        self._consume_busy = False
        #: Per-packet constants hoisted out of the send loops: frame
        #: budget after the public header, and the multipath flag the
        #: header size depends on.  ``max_packet_size`` is fixed for the
        #: connection's lifetime, so these never go stale.
        self._multipath = cfg.enable_multipath
        self._frame_budget = cfg.max_packet_size - wire.public_header_size(True)

        # Control frames waiting to go out, per path id.  The dirty
        # flag lets the per-packet flush skip the queues entirely in
        # the (dominant) case where nothing is waiting.
        self._pending_control: Dict[int, List[Frame]] = {}
        self._control_dirty = False
        # Handshake state.
        self._handshake_sent = False
        self._handshake_acked = False
        self.peer_addresses: List[str] = []

        # Application callbacks.
        self.on_established: Optional[Callable[[], None]] = None
        self.on_stream_data: Optional[Callable[[int, bytes, bool], None]] = None
        self.on_closed: Optional[Callable[[], None]] = None

        self._in_send_loop = False

    # ------------------------------------------------------------------
    # Path setup
    # ------------------------------------------------------------------

    def _make_cc(self, path_id: int) -> CongestionController:
        return make_controller(self.config.cc_algorithm, mss=self.config.mss)

    def _create_path(self, path_id: int, interface_index: int) -> PathState:
        path = PathState(path_id, interface_index, self._make_cc(path_id), self.config)
        self.paths[path_id] = path
        self._invalidate_path_cache()
        self._pending_control.setdefault(path_id, [])
        if self.trace is not None:
            self.trace.emit(
                self.sim.now, self.host.name, CAT_PATH, "new",
                path_id, interface=interface_index,
            )
            self._wire_path_telemetry(path)
        return path

    def _wire_path_telemetry(self, path: PathState) -> None:
        """Attach the per-path tracer hooks (CC, RTT, loss recovery).

        Each hook is a closure over the tracer; the instrumented
        objects pay a single ``is None`` check when tracing is off.
        """
        obs = self.trace
        host = self.host.name
        path_id = path.path_id

        def cc_event(name: str, cc: CongestionController, _now: float) -> None:
            ssthresh = cc.ssthresh_bytes
            obs.emit(
                self.sim.now, host, CAT_CC, name, path_id,
                state=cc.state.value, cwnd=cc.cwnd_bytes,
                ssthresh=ssthresh if ssthresh != float("inf") else -1.0,
            )

        path.cc.telemetry = cc_event

        def rtt_sample(est: RttEstimator) -> None:
            if est.samples_taken == 1:
                obs.emit(
                    self.sim.now, host, CAT_PATH, "validated",
                    path_id, rtt=est.latest,
                )
            obs.emit(
                self.sim.now, host, CAT_RECOVERY, "metrics_updated", path_id,
                latest_rtt=est.latest, smoothed_rtt=est.smoothed,
                min_rtt=est.min_rtt, rtt_variance=est.variance,
            )

        path.rtt.on_sample = rtt_sample

        def packets_lost(lost: List[SentPacket]) -> None:
            for sp in lost:
                obs.emit(
                    self.sim.now, host, CAT_TRANSPORT, "packet_lost", path_id,
                    packet_number=sp.packet_number, size=sp.size,
                )

        path.recovery.on_packets_lost = packets_lost

    def _sample_path_metrics(self, path: PathState) -> None:
        """One time-series sample of the path's congestion/RTT state."""
        obs = self.trace
        now = self.sim.now
        host = self.host.name
        path_id = path.path_id
        ssthresh = path.cc.ssthresh_bytes
        obs.sample(now, host, path_id, "cwnd", path.cc.cwnd_bytes)
        obs.sample(
            now, host, path_id, "ssthresh",
            ssthresh if ssthresh != float("inf") else -1.0,
        )
        obs.sample(now, host, path_id, "srtt", path.rtt.smoothed)
        obs.sample(
            now, host, path_id, "bytes_in_flight", path.recovery.bytes_in_flight
        )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def connect(self, initial_interface: int = 0) -> None:
        """Client: start the secure handshake on a path.

        With ``zero_rtt`` enabled the connection is usable immediately:
        application data may ride alongside the CHLO (the repeat-
        connection resumption gQUIC offered).
        """
        if self.role != "client":
            raise ValueError("only clients connect()")
        path = self._create_path(0, initial_interface)
        self._queue_control(
            path.path_id, HandshakeFrame("CHLO", self.config.chlo_size)
        )
        self._handshake_sent = True
        if self.config.zero_rtt and not self.established:
            self.established = True
            self.stats.handshake_completed_at = self.sim.now
            self._handshake_complete()
        if self.config.handshake_timeout > 0 and not self.established:
            self._handshake_timer = self.sim.schedule(
                self.config.handshake_timeout, self._on_handshake_timer
            )
        self._arm_idle_timer()
        self._send_pending()

    def open_stream(self) -> int:
        """Create a new stream; returns its id."""
        stream_id = self._next_stream_id
        self._next_stream_id += 2
        self._get_send_stream(stream_id)
        return stream_id

    def send_stream_data(self, stream_id: int, data: bytes, fin: bool = False) -> None:
        """Write application data on a stream."""
        if self.closed:
            raise RuntimeError("connection is closed")
        self._get_send_stream(stream_id).write(data, fin)
        self._send_pending()

    def close(self, error_code: int = 0, reason: str = "") -> None:
        """Send CONNECTION_CLOSE and enter the draining period.

        The endpoint stops sending, but keeps answering stray peer
        packets with (one copy of) the final CONNECTION_CLOSE for
        ``drain_period_rtos`` retransmission timeouts (RFC 9000 §10.2),
        so a peer that missed the close does not retransmit into a
        black hole until its own idle timeout.
        """
        if self.closed:
            return
        path = self._first_usable_path()
        if path is not None:
            frames: Tuple[Frame, ...] = (
                ConnectionCloseFrame(error_code, reason),
            )
            self._send_packet(path, frames)
        timeouts = [
            p.recovery.rto_timeout(
                self.config.min_rto, self.config.max_rto, self.config.initial_rto
            )
            for p in self.paths.values()
        ]
        base_rto = max(timeouts) if timeouts else self.config.initial_rto
        self._drain_deadline = self.sim.now + self.config.drain_period_rtos * base_rto
        self.closed = True
        if self.trace is not None:
            self.trace.emit(
                self.sim.now, self.host.name, CAT_CONNECTION, "closed", -1,
                error_code=error_code, reason=reason,
                drain_until=self._drain_deadline,
            )
        self._cancel_all_timers()

    def migrate(self, interface_index: int) -> None:
        """QUIC connection migration: rebind the flow to a new address.

        This is the "hard handover" the paper contrasts with MPQUIC
        (§1): the single UDP flow moves to another interface, and path
        characteristics must be relearned — congestion and RTT state
        are reset, exactly why it is no substitute for true multipath.
        """
        path = self._first_usable_path() or next(iter(self.paths.values()))
        if path.interface_index == interface_index:
            return
        path.interface_index = interface_index
        path.cc = self._make_cc(path.path_id)
        path.rtt = RttEstimator(use_ack_delay=True)
        path.recovery.rtt = path.rtt
        if path.liveness in (
            PathLiveness.POTENTIALLY_FAILED, PathLiveness.PROBING
        ):
            self._mark_recovered(path, reason="migrated")
        path.tlp_count = 0
        if self.trace is not None:
            self.trace.emit(
                self.sim.now, self.host.name, CAT_PATH, "migrated",
                path.path_id, detail=f"iface={interface_index}",
            )
        self._send_pending()

    def _on_path_potentially_failed(self, path: PathState) -> None:
        """Hook: single-path QUIC may migrate; MPQUIC overrides this."""
        if not self.config.migrate_on_failure or self.config.enable_multipath:
            return
        for iface in self.host.interfaces:
            if iface.index != path.interface_index and iface.up:
                self.migrate(iface.index)
                return

    # ------------------------------------------------------------------
    # Path liveness state machine
    # ------------------------------------------------------------------

    def _set_liveness(self, path: PathState, new: PathLiveness, **data: object) -> None:
        """Transition a path's liveness, emitting the matching obs event."""
        old = path.liveness
        if _san.SANITIZE:
            _san.check(
                new in LEGAL_LIVENESS_TRANSITIONS[old],
                "illegal path liveness transition",
                path_id=path.path_id, old=old.value, new=new.value,
            )
        path.liveness = new
        self._invalidate_path_cache()
        if self.trace is not None:
            self.trace.emit(
                self.sim.now, self.host.name, CAT_PATH,
                _LIVENESS_EVENT[new], path.path_id, **data,
            )

    def _mark_potentially_failed(self, path: PathState, source: str) -> None:
        """Enter POTENTIALLY_FAILED: reinject stranded data, start probing.

        ``source`` records who detected the failure: ``"rto"`` (local
        timeout with no network activity) or ``"peer"`` (PATHS frame).
        """
        if (
            self.closed
            or not path.active
            or path.liveness is not PathLiveness.ACTIVE
        ):
            return
        self._set_liveness(path, PathLiveness.POTENTIALLY_FAILED, source=source)
        self._reinject_in_flight(path)
        path.probes_sent = 0
        path.probe_interval = self.config.probe_interval_initial
        path.last_challenge = None
        self._schedule_probe(path)
        self._on_path_potentially_failed(path)

    def _reinject_in_flight(self, path: PathState) -> None:
        """Hand the path's retransmittable in-flight frames to the
        surviving paths immediately (paper §4.3's reaction; the policy
        De Coninck 2021 shows dominates handover latency).

        Stream frames return to their stream's retransmission queue —
        the scheduler rebinds them to the best good path on the next
        send — and control frames are requeued directly.  This is a
        scheduling decision, not a loss declaration: loss counters and
        RTO backoff are untouched (see ``LossRecovery.drain_in_flight``).
        """
        drained = path.recovery.drain_in_flight()
        if not drained:
            return
        stream_bytes = 0
        frames = 0
        for sp in drained:
            for frame in sp.frames:
                if isinstance(frame, StreamFrame):
                    stream_bytes += len(frame.data)
                    frames += 1
                elif frame.retransmittable:
                    frames += 1
            self._requeue_frames(sp.frames, path)
        path.reinjected_bytes += stream_bytes
        self.stats.reinjected_bytes += stream_bytes
        self.stats.reinjected_frames += frames
        if self.trace is not None:
            self.trace.emit(
                self.sim.now, self.host.name, CAT_PATH, "reinject",
                path.path_id, packets=len(drained), frames=frames,
                stream_bytes=stream_bytes,
            )

    def _schedule_probe(self, path: PathState) -> None:
        """Arm the probe timer at the path's current backoff interval."""
        if path.probe_timer is not None:
            path.probe_timer.cancel()
            path.probe_timer = None
        if _san.SANITIZE:
            # The interval is clamped at the update site; a value
            # outside [floor, ceiling] here means the backoff logic
            # regressed (or someone poked the path state directly).
            _san.check(
                self.config.probe_interval_initial - 1e-9
                <= path.probe_interval
                <= self.config.probe_interval_max + 1e-9,
                "probe interval outside the configured backoff bounds",
                path_id=path.path_id, interval=path.probe_interval,
                floor=self.config.probe_interval_initial,
                ceiling=self.config.probe_interval_max,
            )
        path.probe_timer = self.sim.schedule(
            path.probe_interval, self._on_probe_timer, path
        )

    def _on_probe_timer(self, path: PathState) -> None:
        path.probe_timer = None
        if self.closed or path.liveness not in (
            PathLiveness.POTENTIALLY_FAILED, PathLiveness.PROBING
        ):
            return
        if path.probes_sent >= self.config.path_max_probes:
            self._abandon_path(path, reason="probe_timeout")
            return
        if path.liveness is PathLiveness.POTENTIALLY_FAILED:
            # First probe due and still no sign of life: the suspicion
            # is now being actively verified.
            self._set_liveness(path, PathLiveness.PROBING)
        path.probe_seq += 1
        # Token salted by role so the two endpoints probing the same
        # path never mistake each other's challenges for responses.
        token = struct.pack(
            ">BBHI",
            0x43 if self.role == "client" else 0x53,
            path.path_id & 0xFF,
            0,
            path.probe_seq & 0xFFFFFFFF,
        )
        path.last_challenge = token
        path.probes_sent += 1
        self._send_packet(path, (PathChallengeFrame(token),))
        if self.trace is not None:
            self.trace.emit(
                self.sim.now, self.host.name, CAT_PATH, "probe",
                path.path_id, seq=path.probe_seq,
                interval=path.probe_interval, probes_sent=path.probes_sent,
            )
        path.probe_interval = min(
            path.probe_interval * self.config.probe_backoff,
            self.config.probe_interval_max,
        )
        self._schedule_probe(path)

    def _on_path_challenge(self, frame: PathChallengeFrame, path: PathState) -> None:
        """Echo the token on the same path (it must prove *this* path)."""
        if path.liveness is PathLiveness.ABANDONED:
            # We retired the path; stay silent and let the peer's own
            # probe budget expire.
            return
        self._send_packet(path, (PathResponseFrame(frame.data),))

    def _on_path_response(self, frame: PathResponseFrame, path: PathState) -> None:
        if frame.data != path.last_challenge:
            return  # stale or unsolicited response
        if path.liveness in (
            PathLiveness.POTENTIALLY_FAILED, PathLiveness.PROBING
        ):
            self._mark_recovered(path, reason="probe")

    def _mark_recovered(self, path: PathState, reason: str) -> None:
        """Return a suspect path to ACTIVE (emits ``path:recovered``)."""
        if path.liveness not in (
            PathLiveness.POTENTIALLY_FAILED, PathLiveness.PROBING
        ):
            return
        self._set_liveness(path, PathLiveness.ACTIVE, reason=reason)
        if path.probe_timer is not None:
            path.probe_timer.cancel()
            path.probe_timer = None
        path.probes_sent = 0
        path.probe_interval = self.config.probe_interval_initial
        path.last_challenge = None
        path.tlp_count = 0

    def _abandon_path(self, path: PathState, reason: str) -> None:
        """Retire a path for good: release its state, reroute its load.

        Terminal: the path never carries anything again.  Whatever was
        still bound to it (in-flight frames, queued control) moves to
        the surviving paths; when none remains, the connection ends
        with :class:`NoViablePathError` instead of idling forever.
        """
        if path.liveness is PathLiveness.ABANDONED:
            return
        self._set_liveness(
            path, PathLiveness.ABANDONED,
            reason=reason, probes_sent=path.probes_sent,
        )
        path.active = False
        self._invalidate_path_cache()
        path.abandoned_at = self.sim.now
        for timer in (
            path.rto_timer, path.loss_timer, path.ack_timer, path.probe_timer
        ):
            if timer is not None:
                timer.cancel()
        path.rto_timer = path.loss_timer = path.ack_timer = None
        path.probe_timer = None
        self._reinject_in_flight(path)
        pending = self._pending_control.get(path.path_id, [])
        if pending:
            self._pending_control[path.path_id] = []
            target = self._first_usable_path()
            if target is not None:
                for frame in pending:
                    if frame.retransmittable:
                        self._queue_control(target.path_id, frame)
        if _san.SANITIZE:
            _san.check(
                not path.recovery.has_eliciting_in_flight(),
                "retransmittable frames still bound to an abandoned path",
                path_id=path.path_id,
            )
            _san.check(
                not self._pending_control.get(path.path_id),
                "control frames still queued on an abandoned path",
                path_id=path.path_id,
            )
        self._on_path_abandoned(path)
        if not self._active_paths() and not self.closed:
            self._close_with_error(
                NoViablePathError("every path was abandoned"),
                error_code=0x05,
            )
        else:
            self._send_pending()

    def _on_path_abandoned(self, path: PathState) -> None:
        """Hook: MPQUIC releases coupled-CC and path-manager state."""

    # ------------------------------------------------------------------
    # Connection lifetime limits
    # ------------------------------------------------------------------

    def _arm_idle_timer(self) -> None:
        """Lazily arm the idle timer; reschedules itself on activity."""
        if (
            self.config.idle_timeout <= 0
            or self.closed
            or self._idle_timer is not None
        ):
            return
        deadline = max(
            self._last_activity + self.config.idle_timeout, self.sim.now
        )
        self._idle_timer = self.sim.schedule_at(deadline, self._on_idle_timer)

    def _on_idle_timer(self) -> None:
        self._idle_timer = None
        if self.closed:
            return
        deadline = self._last_activity + self.config.idle_timeout
        if self.sim.now + 1e-9 >= deadline:
            self._close_with_error(
                IdleTimeoutError(
                    f"nothing received for {self.config.idle_timeout}s"
                ),
                error_code=0x07,
            )
            return
        self._idle_timer = self.sim.schedule_at(deadline, self._on_idle_timer)

    def _on_handshake_timer(self) -> None:
        self._handshake_timer = None
        if self.closed or self.established:
            return
        self._close_with_error(
            HandshakeTimeoutError(
                f"handshake incomplete after {self.config.handshake_timeout}s"
            ),
            error_code=0x08,
        )

    def _close_with_error(self, error: TransportError, error_code: int) -> None:
        """Terminate with an observable transport error.

        A total blackhole thus ends in a clean, queryable state — the
        error lands in ``close_error``, a ``connection:<event>`` obs
        record explains why, and the ``on_closed`` callback fires —
        instead of the simulation hanging until its own timeout.
        """
        if self.closed:
            return
        self.close_error = error
        if self.trace is not None:
            self.trace.emit(
                self.sim.now, self.host.name, CAT_CONNECTION, error.event,
                -1, reason=str(error),
            )
        self.close(error_code=error_code, reason=str(error))
        if self.on_closed:
            self.on_closed()

    def _on_draining_datagram(self, datagram: Datagram) -> None:
        """While draining, answer one stray peer packet with the final
        CONNECTION_CLOSE (RFC 9000 §10.2), then go fully silent."""
        if self._drain_deadline is None or self._drain_close_echoed:
            return
        if self.sim.now >= self._drain_deadline:
            return
        packet: Packet = datagram.payload
        path = self.paths.get(packet.path_id)
        if path is None or not path.active:
            return
        self._drain_close_echoed = True
        self._send_packet(
            path, (ConnectionCloseFrame(0, "draining"),)
        )

    def stream_fully_acked(self, stream_id: int) -> bool:
        """True when every byte written (plus FIN) was delivered."""
        stream = self._send_streams.get(stream_id)
        return stream is not None and stream.all_acked

    @property
    def smoothed_rtt(self) -> float:
        """Best smoothed RTT across paths (0 when unknown)."""
        rtts = [p.rtt.smoothed for p in self.paths.values() if p.rtt.has_sample]
        return min(rtts) if rtts else 0.0

    # ------------------------------------------------------------------
    # Stream helpers
    # ------------------------------------------------------------------

    def _get_send_stream(self, stream_id: int) -> SendStream:
        stream = self._send_streams.get(stream_id)
        if stream is None:
            stream = SendStream(stream_id)
            self._send_streams[stream_id] = stream
            self._stream_send_windows[stream_id] = SendWindow(
                self.config.initial_stream_window
            )
        return stream

    def _get_recv_stream(self, stream_id: int) -> RecvStream:
        stream = self._recv_streams.get(stream_id)
        if stream is None:
            stream = RecvStream(stream_id)
            self._recv_streams[stream_id] = stream
            self._stream_recv_windows[stream_id] = ReceiveWindow(
                self.config.initial_stream_window,
                self.config.max_stream_window,
                autotune=self.config.window_autotune,
            )
            self._stream_recv_highest[stream_id] = 0
        return stream

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------

    def datagram_received(self, datagram: Datagram, interface_index: int) -> None:
        """Entry point for packets delivered by the simulator."""
        if _metrics.METRICS:
            # Re-scope wall time to `quic`: the simulator attributes a
            # delivery callback to the link that scheduled it, but the
            # work from here on is transport-side.
            _metrics.REGISTRY.inc("quic.packets_received")
            _metrics.REGISTRY.enter("quic")
            try:
                self._datagram_received(datagram, interface_index)
            finally:
                _metrics.REGISTRY.exit()
        else:
            self._datagram_received(datagram, interface_index)

    def _datagram_received(self, datagram: Datagram, interface_index: int) -> None:
        if self.closed:
            self._on_draining_datagram(datagram)
            return
        packet: Packet = datagram.payload
        path = self.paths.get(packet.path_id)
        if path is None:
            # Peer-initiated path: create its state on first sight.
            path = self._create_path(packet.path_id, interface_index)
        if path.interface_index != interface_index:
            # The peer's address changed (connection migration or NAT
            # rebinding).  Thanks to the explicit Path ID, path state —
            # RTT estimate, congestion window, packet numbers — carries
            # over (paper §3, Path Identification).
            path.interface_index = interface_index
            if self.trace is not None:
                self.trace.emit(
                    self.sim.now, self.host.name, CAT_PATH, "rebind",
                    path.path_id, detail=f"iface={interface_index}",
                )
        now = self.sim.now
        size = datagram.size
        path.last_receive_time = now
        path.packets_received += 1
        path.bytes_received += size
        stats = self.stats
        stats.packets_received += 1
        stats.bytes_received += size
        self._last_activity = now
        if self._idle_timer is None:
            # Usually already armed; _on_idle_timer re-derives the
            # deadline from _last_activity when it fires.
            self._arm_idle_timer()
        # Note: receiving a packet alone does NOT recover a potentially
        # failed path — stray one-way traffic says nothing about the
        # return direction.  Recovery requires a fresh ACK of data sent
        # on the path, or a matching PATH_RESPONSE (see
        # ``_mark_recovered``).
        if self.trace is not None:
            self.trace.emit(
                now, self.host.name, CAT_TRANSPORT, "packet_received",
                path.path_id, packet_number=packet.packet_number, size=size,
            )
        path.ack_mgr.on_packet_received(
            packet.packet_number, now, packet.is_ack_eliciting
        )
        try:
            for frame in packet.frames:
                self._dispatch_frame(frame, path)
        except FlowControlError as exc:
            # A peer violating its advertised limits is a protocol
            # error: close the connection instead of crashing the host.
            self.close(error_code=0x03, reason=f"flow control: {exc}")
            return
        self._schedule_acks(path)
        self._send_pending()

    def _dispatch_frame(self, frame: Frame, path: PathState) -> None:
        if isinstance(frame, StreamFrame):
            self._on_stream_frame(frame)
        elif isinstance(frame, AckFrame):
            self._on_ack_frame(frame)
        elif isinstance(frame, WindowUpdateFrame):
            self._on_window_update(frame)
        elif isinstance(frame, HandshakeFrame):
            self._on_handshake_frame(frame, path)
        elif isinstance(frame, PathsFrame):
            self._on_paths_frame(frame, path)
        elif isinstance(frame, PathChallengeFrame):
            self._on_path_challenge(frame, path)
        elif isinstance(frame, PathResponseFrame):
            self._on_path_response(frame, path)
        elif isinstance(frame, AddAddressFrame):
            if frame.address not in self.peer_addresses:
                self.peer_addresses.append(frame.address)
        elif isinstance(frame, ConnectionCloseFrame):
            self.closed = True
            self._cancel_all_timers()
            if self.on_closed:
                self.on_closed()
        elif isinstance(frame, PingFrame):
            pass  # Being ack-eliciting is its entire job.

    def _on_handshake_frame(self, frame: HandshakeFrame, path: PathState) -> None:
        if self.role == "server" and frame.kind == "CHLO":
            if not self.established:
                self.established = True
                self.stats.handshake_completed_at = self.sim.now
                self._queue_control(
                    path.path_id, HandshakeFrame("SHLO", self.config.shlo_size)
                )
                self._advertise_addresses(path)
                self._handshake_complete()
        elif self.role == "client" and frame.kind == "SHLO":
            if not self.established:
                self.established = True
                self.stats.handshake_completed_at = self.sim.now
                self._handshake_complete()

    def _advertise_addresses(self, path: PathState) -> None:
        """Server advertises its addresses via ADD_ADDRESS (§3)."""
        for address in self.host.addresses:
            self._queue_control(path.path_id, AddAddressFrame(address))

    def _handshake_complete(self) -> None:
        """Hook extended by MPQUIC's path manager; fires the callback."""
        if self._handshake_timer is not None:
            self._handshake_timer.cancel()
            self._handshake_timer = None
        if self.config.keepalive_interval > 0:
            self.sim.schedule(self.config.keepalive_interval, self._on_keepalive)
        if self.on_established:
            self.on_established()

    def _on_keepalive(self) -> None:
        """Send a PING if this endpoint has been silent for a while."""
        if self.closed:
            return
        interval = self.config.keepalive_interval
        path = self._first_usable_path()
        if path is not None and self.sim.now - path.last_send_time >= interval:
            self._queue_control(path.path_id, PingFrame())
            self._send_pending()
        self.sim.schedule(interval, self._on_keepalive)

    def _on_stream_frame(self, frame: StreamFrame) -> None:
        stream_id = frame.stream_id
        # Inlined _get_recv_stream hit path: the stream exists for
        # every frame after the first.
        stream = self._recv_streams.get(stream_id)
        if stream is None:
            stream = self._get_recv_stream(stream_id)
        stream_window = self._stream_recv_windows[stream_id]
        highest = self._stream_recv_highest[stream_id]
        end = frame.offset + len(frame.data)
        new_highest = end if end > highest else highest
        stream_window.on_data_received(new_highest)
        if new_highest > highest:
            self._conn_recv_sum += new_highest - highest
            self._conn_recv_window.on_data_received(self._conn_recv_sum)
            self._stream_recv_highest[stream_id] = new_highest
        ready = stream.on_frame(frame)
        fin_now = stream.is_complete
        if ready or fin_now:
            self.stats.stream_bytes_received += len(ready)
            if self.trace is not None and ready:
                # Connection-level cumulative goodput series.
                self.trace.sample(
                    self.sim.now, self.host.name, -1,
                    "goodput_bytes", self.stats.stream_bytes_received,
                )
            if self.config.app_consume_rate_bps > 0:
                self._queue_consumption(frame.stream_id, len(ready))
            else:
                # The application consumes immediately.
                stream_window.on_data_consumed(len(ready))
                self._conn_recv_window.on_data_consumed(len(ready))
                self._maybe_send_window_updates(frame.stream_id)
            if self.on_stream_data:
                self.on_stream_data(frame.stream_id, ready, fin_now)

    def _queue_consumption(self, stream_id: int, n: int) -> None:
        """Model a rate-limited application reader.

        Bytes are credited back to the flow-control windows at
        ``app_consume_rate_bps``; while the reader lags, the windows
        fill up and the peer is throttled.
        """
        if n <= 0:
            return
        self._consume_backlog.append((stream_id, n))
        if not self._consume_busy:
            self._consume_busy = True
            self._drain_consumption()

    def _drain_consumption(self) -> None:
        if self.closed or not self._consume_backlog:
            self._consume_busy = False
            return
        stream_id, n = self._consume_backlog.pop(0)
        chunk = min(n, 16 * 1024)
        if n - chunk > 0:
            self._consume_backlog.insert(0, (stream_id, n - chunk))
        delay = chunk * 8.0 / self.config.app_consume_rate_bps
        self.sim.schedule(delay, self._finish_consume, stream_id, chunk)

    def _finish_consume(self, stream_id: int, n: int) -> None:
        window = self._stream_recv_windows.get(stream_id)
        if window is not None:
            window.on_data_consumed(n)
        self._conn_recv_window.on_data_consumed(n)
        self._maybe_send_window_updates(stream_id)
        self._send_pending()
        self._drain_consumption()

    def _maybe_send_window_updates(self, stream_id: int) -> None:
        now = self.sim.now
        srtt = self.smoothed_rtt
        new_limit = self._conn_recv_window.maybe_update(now, srtt)
        if new_limit is not None:
            self._queue_window_update(
                WindowUpdateFrame(self.CONNECTION_FC_STREAM, new_limit)
            )
        stream_limit = self._stream_recv_windows[stream_id].maybe_update(now, srtt)
        if stream_limit is not None:
            self._queue_window_update(WindowUpdateFrame(stream_id, stream_limit))

    def _queue_window_update(self, frame: WindowUpdateFrame) -> None:
        """Queue a WINDOW_UPDATE; multipath sends it on every path (§3)."""
        if self.config.window_update_all_paths:
            for path in self._active_paths():
                self._queue_control(path.path_id, frame)
        else:
            path = self._first_usable_path()
            if path is not None:
                self._queue_control(path.path_id, frame)

    def _on_window_update(self, frame: WindowUpdateFrame) -> None:
        self._fc_blocked.discard(frame.stream_id)
        if frame.stream_id == self.CONNECTION_FC_STREAM:
            self._conn_send_window.update_limit(frame.byte_offset)
        else:
            window = self._stream_send_windows.get(frame.stream_id)
            if window is None:
                self._get_send_stream(frame.stream_id)
                window = self._stream_send_windows[frame.stream_id]
            window.update_limit(frame.byte_offset)

    def _on_paths_frame(self, frame: PathsFrame, path: PathState) -> None:
        """Learn the peer's path view; mark remotely-failed paths."""
        for path_id in frame.failed:
            failed_path = self.paths.get(path_id)
            if failed_path is not None:
                self._mark_potentially_failed(failed_path, source="peer")

    def _on_ack_frame(self, ack: AckFrame) -> None:
        path = self.paths.get(ack.path_id)
        if path is None:
            return
        if _san.SANITIZE:
            # The peer cannot acknowledge packet numbers this path has
            # never allocated (sent packets, eliciting or not).
            _san.check(
                ack.largest_acked < path.next_packet_number,
                "ACK covers packet numbers never sent on this path",
                largest_acked=ack.largest_acked,
                next_packet_number=path.next_packet_number,
                path_id=path.path_id,
            )
        now = self.sim.now
        result = path.recovery.on_ack_received(ack, now)
        if result.newly_acked:
            path.tlp_count = 0
            if path.liveness in (
                PathLiveness.POTENTIALLY_FAILED, PathLiveness.PROBING
            ):
                # Fresh ACK of data sent on this path: it demonstrably
                # works in both directions again.
                self._mark_recovered(path, reason="ack")
            if result.rtt_sample is not None:
                path.cc.on_ack(now, result.acked_bytes, path.rtt.latest)
            else:
                path.cc.on_ack(
                    now, result.acked_bytes, path.rtt.smoothed or path.rtt.latest
                )
            for sp in result.newly_acked:
                self._on_packet_acked(path, sp)
            if self.trace is not None:
                self._sample_path_metrics(path)
        if result.lost:
            self._handle_lost_packets(path, result.lost)
        elif path.recovery.largest_acked >= path.recovery_exit_pn:
            path.cc.exit_recovery()
        self._rearm_rto(path)
        self._rearm_loss_timer(path)

    def _on_packet_acked(self, path: PathState, sp: SentPacket) -> None:
        for frame in sp.frames:
            if isinstance(frame, StreamFrame):
                stream = self._send_streams.get(frame.stream_id)
                if stream is not None:
                    stream.on_frame_acked(frame)
            elif isinstance(frame, HandshakeFrame):
                self._handshake_acked = True

    def _handle_lost_packets(self, path: PathState, lost: List[SentPacket]) -> None:
        self.stats.packets_lost += len(lost)
        # One window reduction per loss episode: a new episode starts
        # only once packets sent after the previous reduction have been
        # acknowledged (same semantics as TCP fast recovery).
        if path.recovery.largest_acked >= path.recovery_exit_pn:
            path.recovery_exit_pn = path.recovery.largest_sent + 1
            self.stats.loss_events += 1
            path.cc.on_loss_event(self.sim.now, self.sim.now)
        for sp in lost:
            self._requeue_frames(sp.frames, path)

    def _requeue_frames(self, frames: Tuple[Frame, ...], from_path: PathState) -> None:
        """Return a lost packet's frames to the send queues.

        Crucially, stream data goes back to the *stream* retransmission
        queue, not to the path it was lost on — so MPQUIC may resend it
        anywhere (paper §3: "when a packet is marked as lost, its
        frames are not necessarily retransmitted over the same path").
        """
        for frame in frames:
            if isinstance(frame, StreamFrame):
                stream = self._send_streams.get(frame.stream_id)
                if stream is not None:
                    stream.on_frame_lost(frame)
            elif isinstance(frame, WindowUpdateFrame):
                # Only retransmit if still the freshest limit we issued.
                current = (
                    self._conn_recv_window.advertised_limit
                    if frame.stream_id == self.CONNECTION_FC_STREAM
                    else self._stream_recv_windows.get(
                        frame.stream_id,
                        self._conn_recv_window,
                    ).advertised_limit
                )
                if frame.byte_offset >= current:
                    self._queue_window_update(frame)
            elif isinstance(frame, (HandshakeFrame, AddAddressFrame, PathsFrame)):
                target = self._first_usable_path() or from_path
                self._queue_control(target.path_id, frame)
            # ACK and PING frames are never retransmitted.

    # ------------------------------------------------------------------
    # Send path
    # ------------------------------------------------------------------

    def _queue_control(self, path_id: int, frame: Frame) -> None:
        path = self.paths.get(path_id)
        if path is not None and path.liveness is PathLiveness.ABANDONED:
            # Nothing may bind to a retired path; reroute (or drop when
            # the connection has nowhere left to send).
            target = self._first_usable_path()
            if target is None:
                return
            path_id = target.path_id
        self._pending_control.setdefault(path_id, []).append(frame)
        self._control_dirty = True

    def _invalidate_path_cache(self) -> None:
        """Drop the cached path lists after a membership/liveness change."""
        self._active_cache = None
        self._usable_cache = None

    def _active_paths(self) -> List[PathState]:
        cached = self._active_cache
        if cached is None:
            cached = [p for p in self.paths.values() if p.active]
            self._active_cache = cached
        return cached

    def _usable_paths(self) -> List[PathState]:
        """Active paths, preferring fully-live ones.

        ACTIVE paths are the normal candidates.  When none exists,
        paths still in POTENTIALLY_FAILED remain a last resort — the
        failure is only suspected, and stopping entirely would turn a
        false alarm into a stall.  PROBING paths have confirmed
        silence (a probe has already gone unanswered) and ABANDONED
        paths are retired, so neither ever carries fresh data.

        The returned list is cached (and therefore shared): callers
        must treat it as read-only.
        """
        cached = self._usable_cache
        if cached is not None:
            return cached
        active = self._active_paths()
        good = [p for p in active if p.liveness is PathLiveness.ACTIVE]
        if not good:
            good = [
                p for p in active
                if p.liveness is PathLiveness.POTENTIALLY_FAILED
            ]
        self._usable_cache = good
        return good

    def _first_usable_path(self) -> Optional[PathState]:
        paths = self._usable_paths()
        return paths[0] if paths else None

    def _select_data_path(self) -> Optional[PathState]:
        """Pick the path for the next data packet (overridden by MPQUIC)."""
        for path in self._usable_paths():
            if path.can_send_data():
                return path
        return None

    def _send_pending(self) -> None:
        """Drain everything currently sendable.

        Re-entrant calls (e.g. triggered from within frame dispatch)
        are flattened to avoid interleaved packet construction.
        """
        if self._in_send_loop or self.closed:
            return
        self._in_send_loop = True
        try:
            self._flush_control_and_acks()
            self._send_data_packets()
        finally:
            self._in_send_loop = False

    def _flush_control_and_acks(self) -> None:
        """Send control frames and due ACKs, ignoring the cwnd.

        Control/ACK packets are tiny; QUIC does not block ACKs on
        congestion control.
        """
        # Iterating self.paths directly is safe: packet delivery runs
        # via scheduled timers, so _send_packet never creates paths
        # reentrantly.  Per-packet constants are hoisted (_frame_budget).
        paths = self.paths
        if self._control_dirty:
            self._control_dirty = False
            pending_control = self._pending_control
            for path in paths.values():
                pending = pending_control.get(path.path_id)
                while pending:
                    frames: List[Frame] = []
                    # reserve room to piggyback an ACK
                    budget = self._frame_budget - 64
                    target = path if path.active else (self._first_usable_path() or path)
                    while pending and pending[0].wire_size() <= budget:
                        frame = pending.pop(0)
                        frames.append(frame)
                        budget -= frame.wire_size()
                    if not frames:
                        break  # oversized control frame; should not happen
                    ack = self._pending_ack_frame(target)
                    if ack is not None and ack.wire_size() <= budget + 64:
                        frames.insert(0, ack)
                    self._send_packet(target, tuple(frames))
        for path in paths.values():
            if path.ack_mgr.should_ack_now():
                target = path if (path.active and not path.potentially_failed) else (
                    self._first_usable_path() or path
                )
                ack = path.ack_mgr.build_ack(self.sim.now)
                if ack is not None:
                    self._send_packet(target, (ack,))

    def _pending_ack_frame(self, path: PathState) -> Optional[AckFrame]:
        """Piggyback an ACK for this path if one is pending.

        The pending state is committed, so the caller must actually
        place the returned frame in a packet (or check the size budget
        via ``build_ack(commit=False)`` first).
        """
        if path.ack_mgr.ack_pending:
            return path.ack_mgr.build_ack(self.sim.now)
        return None

    def _send_data_packets(self) -> None:
        # Fast exit: _flush_control_and_acks already drained the
        # pending-control queues, so a data packet can only come from a
        # stream with bytes (or a FIN) left to send — skip path
        # selection and frame assembly entirely otherwise.  The 1 << 62
        # budget asks "could this stream ever send" while ignoring
        # flow-control windows, so window-blocked streams still enter
        # the loop and get their blocked event recorded.
        if not (self.established or self.role == "server"):
            return
        for stream in self._send_streams.values():
            if stream.has_data_to_send(1 << 62):
                break
        else:
            return
        while True:
            path = self._select_data_path()
            if path is None:
                return
            frames, new_bytes = self._build_data_frames(path)
            if not frames:
                return
            if self.trace is not None:
                # Histogram of where data packets actually landed
                # (selections that produced no packet are not counted).
                self.trace.sched_decision(
                    self.sim.now, self.host.name, path.path_id
                )
            packet = self._send_packet(path, tuple(frames))
            self._after_data_packet_sent(path, packet, new_bytes)

    def _after_data_packet_sent(self, path: PathState, packet: Packet, new_bytes: int) -> None:
        """Hook: MPQUIC duplicates onto RTT-unknown paths here."""

    def _build_data_frames(self, path: PathState) -> Tuple[List[Frame], int]:
        """Assemble a data packet's frames for ``path``.

        Returns the frames plus how many *new* (never-sent) stream
        bytes they carry.  Piggybacks a pending ACK and any queued
        control frames first, then fills with stream data under both
        the connection and per-stream flow-control windows.
        """
        frames: List[Frame] = []
        ack_reserve = 64
        budget = self._frame_budget - ack_reserve
        pending = self._pending_control.get(path.path_id)
        while pending and pending[0].wire_size() <= budget:
            frame = pending.pop(0)
            frames.append(frame)
            budget -= frame.wire_size()
        new_bytes_total = 0
        if self.established or self.role == "server":
            # Round-robin across streams so concurrent downloads share
            # the connection instead of the oldest stream monopolising
            # it (per-object fairness, as in HTTP/2 default weights).
            send_streams = self._send_streams
            n_streams = len(send_streams)
            stream_ids: Iterable[int]
            if n_streams > 1:
                ids = list(send_streams)
                idx = self._stream_rr_index % n_streams
                stream_ids = ids[idx:] + ids[:idx]
                self._stream_rr_index = idx + 1
            else:
                # Single stream (the dominant case): rotation is a
                # no-op, so iterate the dict keys directly — but keep
                # the cursor exactly where the general path would
                # leave it.
                stream_ids = send_streams
                if n_streams:
                    self._stream_rr_index = 1
            conn_window = self._conn_send_window
            stats = self.stats
            for stream_id in stream_ids:
                stream = send_streams[stream_id]
                if budget < 32:
                    break
                window = self._stream_send_windows[stream_id]
                conn_budget = conn_window.available
                flow_budget = min(window.available, conn_budget)
                if not stream.has_data_to_send(flow_budget):
                    if flow_budget == 0 and stream.has_data_to_send(1 << 62):
                        self._note_flow_blocked(stream_id, window, conn_budget)
                    continue
                header_overhead = 16
                result = stream.next_frame(
                    budget - header_overhead,
                    flow_budget,
                )
                if result is None:
                    continue
                frame, new_bytes = result
                if new_bytes:
                    window.consume(new_bytes)
                    conn_window.consume(new_bytes)
                    stats.stream_bytes_sent += new_bytes
                else:
                    stats.stream_bytes_retransmitted += len(frame.data)
                    stats.frames_retransmitted += 1
                    path.stream_bytes_retransmitted += len(frame.data)
                    if self.trace is not None:
                        self.trace.emit(
                            self.sim.now, self.host.name, CAT_RECOVERY,
                            "retransmit", path.path_id,
                            stream_id=stream_id, offset=frame.offset,
                            bytes=len(frame.data),
                        )
                new_bytes_total += new_bytes
                frames.append(frame)
                budget -= frame.wire_size()
        if not frames:
            return [], 0
        # Piggyback a pending ACK for this path on the data packet
        # (inlined _pending_ack_frame: this runs once per data packet).
        ack_mgr = path.ack_mgr
        if ack_mgr.ack_pending:
            ack = ack_mgr.build_ack(self.sim.now)
            if ack is not None and ack.wire_size() <= budget + ack_reserve:
                frames.insert(0, ack)
        return frames, new_bytes_total

    def _note_flow_blocked(
        self, stream_id: int, window: SendWindow, conn_budget: int
    ) -> None:
        """Record a flow-control stall (coalesced per blocked window).

        Emitted once per blocked window until the matching
        WINDOW_UPDATE lifts the limit again; mirrors qlog's
        ``flow_control_blocked`` / IETF BLOCKED signal.
        """
        if window.available == 0:
            blocked_id, blocked_window = stream_id, window
        else:
            blocked_id, blocked_window = (
                self.CONNECTION_FC_STREAM, self._conn_send_window
            )
        if blocked_id in self._fc_blocked:
            return
        self._fc_blocked.add(blocked_id)
        blocked_window.note_blocked()
        if self.trace is not None:
            self.trace.emit(
                self.sim.now, self.host.name, CAT_FLOWCONTROL, "blocked", -1,
                stream_id=blocked_id, limit=blocked_window.limit,
            )

    def _send_packet(self, path: PathState, frames: Tuple[Frame, ...]) -> Packet:
        """Emit one packet on a path and register it with recovery."""
        pn = path.next_packet_number
        path.next_packet_number = pn + 1
        packet = Packet(
            path_id=path.path_id,
            packet_number=pn,
            frames=frames,
            connection_id=self.connection_id,
            multipath=self._multipath,
        )
        # Every transmission (including retransmitted data, which gets a
        # fresh packet number) must map to a unique AEAD nonce (§3).
        self._nonce.derive(path.path_id, packet.packet_number)
        if _san.SANITIZE:
            # A retired path owns no congestion/recovery state any more;
            # binding retransmittable frames to it would strand them.
            _san.check(
                path.liveness is not PathLiveness.ABANDONED
                or not packet.is_ack_eliciting,
                "retransmittable frame bound to an abandoned path",
                path_id=path.path_id,
                packet_number=packet.packet_number,
            )
        size = packet.wire_size + UDP_IP_OVERHEAD
        datagram = Datagram(payload=packet, size=size)
        now = self.sim.now
        path.last_send_time = now
        path.packets_sent += 1
        path.bytes_sent += size
        stats = self.stats
        stats.packets_sent += 1
        stats.bytes_sent += size
        if packet.is_ack_eliciting:
            path.recovery.on_packet_sent(
                packet.packet_number, frames, size, now, ack_eliciting=True
            )
            # Sending only pushes the RTO deadline *later* (it advanced
            # time_of_last_eliciting), so an already-armed wakeup is
            # still conservative: the fire handler re-derives the
            # deadline from recovery state and re-arms as needed.  Only
            # arm from scratch when no live timer exists.
            timer = path.rto_timer
            if timer is None or timer.cancelled:
                self._rearm_rto(path)
        if _metrics.METRICS:
            _metrics.REGISTRY.inc("quic.packets_sent")
        if self.trace is not None:
            self.trace.emit(
                now, self.host.name, CAT_TRANSPORT, "packet_sent",
                path.path_id, packet_number=pn, size=size,
            )
        # Direct interface dispatch (Host.send is a pure forwarder).
        self.host.interfaces[path.interface_index].send(datagram)
        return packet

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------

    def _schedule_acks(self, path: PathState) -> None:
        """Arm the delayed-ACK timer when an ACK is pending but not due."""
        if path.ack_mgr.ack_pending and not path.ack_mgr.should_ack_now():
            if path.ack_timer is None or path.ack_timer.cancelled:
                path.ack_timer = self.sim.schedule(
                    MAX_ACK_DELAY, self._on_ack_timer, path
                )

    def _on_ack_timer(self, path: PathState) -> None:
        if path.ack_timer is not None:
            path.ack_timer.cancelled = True
            path.ack_timer = None
        if self.closed or not path.ack_mgr.ack_pending:
            return
        ack = path.ack_mgr.build_ack(self.sim.now)
        if ack is not None:
            target = path if (path.active and not path.potentially_failed) else (
                self._first_usable_path() or path
            )
            self._send_packet(target, (ack,))

    def _rto_deadline(self, path: PathState) -> float:
        """Current retransmission deadline for ``path``.

        While fewer than two tail loss probes have gone unanswered and
        an RTT estimate exists, the deadline lands earlier (~2 smoothed
        RTTs, as in gQUIC's TLP) so a probe goes out instead of a
        window collapse.
        """
        timeout = path.recovery.rto_timeout(
            self.config.min_rto, self.config.max_rto, self.config.initial_rto
        )
        if path.tlp_count < 2 and path.rtt.has_sample:
            timeout = min(timeout, max(2.0 * path.rtt.smoothed, 0.01))
        return max(
            path.recovery.time_of_last_eliciting + timeout, self.sim.now
        )

    def _rearm_rto(self, path: PathState) -> None:
        """Arm the retransmission timer (deadline-check-on-fire).

        The armed timer is a *wakeup*, not the deadline itself: every
        ACK and every transmission used to cancel + reschedule it, a
        pair of heap operations per packet.  Instead the timer is left
        alone whenever the deadline only moved later — ``_on_rto``
        recomputes the true deadline when it fires and re-arms if it
        woke early.  Only a deadline earlier than the armed wakeup
        forces a reschedule, so the common case is one comparison and
        zero heap traffic.
        """
        if self.closed or not path.recovery.has_eliciting_in_flight():
            # Leave any armed timer in place: it re-checks on fire and
            # no-ops, which is cheaper than cancelling per ACK.
            return
        deadline = self._rto_deadline(path)
        timer = path.rto_timer
        if timer is not None and not timer.cancelled:
            if timer.time <= deadline:
                return
            timer.cancel()
        path.rto_timer = self.sim.schedule_at(deadline, self._on_rto, path)

    def _rearm_loss_timer(self, path: PathState) -> None:
        next_time = path.recovery.next_loss_time(self.sim.now)
        if next_time is None or self.closed:
            # Leave any armed timer; it re-checks on fire and no-ops.
            return
        # Small offset so the >= comparison in loss detection is
        # guaranteed to hold when the timer fires.
        wake = max(next_time + 1e-6, self.sim.now)
        timer = path.loss_timer
        if timer is not None and not timer.cancelled:
            if timer.time <= wake:
                return
            timer.cancel()
        path.loss_timer = self.sim.schedule_at(wake, self._on_loss_timer, path)

    def _on_loss_timer(self, path: PathState) -> None:
        path.loss_timer = None
        if self.closed:
            return
        now = self.sim.now
        next_time = path.recovery.next_loss_time(now)
        if next_time is not None and now < next_time - 1e-9:
            # Early wakeup: the earliest possible time-threshold loss
            # moved later since arming (the suspect packets were acked).
            path.loss_timer = self.sim.schedule_at(
                max(next_time + 1e-6, now), self._on_loss_timer, path
            )
            return
        lost = path.recovery.detect_losses_now(now)
        if lost:
            self._handle_lost_packets(path, lost)
        self._rearm_loss_timer(path)
        self._send_pending()

    def _on_rto(self, path: PathState) -> None:
        path.rto_timer = None
        if self.closed or not path.recovery.has_eliciting_in_flight():
            return
        now = self.sim.now
        deadline = self._rto_deadline(path)
        if now < deadline - 1e-9:
            # Early wakeup: the deadline moved later since this timer
            # was armed (new transmissions or fresh ACKs).
            path.rto_timer = self.sim.schedule_at(
                deadline, self._on_rto, path
            )
            return
        if path.tlp_count < 2 and path.rtt.has_sample:
            self._send_tail_loss_probe(path)
            self._rearm_rto(path)
            return
        path.cc.on_rto(now)
        # "Potentially failed": an RTO with no network activity since the
        # last packet transmission (paper §4.3, mirroring MPTCP's logic).
        # Entering the state reinjects the whole in-flight window onto
        # the surviving paths at once, so the RTO drain below finds
        # nothing left — no per-packet RTO wait for the backlog.
        if (
            path.liveness is PathLiveness.ACTIVE
            and path.last_receive_time < path.last_send_time
        ):
            self._mark_potentially_failed(path, source="rto")
        lost = path.recovery.on_rto_fired(now)
        path.recovery_exit_pn = path.recovery.largest_sent + 1
        self.stats.rto_count += 1
        self.stats.packets_lost += len(lost)
        for sp in lost:
            self._requeue_frames(sp.frames, path)
        if self.trace is not None:
            self.trace.emit(now, self.host.name, CAT_RECOVERY, "rto", path.path_id)
        self._rearm_rto(path)
        self._send_pending()

    def _send_tail_loss_probe(self, path: PathState) -> None:
        """Re-send the newest unacked packet's frames as a fresh packet.

        Elicits an ACK that lets ordinary loss detection flush any tail
        loss without the window collapse of a full RTO.
        """
        path.tlp_count += 1
        newest_pn = max(
            (pn for pn, sp in path.recovery.sent.items() if sp.ack_eliciting),
            default=None,
        )
        if newest_pn is None:
            return
        frames = tuple(
            f for f in path.recovery.sent[newest_pn].frames if f.retransmittable
        )
        if not frames:
            frames = (PingFrame(),)
        self._send_packet(path, frames)
        if self.trace is not None:
            self.trace.emit(
                self.sim.now, self.host.name, CAT_RECOVERY, "tail_loss_probe",
                path.path_id,
            )

    def _cancel_all_timers(self) -> None:
        for path in self.paths.values():
            for timer in (
                path.rto_timer, path.loss_timer, path.ack_timer,
                path.probe_timer,
            ):
                if timer is not None:
                    timer.cancel()
            path.rto_timer = path.loss_timer = path.ack_timer = None
            path.probe_timer = None
        for conn_timer in (self._idle_timer, self._handshake_timer):
            if conn_timer is not None:
                conn_timer.cancel()
        self._idle_timer = self._handshake_timer = None

    # ------------------------------------------------------------------
    # Introspection used by tests and experiments
    # ------------------------------------------------------------------

    @property
    def total_stream_bytes_received(self) -> int:
        return self.stats.stream_bytes_received

    def path_stats(self) -> Dict[int, Dict[str, float]]:
        """Per-path summary used by experiments and the PATHS frame."""
        out: Dict[int, Dict[str, float]] = {}
        for path_id, path in self.paths.items():
            out[path_id] = {
                "packets_sent": path.packets_sent,
                "packets_received": path.packets_received,
                "bytes_sent": path.bytes_sent,
                "srtt": path.rtt.smoothed,
                "lost": path.recovery.packets_lost_total,
                "rtos": path.recovery.rto_count,
                "retransmitted_bytes": path.stream_bytes_retransmitted,
                "duplicated": path.duplicated_packets,
                "potentially_failed": float(path.potentially_failed),
                "reinjected_bytes": float(path.reinjected_bytes),
            }
        return out
