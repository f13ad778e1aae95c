"""The Multipath QUIC connection.

Subclasses :class:`repro.quic.QuicConnection`, adding the mechanisms of
paper §3: a packet scheduler across per-path packet-number spaces, a
path manager that opens paths right after the handshake, duplication
of traffic onto RTT-unknown paths, OLIA coupled congestion control,
and PATHS frames for failure signalling (§4.3's fast handover).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.cc import OliaCoordinator, make_controller
from repro.cc.base import CongestionController
from repro.core.path_manager import PathManager
from repro.core.scheduler import Scheduler, make_scheduler
from repro.netsim.engine import Simulator
from repro.netsim.node import Host
from repro.obs.events import CAT_SCHEDULER, Tracer
from repro.quic.config import QuicConfig
from repro.quic.connection import PathState, QuicConnection
from repro.quic.frames import PathInfo, PathsFrame, PingFrame, StreamFrame
from repro.quic.packet import Packet


class MultipathQuicConnection(QuicConnection):
    """One endpoint of an MPQUIC connection."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        role: str,
        config: Optional[QuicConfig] = None,
        trace: Optional[Tracer] = None,
        connection_id: int = 0x1234,
    ) -> None:
        config = config or QuicConfig()
        config.enable_multipath = True
        self._olia: Optional[OliaCoordinator] = (
            OliaCoordinator(mss=config.mss)
            if config.multipath_cc == "olia"
            else None
        )
        super().__init__(sim, host, role, config, trace, connection_id)
        self.scheduler: Scheduler = make_scheduler(config.scheduler)
        self.path_manager = PathManager(self)
        #: The peer's latest view of its paths (from PATHS frames):
        #: path id -> RTT in seconds.
        self.remote_path_info: Dict[int, float] = {}

    # ------------------------------------------------------------------
    # Congestion control: coupled OLIA across paths
    # ------------------------------------------------------------------

    def _make_cc(self, path_id: int) -> CongestionController:
        if self._olia is not None:
            return self._olia.path_controller(path_id)
        return make_controller(self.config.multipath_cc, mss=self.config.mss)

    # ------------------------------------------------------------------
    # Path management
    # ------------------------------------------------------------------

    def open_path(self, interface_index: int) -> PathState:
        """Open a new path over a local interface (client side).

        The path is usable for data immediately (no handshake).  A PING
        goes out right away so the peer learns the path and an RTT
        sample arrives quickly; pending data does not wait for it —
        the scheduler duplicates data onto the path in the meantime.
        """
        path_id = self.path_manager.next_path_id()
        path = self._create_path(path_id, interface_index)
        self._queue_control(path_id, PingFrame())
        self._send_pending()
        return path

    def _handshake_complete(self) -> None:
        self.path_manager.on_handshake_complete()
        if self.config.paths_frame_interval > 0:
            self.sim.schedule(
                self.config.paths_frame_interval, self._on_paths_interval
            )
        super()._handshake_complete()

    def _on_paths_interval(self) -> None:
        if self.closed:
            return
        self.send_paths_frame()
        self.sim.schedule(self.config.paths_frame_interval, self._on_paths_interval)

    def _on_paths_frame(self, frame: PathsFrame, path: PathState) -> None:
        super()._on_paths_frame(frame, path)
        for info in frame.active:
            self.remote_path_info[info.path_id] = info.rtt_us / 1e6

    # ------------------------------------------------------------------
    # Scheduling and duplication
    # ------------------------------------------------------------------

    def _select_data_path(self) -> Optional[PathState]:
        return self.scheduler.choose(self._usable_paths())

    def _after_data_packet_sent(self, path: PathState, packet: Packet, new_bytes: int) -> None:
        """Duplicate stream data onto RTT-unknown paths (paper §3).

        "Our scheduler duplicates the traffic over another path when
        the path's characteristics are still unknown.  While this
        induces some overhead, it enables faster usage of additional
        paths without facing head-of-line issues."
        """
        duplicate_everywhere = self.scheduler.duplicate_everywhere
        if not self.config.duplicate_on_unknown_rtt and not duplicate_everywhere:
            return
        # Filter paths first and extract the stream frames lazily: in
        # steady state every path has an RTT estimate, so this runs as
        # a cheap scan with no tuple built per data packet.
        stream_frames: Optional[Tuple[StreamFrame, ...]] = None
        for other in self._usable_paths():
            if other.path_id == path.path_id:
                continue
            if other.rtt_known and not duplicate_everywhere:
                continue
            if not other.can_send_data():
                continue
            if stream_frames is None:
                stream_frames = tuple(
                    f for f in packet.frames if isinstance(f, StreamFrame) and f.data
                )
                if not stream_frames:
                    return
            dup = self._send_packet(other, stream_frames)
            other.duplicated_packets += 1
            self.stats.packets_duplicated += 1
            if self.trace is not None:
                self.trace.emit(
                    self.sim.now, self.host.name, CAT_SCHEDULER, "duplicated",
                    other.path_id, packet_number=dup.packet_number,
                    size=dup.wire_size,
                )

    # ------------------------------------------------------------------
    # Failure signalling (fast handover, paper §4.3)
    # ------------------------------------------------------------------

    def _on_path_potentially_failed(self, path: PathState) -> None:
        """Tell the peer via a PATHS frame that this path looks dead.

        Sent on the remaining usable paths so the peer can stop
        answering on the broken one without waiting for its own RTO.
        """
        frame = self._build_paths_frame(failed=(path.path_id,))
        for other in self._usable_paths():
            if other.path_id != path.path_id:
                self._queue_control(other.path_id, frame)

    def _on_path_abandoned(self, path: PathState) -> None:
        """Release the retired path's coupled-CC and manager state.

        OLIA's epsilon computation iterates over its registered paths;
        dropping the abandoned one keeps the surviving paths' increase
        terms from being diluted by a window that will never move
        again.
        """
        if self._olia is not None:
            self._olia.remove_path(path.path_id)
        self.path_manager.on_path_abandoned(path.path_id)

    def _build_paths_frame(self, failed: Tuple[int, ...] = ()) -> PathsFrame:
        active = tuple(
            PathInfo(p.path_id, int(p.rtt.smoothed * 1e6))
            for p in self._active_paths()
            if p.rtt_known and not p.potentially_failed
        )
        return PathsFrame(active=active, failed=failed)

    def send_paths_frame(self) -> None:
        """Proactively share path statistics with the peer."""
        frame = self._build_paths_frame()
        target = self._first_usable_path()
        if target is not None:
            self._queue_control(target.path_id, frame)
            self._send_pending()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def path_count(self) -> int:
        return len(self.paths)

    def bytes_sent_per_path(self) -> Dict[int, int]:
        return {pid: p.bytes_sent for pid, p in self.paths.items()}

    def packets_lost_per_path(self) -> Dict[int, int]:
        return {pid: p.recovery.packets_lost_total for pid, p in self.paths.items()}

    def retransmitted_bytes_per_path(self) -> Dict[int, int]:
        return {pid: p.stream_bytes_retransmitted for pid, p in self.paths.items()}

    def duplicated_packets_per_path(self) -> Dict[int, int]:
        return {pid: p.duplicated_packets for pid, p in self.paths.items()}
