"""The TCP flow machine: one sequence space, one path.

A :class:`TcpFlow` is a full TCP sender/receiver pair bound to one host
interface: 3-way handshake, cumulative ACKs with limited SACK, CUBIC
(or a supplied controller), fast retransmission via RFC 6675-style
hole marking, RTO with exponential backoff, delayed ACKs and Karn RTT
sampling.  A plain TCP connection owns exactly one flow; an MPTCP
connection owns one flow per path (a *subflow*) and layers the data
sequence space on top.

Flow behaviour is customised through an *owner* implementing
:class:`FlowOwner`; this keeps the (considerable) reliability machinery
in one place, exactly the role ``tcp_input.c``/``tcp_output.c`` play
for both TCP and MPTCP in Linux.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import List, Optional, Tuple

from repro.cc.base import CongestionController
from repro.netsim.engine import Simulator, Timer
from repro.netsim.node import Datagram, Host
from repro.obs.events import CAT_RECOVERY, CAT_TRANSPORT, Tracer
from repro.quic.rtt import RttEstimator
from repro.tcp.config import TcpConfig
from repro.tcp.segment import Segment
from repro.util.ranges import RangeSet
from repro.util.reassembly import Reassembler


class FlowState(enum.Enum):
    CLOSED = "closed"
    LISTEN = "listen"
    SYN_SENT = "syn_sent"
    SYN_RCVD = "syn_rcvd"
    ESTABLISHED = "established"


class FlowOwner:
    """Hooks a connection implements to drive its flow(s)."""

    def flow_established(self, flow: "TcpFlow") -> None:
        """The 3-way handshake finished."""

    def flow_delivered(self, flow: "TcpFlow", data: bytes, fin: bool) -> None:
        """In-order flow bytes arrived (stream mode)."""

    def flow_mapped_data(
        self, flow: "TcpFlow", dsn: int, data: bytes, data_fin: bool
    ) -> None:
        """A data segment with a DSS mapping arrived (MPTCP mode)."""

    def flow_window_edge(self, flow: "TcpFlow") -> int:
        """Absolute receive-window limit to advertise."""
        raise NotImplementedError

    def flow_data_ack(self, flow: "TcpFlow") -> Optional[int]:
        """Cumulative data-level ack (MPTCP) or None."""
        return None

    def flow_on_ack(self, flow: "TcpFlow", data_ack: Optional[int]) -> None:
        """An ACK was processed; a chance to feed more data."""

    def flow_on_rto(self, flow: "TcpFlow") -> None:
        """The flow suffered a retransmission timeout."""

    def flow_dss_for_range(
        self, flow: "TcpFlow", start: int, stop: int
    ) -> Optional[Tuple[int, bool]]:
        """DSS mapping ``(dsn, data_fin)`` for outgoing subflow bytes
        ``[start, stop)``, which the flow has already clamped to a
        single mapping via :meth:`flow_mapping_stop`."""
        return None

    def flow_mapping_stop(self, flow: "TcpFlow", start: int) -> int:
        """Largest subflow sequence a segment starting at ``start`` may
        extend to without crossing a DSS mapping boundary."""
        return 1 << 62


class TcpFlow:
    """One TCP flow (or MPTCP subflow) bound to a host interface."""

    #: Data sequence numbers start after the SYN.
    SEQ_BASE = 1

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        interface_index: int,
        role: str,
        config: TcpConfig,
        cc: CongestionController,
        owner: FlowOwner,
        mapped_delivery: bool = False,
        trace: Optional[Tracer] = None,
        name: str = "tcp",
    ) -> None:
        self.sim = sim
        self.host = host
        self.interface_index = interface_index
        self.role = role
        self.config = config
        self.cc = cc
        self.owner = owner
        self.mapped_delivery = mapped_delivery
        self.trace = trace
        self.name = name

        self.state = FlowState.LISTEN if role == "server" else FlowState.CLOSED
        #: When the client's latest SYN left, and the TFO payload it
        #: carried (repeated on a SYN retransmission).
        self._syn_time = 0.0
        self._syn_data = b""
        # Karn mode: no ack-delay correction, no samples from rexmits.
        self.rtt = RttEstimator(use_ack_delay=False)

        # --- sender state ---
        self._buf = bytearray()
        self.snd_una = self.SEQ_BASE
        self.snd_nxt = self.SEQ_BASE
        self.fin_seq: Optional[int] = None
        self._fin_sent = False
        self.peer_window_edge = 0
        #: Subflows are gated by the connection-level (DSN) window, not
        #: a per-subflow one.
        self.enforce_flow_window = not mapped_delivery
        self._sacked = RangeSet()
        self._retx_queue = RangeSet()
        self._retx_marked = RangeSet()
        self._retransmitted_ever = RangeSet()
        # Karn RTT probe: one timed segment outstanding at a time,
        # (end_seq, send_time); invalidated if the range is ever
        # retransmitted.  Yields roughly one sample per RTT, as in a
        # timestamp-less Linux stack.
        self._rtt_probe: Optional[Tuple[int, float]] = None
        # Timestamp-option RTT: per-ACK samples used only by the
        # congestion controller (CUBIC epoch timing / HyStart).  The
        # scheduler-visible smoothed RTT stays probe-based and noisy.
        self._ts_times: "deque[Tuple[int, float]]" = deque()
        self._last_ts_rtt = 0.0
        self._recovery_until = -1
        self.in_recovery = False
        self.consecutive_rtos = 0
        # Tail loss probe (Linux sch_tlp, on by default since 3.10):
        # after ~2 smoothed RTTs without progress, re-send the tail
        # segment to elicit SACKs instead of waiting for the full RTO.
        self._tlp_timer: Optional[Timer] = None
        self._tlp_armed_una = -1
        self._tlp_used = False
        self.tlp_probes = 0
        self.potentially_failed = False
        self.last_send_time = -1.0
        self.last_receive_time = -1.0

        # --- receiver state ---
        self.reassembler = Reassembler()
        self._fin_received_seq: Optional[int] = None
        self._unacked_segments = 0
        self._ack_timer: Optional[Timer] = None
        self._rto_timer: Optional[Timer] = None
        self._last_block_received: Optional[Tuple[int, int]] = None

        # --- stats ---
        self.segments_sent = 0
        self.segments_received = 0
        self.bytes_sent = 0
        self.bytes_retransmitted = 0
        self.rto_count = 0
        self.fast_retransmits = 0

    # ------------------------------------------------------------------
    # Connection establishment
    # ------------------------------------------------------------------

    def connect(self) -> None:
        """Client: send SYN (with the first data flight under TFO)."""
        if self.role != "client":
            raise ValueError("only client flows connect()")
        self.state = FlowState.SYN_SENT
        data = b""
        if self.config.fast_open and self._buf:
            # TCP Fast Open (RFC 7413): data rides the SYN.
            data = bytes(self._buf[: self.config.mss])
            self.snd_nxt = self.SEQ_BASE + len(data)
        self._syn_data = data
        self._emit(
            Segment(seq=0, ack=0, syn=True, data=data,
                    window_edge=self._window_edge())
        )
        self._arm_rto()

    @property
    def established(self) -> bool:
        return self.state is FlowState.ESTABLISHED

    # ------------------------------------------------------------------
    # Sender API
    # ------------------------------------------------------------------

    def write(self, data: bytes, fin: bool = False) -> None:
        """Append stream bytes (and optionally FIN) to the send buffer."""
        if self.fin_seq is not None:
            raise ValueError("flow already closed for sending")
        self._buf += data
        if fin:
            self.fin_seq = self.SEQ_BASE + len(self._buf)
        self.try_send()

    @property
    def buffered_end_seq(self) -> int:
        """Sequence number one past the last buffered byte."""
        return self.SEQ_BASE + len(self._buf)

    @property
    def bytes_outstanding(self) -> int:
        """Pipe estimate (RFC 6675-lite): sent and un-SACKed bytes,
        excluding loss-marked holes not yet retransmitted."""
        pipe = (
            self.snd_nxt - self.snd_una
            - self._sacked.total - self._retx_queue.total
        )
        return pipe if pipe > 0 else 0

    def can_take_data(self) -> bool:
        """Congestion-window room for one more segment (scheduling)."""
        return (
            self.state is FlowState.ESTABLISHED
            and self.bytes_outstanding + self.config.mss <= self.cc.cwnd_bytes
        )

    def all_data_acked(self) -> bool:
        target = self.fin_seq + 1 if self.fin_seq is not None else self.buffered_end_seq
        return self.snd_una >= target and self.snd_nxt >= target

    def try_send(self) -> None:
        """Transmit whatever the windows currently allow."""
        if not self.established:
            return
        while True:
            if not self._send_one():
                break

    def _send_one(self) -> bool:
        # 1. Retransmissions first; they don't enlarge the pipe estimate
        #    but still respect cwnd.
        if self._retx_queue:
            if self.bytes_outstanding + self.config.mss > self.cc.cwnd_bytes:
                return False
            start, stop = next(iter(self._retx_queue))
            stop = min(stop, start + self.config.mss, self._mapping_stop(start))
            self._retx_queue.remove(start, stop)
            self._transmit_range(start, stop, retransmission=True)
            return True
        # 2. New data under cwnd and (for plain TCP) the peer window.
        limit = self.buffered_end_seq
        if self.snd_nxt < limit:
            if self.bytes_outstanding + self.config.mss > self.cc.cwnd_bytes:
                return False
            stop = min(
                limit,
                self.snd_nxt + self.config.mss,
                self._mapping_stop(self.snd_nxt),
            )
            if self.enforce_flow_window:
                stop = min(stop, self.peer_window_edge)
            if stop <= self.snd_nxt:
                return False
            self._transmit_range(self.snd_nxt, stop, retransmission=False)
            return True
        # 3. A bare FIN if everything was sent.
        if (
            self.fin_seq is not None
            and not self._fin_sent
            and self.snd_nxt >= self.fin_seq
        ):
            self._transmit_range(self.fin_seq, self.fin_seq, retransmission=False, fin=True)
            return True
        return False

    def _transmit_range(
        self, start: int, stop: int, retransmission: bool, fin: bool = False
    ) -> None:
        data_stop = min(stop, self.buffered_end_seq)
        data = bytes(self._buf[start - self.SEQ_BASE:data_stop - self.SEQ_BASE])
        fin_flag = fin or (
            self.fin_seq is not None and start <= self.fin_seq <= stop
        )
        dsn: Optional[int] = None
        data_fin = False
        if self.mapped_delivery and data:
            dss = self.owner.flow_dss_for_range(self, start, data_stop)
            if dss is not None:
                dsn, data_fin = dss
        seg = Segment(
            seq=start,
            ack=self._rcv_nxt(),
            data=data,
            fin=fin_flag,
            window_edge=self._window_edge(),
            sack_blocks=self._sack_blocks(),
            dsn=dsn,
            data_ack=self.owner.flow_data_ack(self),
            data_fin=data_fin,
            retransmission=retransmission,
        )
        if fin_flag:
            self._fin_sent = True
        if retransmission:
            self.bytes_retransmitted += len(data)
            self._retransmitted_ever.add(start, max(stop, start + 1))
            if self._rtt_probe is not None and start < self._rtt_probe[0]:
                self._rtt_probe = None  # Karn: never time retransmitted data
        else:
            end_seq = seg.end_seq
            if end_seq > self.snd_nxt:
                self.snd_nxt = end_seq
            if self._rtt_probe is None:
                self._rtt_probe = (end_seq, self.sim.now)
            self._ts_times.append((end_seq, self.sim.now))
        self._emit(seg)
        self._arm_rto()
        if not retransmission:
            self._arm_tlp()
        # Sending data also acknowledges everything received so far.
        self._ack_sent()

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------

    def segment_received(self, segment: Segment) -> None:
        """Entry point for segments delivered by the simulator."""
        now = self.sim.now
        self.segments_received += 1
        self.last_receive_time = now
        if self.trace is not None:
            self.trace.emit(
                now, self.host.name, CAT_TRANSPORT, "packet_received",
                self.interface_index,
                packet_number=segment.seq, size=segment.wire_size,
            )
        if self.state is FlowState.LISTEN and segment.syn:
            self.peer_window_edge = max(self.peer_window_edge, segment.window_edge)
            if segment.data:
                # TFO: accept the SYN's payload and establish at once so
                # the response need not wait for the handshake ACK.  The
                # SYN-ACK must leave *before* any response data the
                # payload provokes, or a SYN_SENT client would drop it.
                self.state = FlowState.ESTABLISHED
                self._emit(
                    Segment(seq=0, ack=1 + len(segment.data), syn=True,
                            window_edge=self._window_edge())
                )
                self._process_data(segment)
                self.owner.flow_established(self)
                self.try_send()
            else:
                self.state = FlowState.SYN_RCVD
                self._emit(
                    Segment(seq=0, ack=1, syn=True,
                            window_edge=self._window_edge())
                )
                self._arm_rto()
            return
        if self.state is FlowState.ESTABLISHED and segment.syn and self.role == "server":
            # Duplicate (T)FO SYN: our SYN-ACK was lost; repeat it.
            self._emit(
                Segment(seq=0, ack=self._rcv_nxt(), syn=True,
                        window_edge=self._window_edge())
            )
            return
        if self.state is FlowState.SYN_SENT and segment.syn and segment.ack >= 1:
            self.state = FlowState.ESTABLISHED
            self.snd_una = max(self.SEQ_BASE, segment.ack)
            self.rtt.update(now - self._syn_time)
            self.peer_window_edge = max(self.peer_window_edge, segment.window_edge)
            self._emit(Segment(seq=self.snd_nxt, ack=self._rcv_nxt(),
                               window_edge=self._window_edge()))
            self._cancel_rto()
            self.owner.flow_established(self)
            self.try_send()
            return
        if self.state is FlowState.SYN_RCVD and segment.ack >= 1:
            self.state = FlowState.ESTABLISHED
            self._cancel_rto()
            self.owner.flow_established(self)
            # Fall through: the ACK may carry data.
        if self.state is not FlowState.ESTABLISHED:
            return
        self.potentially_failed = False
        if segment.window_edge > self.peer_window_edge:
            self.peer_window_edge = segment.window_edge
        data_ack = segment.data_ack
        if segment.ack > 0 or segment.sack_blocks:
            self._process_ack(segment)
        if segment.data or segment.fin:
            self._process_data(segment)
        self.owner.flow_on_ack(self, data_ack)
        self.try_send()

    # -- data reception ---------------------------------------------------

    def _process_data(self, segment: Segment) -> None:
        if segment.data:
            if self.mapped_delivery and segment.dsn is not None:
                self.owner.flow_mapped_data(
                    self, segment.dsn, segment.data, segment.data_fin
                )
            # In a SYN+data (TFO) segment the payload begins one
            # sequence number after the SYN.
            offset = segment.seq - self.SEQ_BASE + (1 if segment.syn else 0)
            self.reassembler.insert(offset, segment.data)
            self._last_block_received = (offset, offset + len(segment.data))
            ready = self.reassembler.pop_ready()
            if ready and not self.mapped_delivery:
                fin = (
                    self._fin_received_seq is not None
                    and self._rcv_nxt() >= self._fin_received_seq
                )
                self.owner.flow_delivered(self, ready, fin)
        if segment.fin:
            self._fin_received_seq = segment.seq + len(segment.data)
            if not self.mapped_delivery and self._rcv_nxt() >= self._fin_received_seq:
                self.owner.flow_delivered(self, b"", True)
        self._unacked_segments += 1
        if self._unacked_segments >= 2 or self.reassembler.has_pending():
            self.send_ack()
        elif self._ack_timer is None or self._ack_timer.cancelled:
            self._ack_timer = self.sim.schedule(
                self.config.delayed_ack, self._on_ack_timer
            )

    def _rcv_nxt(self) -> int:
        nxt = self.SEQ_BASE + self.reassembler.read_offset
        if (
            self._fin_received_seq is not None
            and self.SEQ_BASE + self.reassembler.read_offset >= self._fin_received_seq
        ):
            nxt = self._fin_received_seq + 1  # FIN consumes one seq
        return nxt

    def _sack_blocks(self) -> Tuple[Tuple[int, int], ...]:
        """Up to ``max_sack_blocks`` SACK blocks, most recent first.

        The 2-3 block limit (option space) is the key disadvantage
        versus QUIC's 256 ACK ranges under bursty random loss (§4.1).
        """
        if not self.reassembler.has_pending():
            return ()
        pending = self.reassembler.pending_ranges()
        blocks: List[Tuple[int, int]] = []
        if self._last_block_received is not None:
            for start, stop in pending:
                if start <= self._last_block_received[0] < stop:
                    blocks.append((start, stop))
                    break
        for start, stop in pending:
            if len(blocks) >= self.config.max_sack_blocks:
                break
            if (start, stop) not in blocks:
                blocks.append((start, stop))
        return tuple(
            (self.SEQ_BASE + start, self.SEQ_BASE + stop)
            for start, stop in blocks[: self.config.max_sack_blocks]
        )

    def send_ack(self) -> None:
        """Emit a pure ACK now."""
        self._emit(
            Segment(
                seq=self.snd_nxt,
                ack=self._rcv_nxt(),
                window_edge=self._window_edge(),
                sack_blocks=self._sack_blocks(),
                data_ack=self.owner.flow_data_ack(self),
            )
        )
        self._ack_sent()

    def _ack_sent(self) -> None:
        self._unacked_segments = 0
        if self._ack_timer is not None:
            self._ack_timer.cancel()
            self._ack_timer = None

    def _on_ack_timer(self) -> None:
        self._ack_timer = None
        if self._unacked_segments > 0:
            self.send_ack()

    def _window_edge(self) -> int:
        return self.owner.flow_window_edge(self)

    def _mapping_stop(self, start: int) -> int:
        if not self.mapped_delivery:
            return 1 << 62
        return self.owner.flow_mapping_stop(self, start)

    # -- ack processing -----------------------------------------------------

    def _process_ack(self, segment: Segment) -> None:
        now = self.sim.now
        newly_acked = 0
        if segment.ack > self.snd_una:
            newly_acked = segment.ack - self.snd_una
            self._absorb_rtt_sample(segment.ack, now)
            while self._ts_times and self._ts_times[0][0] <= segment.ack:
                _, sent_at = self._ts_times.popleft()
                self._last_ts_rtt = now - sent_at
            self.snd_una = segment.ack
            self._sacked.remove(0, self.snd_una)
            self._retx_queue.remove(0, self.snd_una)
            self._retx_marked.remove(0, self.snd_una)
            self.consecutive_rtos = 0
            self._tlp_used = False
            self._arm_rto(restart=True)
            self._arm_tlp(restart=True)
        for start, stop in segment.sack_blocks:
            if stop > self.snd_una:
                self._sacked.add(max(start, self.snd_una), stop)
        if newly_acked:
            self.cc.on_ack(
                now,
                newly_acked,
                self._last_ts_rtt or self.rtt.latest or self.rtt.smoothed,
            )
        if self.in_recovery and self.snd_una >= self._recovery_until:
            self.in_recovery = False
            self._retx_marked = RangeSet()
            self.cc.exit_recovery()
        self._mark_losses(now)
        if self.snd_una >= self.snd_nxt:
            self._cancel_rto()

    def _absorb_rtt_sample(self, ack: int, now: float) -> None:
        """Karn's algorithm: only time never-retransmitted segments.

        One probe segment is timed at a time; the sample includes any
        delayed-ACK holdup on the receiver (there is no ack-delay field
        in TCP), which is part of the RTT noise the paper blames for
        MPTCP's scheduling trouble (§4.1).
        """
        if self._rtt_probe is None:
            return
        end_seq, sent_at = self._rtt_probe
        if ack >= end_seq:
            self.rtt.update(now - sent_at)
            self._rtt_probe = None

    def _mark_losses(self, now: float) -> None:
        """RFC 6675-style: a hole is lost once ``dupack_threshold`` MSS
        of SACKed data sits above it.

        Early retransmit (RFC 5827): when no new data remains to clock
        out more SACKs *and* fewer than four segments are outstanding,
        the threshold drops to outstanding-1 segments.  With larger
        flights TCP still needs 3 MSS of SACKed data above a hole — and
        its 3-block SACK reporting plus the shared sequence space is
        exactly where it recovers worse than QUIC's 256 ACK ranges and
        fresh packet numbers (paper §4.1).
        """
        if not self._sacked:
            return
        threshold = self.config.dupack_threshold * self.config.mss
        at_tail = self.snd_nxt >= self.buffered_end_seq or (
            self.enforce_flow_window and self.snd_nxt >= self.peer_window_edge
        )
        outstanding_segments = max(
            1,
            round(
                (self.snd_nxt - self.snd_una - self._sacked.total)
                / self.config.mss
            ),
        )
        if at_tail and outstanding_segments < 4:
            threshold = max(1, outstanding_segments - 1) * self.config.mss
        # Every SACKed range lies at or above snd_una, so the SACKed
        # bytes above the hole below a range are a suffix sum: the
        # total, less the ranges already passed.  It only shrinks going
        # up, so the walk stops at the first hole under the threshold.
        sacked_above = self._sacked.total
        gap_start = self.snd_una
        marked_any = False
        for s_start, s_stop in self._sacked:
            if sacked_above < threshold:
                break
            # (An empty hole, a range starting at snd_una, counts as marked.)
            if not self._retx_marked.contains_range(gap_start, s_start):
                self._retx_queue.add(gap_start, s_start)
                self._retx_marked.add(gap_start, s_start)
                marked_any = True
            sacked_above -= s_stop - s_start
            gap_start = s_stop
        if marked_any:
            self.fast_retransmits += 1
            if not self.in_recovery:
                self.in_recovery = True
                self._recovery_until = self.snd_nxt
                self.cc.on_loss_event(now, now - max(self.rtt.smoothed, 1e-3))

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------

    def _rto_interval(self) -> float:
        if self.rtt.has_sample:
            base = self.rtt.rto(
                min_rto=self.config.min_rto, max_rto=self.config.max_rto,
                max_ack_delay=0.0,
            )
        else:
            base = self.config.initial_rto
        return min(base * (2 ** self.consecutive_rtos), self.config.max_rto)

    def _tlp_interval(self) -> float:
        return max(2.0 * self.rtt.smoothed, 2.0 * self.config.delayed_ack)

    def _arm_tlp(self, restart: bool = False) -> None:
        """Arm the tail loss probe ~2 smoothed RTTs out."""
        if not self.rtt.has_sample or self.in_recovery or self._tlp_used:
            return
        if self._tlp_timer is not None:
            if not restart:
                return
            self._tlp_timer.cancel()
            self._tlp_timer = None
        if self.snd_una < self.snd_nxt:
            self._tlp_armed_una = self.snd_una
            self._tlp_timer = self.sim.schedule(self._tlp_interval(), self._on_tlp)

    def _on_tlp(self) -> None:
        self._tlp_timer = None
        if (
            self.snd_una != self._tlp_armed_una
            or self.snd_una >= self.snd_nxt
            or self.in_recovery
            or self._tlp_used
        ):
            # Progress happened (or recovery started); re-arm if needed.
            self._arm_tlp()
            return
        # Probe: re-send the tail segment to draw a SACK from the peer.
        self._tlp_used = True
        self.tlp_probes += 1
        start = max(self.snd_una, self.snd_nxt - self.config.mss)
        stop = min(self.snd_nxt, self._mapping_stop(start))
        if self.fin_seq is not None and stop > self.fin_seq:
            stop = self.fin_seq + 1
            start = min(start, self.fin_seq)
        if stop > start:
            self._transmit_range(start, stop, retransmission=True)

    def _arm_rto(self, restart: bool = False) -> None:
        if self._rto_timer is not None:
            if not restart:
                return
            self._rto_timer.cancel()
            self._rto_timer = None
        if self.state in (FlowState.SYN_SENT, FlowState.SYN_RCVD) or (
            self.snd_una < self.snd_nxt
        ):
            self._rto_timer = self.sim.schedule(self._rto_interval(), self._on_rto)

    def _cancel_rto(self) -> None:
        if self._rto_timer is not None:
            self._rto_timer.cancel()
            self._rto_timer = None

    def _on_rto(self) -> None:
        self._rto_timer = None
        now = self.sim.now
        if self.state is FlowState.SYN_SENT:
            self.consecutive_rtos += 1
            self.rto_count += 1
            self._emit(
                Segment(seq=0, ack=0, syn=True,
                        data=self._syn_data,
                        window_edge=self._window_edge())
            )
            self._arm_rto()
            return
        if self.state is FlowState.SYN_RCVD:
            self.consecutive_rtos += 1
            self.rto_count += 1
            self._emit(Segment(seq=0, ack=1, syn=True, window_edge=self._window_edge()))
            self._arm_rto()
            return
        if self.snd_una >= self.snd_nxt:
            return
        self.consecutive_rtos += 1
        self.rto_count += 1
        # Like Linux: everything un-SACKed is marked lost and will be
        # retransmitted in sequence on this same subflow.
        self._retx_queue = RangeSet([(self.snd_una, self.snd_nxt)])
        for start, stop in self._sacked:
            self._retx_queue.remove(start, stop)
        self._retx_marked = self._retx_queue.copy()
        self.in_recovery = True
        self._recovery_until = self.snd_nxt
        self.cc.on_rto(now)
        # Potentially-failed heuristic (MPTCP pull #70): an RTO with no
        # activity since the last transmission.
        if self.last_receive_time < self.last_send_time:
            self.potentially_failed = True
        if self.trace is not None:
            self.trace.emit(
                now, self.host.name, CAT_RECOVERY, "rto", self.interface_index
            )
        self.owner.flow_on_rto(self)
        self._arm_rto()
        self.try_send()

    # ------------------------------------------------------------------
    # Wire
    # ------------------------------------------------------------------

    def _emit(self, segment: Segment) -> None:
        now = self.sim.now
        size = segment.wire_size
        if segment.syn and self.role == "client":
            self._syn_time = now
        self.segments_sent += 1
        self.bytes_sent += size
        self.last_send_time = now
        if self.trace is not None:
            self.trace.emit(
                now, self.host.name, CAT_TRANSPORT, "packet_sent",
                self.interface_index, packet_number=segment.seq, size=size,
            )
        self.host.send(Datagram(segment, size), self.interface_index)

    def close_timers(self) -> None:
        """Cancel outstanding timers (teardown)."""
        self._cancel_rto()
        if self._ack_timer is not None:
            self._ack_timer.cancel()
            self._ack_timer = None
        if self._tlp_timer is not None:
            self._tlp_timer.cancel()
            self._tlp_timer = None
