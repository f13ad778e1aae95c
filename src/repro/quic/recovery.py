"""Loss detection for one packet-number space (one path).

Implements QUIC-style recovery: every transmission gets a fresh packet
number, losses are declared via a packet-reordering threshold or a time
threshold, and a retransmission timeout (RTO) with exponential backoff
backstops tail losses.  Frames from lost packets are returned to the
connection, which is free to rebind them onto *any* path (paper §3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.quic.frames import AckFrame, Frame
from repro.quic.rtt import RttEstimator
from repro.util import sanitize as _san


class SentPacket:
    """Bookkeeping for one in-flight packet."""

    __slots__ = ("packet_number", "frames", "size", "time_sent", "ack_eliciting")

    def __init__(
        self,
        packet_number: int,
        frames: Tuple[Frame, ...],
        size: int,
        time_sent: float,
        ack_eliciting: bool,
    ) -> None:
        self.packet_number = packet_number
        self.frames = frames
        self.size = size
        self.time_sent = time_sent
        self.ack_eliciting = ack_eliciting

    def __repr__(self) -> str:
        return (
            f"SentPacket(packet_number={self.packet_number!r}, "
            f"frames={self.frames!r}, size={self.size!r}, "
            f"time_sent={self.time_sent!r}, "
            f"ack_eliciting={self.ack_eliciting!r})"
        )


@dataclass
class AckResult:
    """Outcome of processing one ACK frame."""

    newly_acked: List[SentPacket]
    lost: List[SentPacket]
    rtt_sample: Optional[float]
    acked_bytes: int


class LossRecovery:
    """Sender-side recovery state for a single path."""

    __slots__ = (
        "rtt", "packet_threshold", "time_fraction", "sent", "largest_acked",
        "largest_sent", "_floor", "bytes_in_flight", "eliciting_in_flight",
        "consecutive_rtos", "time_of_last_eliciting", "packets_lost_total",
        "packets_acked_total", "rto_count", "on_packets_lost",
    )

    def __init__(
        self,
        rtt: RttEstimator,
        packet_threshold: int = 3,
        time_fraction: float = 1.125,
    ) -> None:
        self.rtt = rtt
        self.packet_threshold = packet_threshold
        self.time_fraction = time_fraction
        self.sent: Dict[int, SentPacket] = {}
        self.largest_acked = -1
        self.largest_sent = -1
        #: Packet numbers below this are known to be fully resolved;
        #: lets ACK-range processing skip history in O(1).
        self._floor = 0
        self.bytes_in_flight = 0
        #: Count of ack-eliciting packets in ``sent``; kept in lockstep
        #: so the per-packet ``has_eliciting_in_flight()`` timer checks
        #: are O(1) instead of scanning the in-flight table.
        self.eliciting_in_flight = 0
        self.consecutive_rtos = 0
        self.time_of_last_eliciting = 0.0
        #: Statistics.
        self.packets_lost_total = 0
        self.packets_acked_total = 0
        self.rto_count = 0
        #: Optional telemetry hook ``fn(lost_packets)`` invoked with the
        #: freshly declared-lost packets (wired when a tracer is
        #: attached; one ``is None`` check otherwise).
        self.on_packets_lost: Optional[Callable[[List[SentPacket]], None]] = None

    # -- sending -------------------------------------------------------------

    def on_packet_sent(self, packet_number: int, frames: Tuple[Frame, ...], size: int, now: float, ack_eliciting: bool) -> None:
        """Register a freshly transmitted packet."""
        if _san.SANITIZE:
            # Per-path packet numbers are strictly monotonic: reuse
            # would repeat an AEAD nonce and corrupt loss detection.
            _san.check(
                packet_number > self.largest_sent,
                "packet number not strictly monotonic on this path",
                packet_number=packet_number,
                largest_sent=self.largest_sent,
            )
        sp = SentPacket(packet_number, frames, size, now, ack_eliciting)
        self.sent[packet_number] = sp
        if packet_number > self.largest_sent:
            self.largest_sent = packet_number
        if ack_eliciting:
            self.bytes_in_flight += size
            self.eliciting_in_flight += 1
            self.time_of_last_eliciting = now

    # -- ack processing --------------------------------------------------------

    def on_ack_received(self, ack: AckFrame, now: float) -> AckResult:
        """Process an ACK frame for this path's number space."""
        if _san.SANITIZE:
            # Note: largest_acked may exceed largest_sent here because
            # pure-ACK packets take numbers without registering with
            # recovery; the allocation-bound check lives in the
            # connection, which owns the number allocator.
            for start, stop in ack.ranges:
                _san.check(
                    0 <= start < stop <= ack.largest_acked + 1,
                    "malformed ACK range",
                    range=(start, stop),
                    largest_acked=ack.largest_acked,
                )
        newly_acked: List[SentPacket] = []
        rtt_sample: Optional[float] = None
        acked_bytes = 0
        for start, stop in ack.ranges:
            # Everything below the floor was already acked or declared
            # lost; skipping it keeps processing linear over a transfer.
            pn = max(start, self._floor)
            while pn < stop:
                sp = self.sent.pop(pn, None)
                if sp is not None:
                    newly_acked.append(sp)
                    if sp.ack_eliciting:
                        self.bytes_in_flight -= sp.size
                        self.eliciting_in_flight -= 1
                        acked_bytes += sp.size
                    if pn == ack.largest_acked:
                        rtt_sample = now - sp.time_sent
                pn += 1
        if ack.largest_acked > self.largest_acked:
            self.largest_acked = ack.largest_acked
        while self._floor < self.largest_acked and self._floor not in self.sent:
            self._floor += 1
        if _san.SANITIZE:
            _san.check(
                self.bytes_in_flight >= 0,
                "bytes_in_flight went negative after ACK processing",
                bytes_in_flight=self.bytes_in_flight,
            )
        if rtt_sample is not None:
            self.rtt.update(rtt_sample, ack.ack_delay)
        if newly_acked:
            self.consecutive_rtos = 0
        lost = self._detect_losses(now)
        self.packets_acked_total += len(newly_acked)
        self.packets_lost_total += len(lost)
        return AckResult(newly_acked, lost, rtt_sample, acked_bytes)

    def _loss_delay(self) -> float:
        base = max(self.rtt.smoothed, self.rtt.latest)
        if base <= 0:
            base = 0.1
        return self.time_fraction * base

    def _detect_losses(self, now: float) -> List[SentPacket]:
        """Packet- and time-threshold loss detection below largest_acked."""
        if self.largest_acked < 0:
            return []
        loss_delay = self._loss_delay()
        lost: List[SentPacket] = []
        # `sent` is insertion-ordered by ascending packet number, so we
        # may stop at the first pn >= largest_acked.
        for pn, sp in self.sent.items():
            if pn >= self.largest_acked:
                break
            if (
                self.largest_acked - pn >= self.packet_threshold
                # The 1us slack avoids a floating-point livelock when a
                # loss timer fires exactly at time_sent + loss_delay.
                or now - sp.time_sent >= loss_delay - 1e-6
            ):
                lost.append(sp)
        for sp in lost:
            del self.sent[sp.packet_number]
            if sp.ack_eliciting:
                self.bytes_in_flight -= sp.size
                self.eliciting_in_flight -= 1
        if lost and self.on_packets_lost is not None:
            self.on_packets_lost(lost)
        return lost

    def next_loss_time(self, now: float) -> Optional[float]:
        """Earliest instant a time-threshold loss could be declared."""
        if self.largest_acked < 0:
            return None
        # Computed lazily: in the dominant no-reordering case the first
        # in-flight packet number is already >= largest_acked and the
        # loop exits without needing the delay at all.
        loss_delay: Optional[float] = None
        candidate: Optional[float] = None
        for pn, sp in self.sent.items():
            if pn >= self.largest_acked:
                break
            if loss_delay is None:
                loss_delay = self._loss_delay()
            t = sp.time_sent + loss_delay
            if candidate is None or t < candidate:
                candidate = t
        return candidate

    def detect_losses_now(self, now: float) -> List[SentPacket]:
        """Re-run time-threshold detection (loss timer fired)."""
        lost = self._detect_losses(now)
        self.packets_lost_total += len(lost)
        return lost

    # -- RTO ------------------------------------------------------------------

    def rto_timeout(self, min_rto: float, max_rto: float, initial_rto: float) -> float:
        """Current RTO value, with exponential backoff applied."""
        if self.rtt.has_sample:
            base = self.rtt.rto(min_rto=min_rto, max_rto=max_rto)
        else:
            base = initial_rto
        return min(base * (2 ** self.consecutive_rtos), max_rto)

    def has_eliciting_in_flight(self) -> bool:
        """True while any ack-eliciting packet awaits acknowledgment."""
        return self.eliciting_in_flight > 0

    def drain_in_flight(self) -> List[SentPacket]:
        """Hand back every ack-eliciting in-flight packet *without*
        declaring it lost.

        Used when a path turns potentially failed: its outstanding
        window is reinjected onto the surviving paths immediately
        (paper §4.3 / the reinjection policy of De Coninck 2021),
        which is a scheduling decision, not a loss event — so loss
        counters, RTO backoff and the ``on_packets_lost`` telemetry
        hook are deliberately left untouched.
        """
        drained: List[SentPacket] = []
        for pn in list(self.sent):
            sp = self.sent[pn]
            if sp.ack_eliciting:
                del self.sent[pn]
                self.bytes_in_flight -= sp.size
                self.eliciting_in_flight -= 1
                drained.append(sp)
        return drained

    def on_rto_fired(self, now: float) -> List[SentPacket]:
        """Handle an RTO: hand back all in-flight packets for retransmission.

        Like a TCP RTO (which marks every unacknowledged segment lost),
        the whole outstanding window becomes eligible again.  This
        matters for multipath: the retransmissions are new packets that
        may be scheduled onto *other* paths, so this path's own number
        space may never advance again — waiting for per-packet RTOs
        would drip out the backlog two packets per backed-off timeout.
        Ranges meanwhile acknowledged through a duplicate copy are
        filtered out by the stream layer, bounding spurious traffic.
        """
        self.consecutive_rtos += 1
        self.rto_count += 1
        lost: List[SentPacket] = []
        for pn in list(self.sent):
            sp = self.sent[pn]
            if sp.ack_eliciting:
                del self.sent[pn]
                self.bytes_in_flight -= sp.size
                self.eliciting_in_flight -= 1
                lost.append(sp)
        self.packets_lost_total += len(lost)
        if lost and self.on_packets_lost is not None:
            self.on_packets_lost(lost)
        return lost

    # -- misc -----------------------------------------------------------------

    @property
    def smallest_unacked(self) -> Optional[int]:
        return min(self.sent) if self.sent else None
