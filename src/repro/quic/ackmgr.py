"""Receiver-side acknowledgment bookkeeping (one per path).

Tracks which packet numbers arrived and produces ACK frames with up to
256 ranges — the mechanism the paper credits for QUIC's superior loss
handling compared with TCP's 2–3 SACK blocks (§4.1, low-BDP-losses).
"""

from __future__ import annotations

from typing import Optional

from repro.quic.frames import AckFrame, MAX_ACK_RANGES
from repro.util import sanitize as _san
from repro.util.ranges import RangeSet

#: Maximum time a receiver may sit on an acknowledgment.
MAX_ACK_DELAY = 0.025

#: Send an ACK after this many ack-eliciting packets.
ACK_EVERY_N = 2


class AckManager:
    """Accumulates received packet numbers and decides when to ACK."""

    __slots__ = (
        "path_id", "received", "largest_received", "largest_received_time",
        "_unacked_eliciting", "_ack_pending", "_reordering_seen",
    )

    def __init__(self, path_id: int) -> None:
        self.path_id = path_id
        self.received = RangeSet()
        self.largest_received = -1
        self.largest_received_time = 0.0
        self._unacked_eliciting = 0
        self._ack_pending = False
        self._reordering_seen = False

    def on_packet_received(self, packet_number: int, now: float, ack_eliciting: bool) -> None:
        """Record an arriving packet."""
        received = self.received
        largest = self.largest_received
        # Anything above the largest seen so far cannot be a duplicate;
        # skip the membership bisect on the dominant in-order arrival.
        duplicate = packet_number <= largest and packet_number in received
        received.add_value(packet_number)
        # Hard bound on receiver state: ACK frames carry at most
        # MAX_ACK_RANGES ranges, so ranges below that window can never
        # be reported again — drop the lowest ones.  The sender's
        # retransmission machinery covers anything forgotten here.
        # (Peeks the bounds list directly: this runs per packet and the
        # bound is almost never hit.)
        if len(received._bounds) > 2 * MAX_ACK_RANGES:
            while len(received) > MAX_ACK_RANGES:
                lowest_start, lowest_stop = next(iter(received))
                received.remove(lowest_start, lowest_stop)
        if packet_number > largest:
            if packet_number != largest + 1:
                self._reordering_seen = True  # gap: ack promptly
            self.largest_received = packet_number
            self.largest_received_time = now
        elif not duplicate:
            self._reordering_seen = True  # filled an old gap
        if ack_eliciting and not duplicate:
            self._unacked_eliciting += 1
            self._ack_pending = True

    @property
    def ack_pending(self) -> bool:
        """True when an ACK frame should eventually be sent."""
        return self._ack_pending

    def should_ack_now(self) -> bool:
        """True when an ACK should not be delayed any further."""
        if not self._ack_pending:
            return False
        return self._unacked_eliciting >= ACK_EVERY_N or self._reordering_seen

    def build_ack(self, now: float, commit: bool = True) -> Optional[AckFrame]:
        """Produce an ACK frame covering everything received so far.

        With ``commit=False`` the pending state is left untouched, for
        callers that may discard the frame (e.g. opportunistic
        piggybacking on a data packet that ends up empty).
        """
        if self.largest_received < 0:
            return None
        ranges = tuple(self.received.descending_ranges(limit=MAX_ACK_RANGES))
        if _san.SANITIZE:
            # An ACK must never claim packets that were not received.
            for start, stop in ranges:
                _san.check(
                    self.received.contains_range(start, stop),
                    "ACK range covers unreceived packet numbers",
                    range=(start, stop),
                )
            _san.check(
                bool(ranges) and ranges[0][1] - 1 == self.largest_received,
                "ACK largest_acked disagrees with received ranges",
                largest_received=self.largest_received,
                first_range=ranges[0] if ranges else None,
            )
        ack_delay = max(0.0, now - self.largest_received_time)
        if commit:
            self._unacked_eliciting = 0
            self._ack_pending = False
            self._reordering_seen = False
        return AckFrame(
            self.path_id,
            self.largest_received,
            ack_delay,
            ranges,
        )

    def commit_ack(self) -> None:
        """Mark the last peeked ACK as sent (see ``build_ack``)."""
        self._unacked_eliciting = 0
        self._ack_pending = False
        self._reordering_seen = False

    def forget_below(self, packet_number: int) -> None:
        """Drop state for packets below ``packet_number``.

        Called once the peer has confirmed it saw our ACKs for those
        packets, bounding the size of future ACK frames.
        """
        if packet_number > 0:
            self.received.remove(0, packet_number)
