"""Stream send/receive state.

STREAM frames carry ``(stream id, offset, data)``, which is all a
receiver needs to reorder data arriving over *different paths* — the
property that lets MPQUIC spread one stream across paths without any
extra sequence-number space (paper §3, *Reliable Data Transmission*).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.quic.frames import StreamFrame
from repro.util.ranges import RangeSet
from repro.util.reassembly import Reassembler


class SendStream:
    """Outgoing half of a stream.

    Holds the application data, hands out STREAM frames (new data or
    retransmissions), and tracks acknowledged byte ranges so lost
    frames whose bytes were meanwhile acked via a duplicate copy on
    another path are not retransmitted again.
    """

    __slots__ = (
        "stream_id", "_buffer", "fin_offset", "_next_new_offset",
        "_retransmit", "_acked", "_fin_sent", "_fin_acked",
    )

    def __init__(self, stream_id: int) -> None:
        self.stream_id = stream_id
        self._buffer = bytearray()
        self.fin_offset: Optional[int] = None
        self._next_new_offset = 0
        self._retransmit = RangeSet()
        self._acked = RangeSet()
        self._fin_sent = False
        self._fin_acked = False

    def write(self, data: bytes, fin: bool = False) -> None:
        """Append application data; ``fin`` closes the stream."""
        if self.fin_offset is not None:
            raise ValueError("stream already finished")
        self._buffer += data
        if fin:
            self.fin_offset = len(self._buffer)

    @property
    def buffered_bytes(self) -> int:
        """Total bytes the application has written."""
        return len(self._buffer)

    def has_data_to_send(self, flow_budget: int) -> bool:
        """True when a useful frame can be produced now.

        ``flow_budget`` limits *new* data only; retransmissions are
        always allowed (their offsets were within past limits).
        """
        # Peeks RangeSet internals / inlines _fin_pending: this is the
        # per-packet "anything left?" probe on every send opportunity.
        if self._retransmit._bounds:
            return True
        next_new = self._next_new_offset
        if next_new < len(self._buffer) and flow_budget > 0:
            return True
        fin_offset = self.fin_offset
        return (
            fin_offset is not None
            and not self._fin_sent
            and next_new >= fin_offset
        )

    def _fin_pending(self) -> bool:
        return (
            self.fin_offset is not None
            and not self._fin_sent
            and self._next_new_offset >= self.fin_offset
        )

    def next_frame(self, max_bytes: int, flow_budget: int) -> Optional[Tuple[StreamFrame, int]]:
        """Produce the next STREAM frame.

        Returns ``(frame, new_data_len)`` where ``new_data_len`` is the
        number of never-before-sent bytes (what counts against flow
        control), or None if nothing can be sent.  Retransmissions are
        served first, as in quic-go.
        """
        if max_bytes <= 0:
            return None
        if self._retransmit._bounds:
            start, stop = next(iter(self._retransmit))
            stop = min(stop, start + max_bytes)
            self._retransmit.remove(start, stop)
            data = bytes(self._buffer[start:stop])
            fin = self.fin_offset is not None and stop == self.fin_offset
            return StreamFrame(self.stream_id, start, data, fin), 0
        available = len(self._buffer) - self._next_new_offset
        if available > 0 and flow_budget > 0:
            length = min(available, max_bytes, flow_budget)
            start = self._next_new_offset
            data = bytes(self._buffer[start:start + length])
            self._next_new_offset += length
            fin = self._fin_pending()
            if fin:
                self._fin_sent = True
            return StreamFrame(self.stream_id, start, data, fin), length
        if self._fin_pending():
            self._fin_sent = True
            return StreamFrame(
                self.stream_id, self._next_new_offset, b"", True
            ), 0
        return None

    def on_frame_acked(self, frame: StreamFrame) -> None:
        """Mark a frame's byte range (and FIN) as delivered."""
        if frame.data:
            self._acked.add(frame.offset, frame.offset + len(frame.data))
            # A range acked while queued for retransmission need not go out.
            self._retransmit.remove(frame.offset, frame.offset + len(frame.data))
        if frame.fin:
            self._fin_acked = True

    def on_frame_lost(self, frame: StreamFrame) -> None:
        """Queue a lost frame's un-acked bytes for retransmission."""
        if frame.data:
            start, stop = frame.offset, frame.offset + len(frame.data)
            cursor = start
            while cursor < stop:
                gap = self._acked.first_gap_after(cursor)
                if gap >= stop:
                    break
                gap_end = stop
                for astart, _astop in self._acked:
                    if astart > gap:
                        gap_end = min(gap_end, astart)
                        break
                if gap < gap_end:
                    self._retransmit.add(gap, gap_end)
                cursor = gap_end
        if frame.fin and not self._fin_acked:
            self._fin_sent = False  # resend the FIN marker

    @property
    def all_acked(self) -> bool:
        """True when every written byte (and FIN, if any) is delivered."""
        if self.fin_offset is None:
            return False
        if not self._fin_acked:
            return False
        if self.fin_offset == 0:
            return True
        return self._acked.contains_range(0, self.fin_offset)

    @property
    def bytes_acked(self) -> int:
        return self._acked.total


class RecvStream:
    """Incoming half of a stream: reassembly plus consumption tracking."""

    __slots__ = ("stream_id", "reassembler", "fin_received")

    def __init__(self, stream_id: int) -> None:
        self.stream_id = stream_id
        self.reassembler = Reassembler()
        self.fin_received = False

    def on_frame(self, frame: StreamFrame) -> bytes:
        """Absorb a STREAM frame; returns newly in-order data."""
        if frame.fin:
            self.reassembler.set_final_size(frame.offset + len(frame.data))
            self.fin_received = True
        if frame.data:
            self.reassembler.insert(frame.offset, frame.data)
        return self.reassembler.pop_ready()

    @property
    def highest_offset(self) -> int:
        return self.reassembler.highest_offset

    @property
    def is_complete(self) -> bool:
        return self.reassembler.is_complete()
