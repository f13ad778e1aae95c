"""In-order byte-stream reassembly from out-of-order chunks.

Shared by the QUIC receive stream (STREAM frames carry ``(offset, data)``)
and the TCP receiver (segments carry ``(seq, data)``).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from repro.obs import metrics as _metrics
from repro.util.ranges import RangeSet


class Reassembler:
    """Reassembles a byte stream from ``(offset, bytes)`` chunks.

    Chunks may arrive out of order, overlap or duplicate each other.
    ``pop_ready()`` returns the longest prefix of newly contiguous data
    starting at the current read offset.

    Buffered chunks are indexed both by a dict (offset -> bytes) and a
    min-heap of offsets, so each delivery attempt peeks the lowest
    buffered offset in O(1) instead of sorting every buffered offset —
    the sort dominated receive-side profiles under heavy reordering.
    """

    __slots__ = (
        "_received", "_chunks", "_offsets", "_read_offset",
        "_final_size", "_upper",
    )

    def __init__(self) -> None:
        self._received = RangeSet()
        self._chunks: Dict[int, bytes] = {}
        #: Min-heap over ``self._chunks`` keys.  Offsets are unique
        #: (stored chunks are disjoint and a received span is never
        #: re-inserted), so heap and dict stay in lock-step.
        self._offsets: List[int] = []
        self._read_offset = 0
        self._final_size: Optional[int] = None
        #: One past the highest received offset; mirrors
        #: ``self._received.max + 1`` without the property walk on the
        #: per-chunk hot path (``_received`` only ever grows).
        self._upper = 0

    @property
    def read_offset(self) -> int:
        """Offset of the next byte to be delivered to the application."""
        return self._read_offset

    @property
    def final_size(self) -> Optional[int]:
        """Stream length as signalled by a FIN, if seen."""
        return self._final_size

    @property
    def bytes_received(self) -> int:
        """Number of distinct byte positions received so far."""
        return self._received.total

    @property
    def highest_offset(self) -> int:
        """One past the highest byte offset seen (flow-control relevant)."""
        return self._upper

    def set_final_size(self, size: int) -> None:
        """Record the total stream size signalled by a FIN marker."""
        if self._final_size is not None and self._final_size != size:
            raise ValueError(
                f"conflicting final sizes: {self._final_size} vs {size}"
            )
        if self._received and self._received.max >= size:
            raise ValueError("data received beyond the signalled final size")
        self._final_size = size

    def insert(self, offset: int, data: bytes) -> None:
        """Store a chunk; overlapping parts of older chunks are trimmed."""
        if not data:
            return
        end = offset + len(data)
        if self._final_size is not None and end > self._final_size:
            raise ValueError("data received beyond the signalled final size")
        if end <= self._read_offset:
            return  # Entirely in the past.
        if offset < self._read_offset:
            data = data[self._read_offset - offset:]
            offset = self._read_offset
        # Fast path: the chunk lies entirely above everything received
        # so far (the dominant in-order case) — no trimming, no copy.
        if offset >= self._upper:
            self._chunks[offset] = data
            heapq.heappush(self._offsets, offset)
            self._received.add(offset, end)
            self._upper = end
            if _metrics.METRICS:
                _metrics.REGISTRY.inc("reassembly.chunks_inserted")
            return
        # Trim against already-received spans so stored chunks are disjoint.
        pieces: List[Tuple[int, bytes]] = []
        cursor = offset
        stop = offset + len(data)
        while cursor < stop:
            gap_start = self._received.first_gap_after(cursor)
            if gap_start >= stop:
                break
            gap_end = stop
            for start, end_ in self._received:
                if start > gap_start:
                    gap_end = min(gap_end, start)
                    break
            pieces.append((gap_start, data[gap_start - offset:gap_end - offset]))
            cursor = gap_end
        for piece_offset, piece in pieces:
            self._chunks[piece_offset] = piece
            heapq.heappush(self._offsets, piece_offset)
            self._received.add(piece_offset, piece_offset + len(piece))
        # The whole of [offset, stop) is now covered (pieces filled the
        # gaps; the rest was received before), so the upper bound is
        # simply the chunk end.
        if stop > self._upper:
            self._upper = stop
        if _metrics.METRICS:
            _metrics.REGISTRY.inc("reassembly.chunks_inserted")

    def pop_ready(self) -> bytes:
        """Return (and consume) contiguous data at the read offset."""
        out: List[bytes] = []
        while self._offsets:
            offset = self._offsets[0]
            if offset > self._read_offset:
                break  # Lowest buffered chunk is still out of order.
            heapq.heappop(self._offsets)
            chunk = self._chunks.pop(offset)
            end = offset + len(chunk)
            if end <= self._read_offset:
                continue  # Fully consumed by an earlier delivery.
            if offset < self._read_offset:
                # Chunk starts behind the read offset (a prior pop
                # consumed part of a coalesced range); deliver the tail.
                chunk = chunk[self._read_offset - offset:]
            out.append(chunk)
            self._read_offset = end
        if _metrics.METRICS and out:
            _metrics.REGISTRY.inc("reassembly.deliveries")
        if len(out) == 1:
            # Dominant in-order case: one chunk became ready — hand it
            # back as-is instead of paying a join copy.
            return out[0]
        return b"".join(out)

    def has_pending(self) -> bool:
        """True when :meth:`pending_ranges` would be non-empty."""
        return self._upper > self._read_offset

    def pending_ranges(self, limit: int = 0) -> List[Tuple[int, int]]:
        """Out-of-order spans above the read offset, newest (highest) first.

        This is exactly what a TCP receiver advertises in SACK blocks.
        """
        out = [
            (start, stop)
            for start, stop in self._received
            if stop > self._read_offset
        ]
        out.reverse()
        if limit:
            out = out[:limit]
        return out

    def is_complete(self) -> bool:
        """True when a FIN was seen and every byte has been delivered."""
        return (
            self._final_size is not None
            and self._read_offset >= self._final_size
        )
