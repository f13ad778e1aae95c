"""Sets of non-overlapping integer ranges.

Used for QUIC ACK ranges, TCP SACK scoreboards and stream reassembly
bookkeeping.  Ranges are half-open ``[start, stop)`` and kept sorted and
coalesced at all times.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Iterator, List, Tuple


class RangeSet:
    """A sorted set of disjoint half-open integer ranges.

    The representation is a flat sorted list ``[s0, e0, s1, e1, ...]``
    with ``s0 < e0 < s1 < e1 < ...`` which keeps membership tests and
    insertions logarithmic-plus-shift.  ``total``, the number of
    integers covered, is a plain attribute kept current by every
    mutation (read-only for callers): the TCP pipe estimate reads it
    several times per segment.
    """

    __slots__ = ("_bounds", "total")

    def __init__(self, ranges: Iterable[Tuple[int, int]] = ()) -> None:
        self._bounds: List[int] = []
        self.total = 0
        for start, stop in ranges:
            self.add(start, stop)

    def add(self, start: int, stop: int) -> None:
        """Insert ``[start, stop)``, merging with any overlapping ranges."""
        if stop <= start:
            return
        b = self._bounds
        # Fast path for the dominant in-order pattern (ACK ranges and
        # stream reassembly almost always grow at the top end).
        if b:
            last = b[-1]
            if start > last:  # disjoint new range at the end
                b.append(start)
                b.append(stop)
                self.total += stop - start
                return
            if start == last:  # touches the last range: extend it
                b[-1] = stop
                self.total += stop - start
                return
        else:
            b.append(start)
            b.append(stop)
            self.total = stop - start
            return
        # Index of first bound > start and >= stop respectively.
        lo = bisect.bisect_right(b, start)
        hi = bisect.bisect_left(b, stop)
        # If lo is even, start falls in a gap; the new range begins at start.
        new_start = start if lo % 2 == 0 else b[lo - 1]
        new_stop = stop if hi % 2 == 0 else b[hi]
        if lo % 2 == 0:
            left = lo
        else:
            left = lo - 1
        if hi % 2 == 0:
            right = hi
        else:
            right = hi + 1
        # Merge with an adjacent (touching) range on each side.
        if left >= 2 and b[left - 1] == new_start:
            new_start = b[left - 2]
            left -= 2
        if right + 1 < len(b) and b[right] == new_stop:
            new_stop = b[right + 1]
            right += 2
        grown = new_stop - new_start
        for i in range(left, right, 2):  # less the ranges swallowed
            grown -= b[i + 1] - b[i]
        self.total += grown
        b[left:right] = [new_start, new_stop]

    def add_value(self, value: int) -> None:
        """Insert a single integer."""
        self.add(value, value + 1)

    def remove(self, start: int, stop: int) -> None:
        """Remove ``[start, stop)`` from the set."""
        b = self._bounds
        if stop <= start or not b:
            return
        lo = bisect.bisect_right(b, start)
        hi = bisect.bisect_left(b, stop)
        insert: List[int] = []
        delta = 0  # change in `total`: parts kept less ranges cut
        if lo % 2 == 1:  # start falls inside a range: keep its left part
            if b[lo - 1] < start:
                insert.extend((b[lo - 1], start))
                delta = start - b[lo - 1]
            lo -= 1
        if hi % 2 == 1:  # stop falls inside a range: keep its right part
            if stop < b[hi]:
                insert.extend((stop, b[hi]))
                delta += b[hi] - stop
            hi += 1
        if lo != hi:
            for i in range(lo, hi, 2):
                delta -= b[i + 1] - b[i]
            self.total += delta
            b[lo:hi] = insert

    def __contains__(self, value: int) -> bool:
        idx = bisect.bisect_right(self._bounds, value)
        return idx % 2 == 1

    def contains_range(self, start: int, stop: int) -> bool:
        """True when the whole of ``[start, stop)`` is present."""
        if stop <= start:
            return True
        idx = bisect.bisect_right(self._bounds, start)
        return idx % 2 == 1 and stop <= self._bounds[idx]

    def intersects(self, start: int, stop: int) -> bool:
        """True when any integer of ``[start, stop)`` is present."""
        if stop <= start:
            return False
        b = self._bounds
        lo = bisect.bisect_right(b, start)
        hi = bisect.bisect_left(b, stop)
        return lo % 2 == 1 or hi != lo

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        b = self._bounds
        for i in range(0, len(b), 2):
            yield (b[i], b[i + 1])

    def __len__(self) -> int:
        return len(self._bounds) // 2

    def __bool__(self) -> bool:
        return bool(self._bounds)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RangeSet):
            return NotImplemented
        return self._bounds == other._bounds

    def __repr__(self) -> str:
        inner = ", ".join(f"[{s},{e})" for s, e in self)
        return f"RangeSet({inner})"

    @property
    def min(self) -> int:
        """Smallest covered integer.  Raises ``IndexError`` when empty."""
        return self._bounds[0]

    @property
    def max(self) -> int:
        """Largest covered integer.  Raises ``IndexError`` when empty."""
        return self._bounds[-1] - 1

    def copy(self) -> "RangeSet":
        dup = RangeSet()
        dup._bounds = list(self._bounds)
        dup.total = self.total
        return dup

    def first_gap_after(self, value: int) -> int:
        """Smallest integer >= ``value`` that is *not* in the set."""
        idx = bisect.bisect_right(self._bounds, value)
        if idx % 2 == 1:
            return self._bounds[idx]
        return value

    def descending_ranges(self, limit: int = 0) -> List[Tuple[int, int]]:
        """Ranges from highest to lowest, optionally truncated to ``limit``.

        QUIC ACK frames report the most recent (highest) packet ranges
        first and cap the number of ranges they carry; TCP SACK blocks
        behave similarly with a much smaller cap.
        """
        b = self._bounds
        ranges = [(b[i], b[i + 1]) for i in range(len(b) - 2, -1, -2)]
        if limit:
            ranges = ranges[:limit]
        return ranges
