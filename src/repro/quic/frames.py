"""QUIC frames.

Frames are the unit of information inside QUIC packets; packets are
merely their containers (paper §2).  Because frames are independent of
the packets carrying them, a multipath sender may rebind the frames of
a lost packet onto any path — the flexibility MPQUIC's scheduler
exploits (paper §3, *Packet Scheduling*).

Wire sizes follow :mod:`repro.quic.wire`; each frame caches its encoded
size at construction so the simulator can account for bandwidth without
serializing — or even re-measuring — every packet.

Frames are plain ``__slots__`` value classes rather than frozen
dataclasses: a transfer churns through one StreamFrame and a fraction
of an AckFrame per packet, and ``object.__setattr__``-based frozen
construction dominated the send-loop profile.  The transport builds a
frame once and never mutates it, so the same instance may sit in a
packet, a recovery entry and a duplicate on another path at once.

Value semantics (``__eq__``/``__hash__``/``__repr__`` over the declared
``_fields``) are preserved exactly as the frozen dataclasses had them;
the hypothesis wire round-trip corpora and the reassembly layer rely on
frame equality and hashability.
"""

from __future__ import annotations

from typing import ClassVar, Tuple

from repro.quic import wire

_varint_size = wire.varint_size

#: Maximum number of ACK ranges one ACK frame may carry (paper §4.1:
#: "the ACK frame ... can acknowledge up to 256 packet number ranges").
MAX_ACK_RANGES = 256


class _Value:
    """Dataclass-like value semantics for ``__slots__`` classes.

    Subclasses declare ``_fields``; equality, hashing and repr follow
    the frozen-dataclass contract: equal only to instances of the same
    class with equal field tuples, hash over the field tuple.
    """

    __slots__ = ()

    _fields: ClassVar[Tuple[str, ...]] = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name) for name in self._fields
        )

    def __hash__(self) -> int:
        return hash(
            (self.__class__,) + tuple(getattr(self, name) for name in self._fields)
        )

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__name__}({args})"


class Frame(_Value):
    """Base class; concrete frames are ``__slots__`` value classes."""

    __slots__ = ()

    #: Frames that must be retransmitted when their packet is lost.
    retransmittable = True

    def wire_size(self) -> int:
        raise NotImplementedError


class StreamFrame(Frame):
    """Carries ``data`` of stream ``stream_id`` starting at ``offset``."""

    __slots__ = ("stream_id", "offset", "data", "fin", "_ws")

    _fields = ("stream_id", "offset", "data", "fin")

    stream_id: int
    offset: int
    data: bytes
    fin: bool
    _ws: int

    def __init__(
        self, stream_id: int, offset: int, data: bytes, fin: bool = False
    ) -> None:
        self.stream_id = stream_id
        self.offset = offset
        self.data = data
        self.fin = fin
        # type byte + varint stream id + varint offset + 16-bit length
        self._ws = 3 + _varint_size(stream_id) + _varint_size(offset) + len(data)

    def wire_size(self) -> int:
        return self._ws

    def __len__(self) -> int:
        return len(self.data)


class AckFrame(Frame):
    """Acknowledges packet numbers received on one path.

    ``ranges`` are half-open ``[start, stop)`` intervals sorted in
    descending order (highest packets first), at most
    :data:`MAX_ACK_RANGES` of them.  ``ack_delay`` is the time the
    receiver held the largest acknowledged packet before acking —
    letting the peer compute unambiguous RTT estimates even when ACKs
    are delayed (paper §2).

    ``path_id`` identifies the packet-number space being acknowledged;
    MPQUIC lets the ACK for one path travel on any other path (§3).
    """

    __slots__ = ("path_id", "largest_acked", "ack_delay", "ranges", "_ws")

    retransmittable = False
    _fields = ("path_id", "largest_acked", "ack_delay", "ranges")

    path_id: int
    largest_acked: int
    ack_delay: float
    ranges: Tuple[Tuple[int, int], ...]
    _ws: int

    def __init__(
        self,
        path_id: int,
        largest_acked: int,
        ack_delay: float,
        ranges: Tuple[Tuple[int, int], ...],
    ) -> None:
        if len(ranges) > MAX_ACK_RANGES:
            raise ValueError(
                f"ACK frame limited to {MAX_ACK_RANGES} ranges, got {len(ranges)}"
            )
        self.path_id = path_id
        self.largest_acked = largest_acked
        self.ack_delay = ack_delay
        self.ranges = ranges
        # type + path id + varint largest + 16-bit delay + 16-bit count
        size = 6 + _varint_size(largest_acked)
        for start, stop in ranges:
            size += _varint_size(stop - start) + _varint_size(start)
        self._ws = size

    def wire_size(self) -> int:
        return self._ws

    def acked_packet_count(self) -> int:
        return sum(stop - start for start, stop in self.ranges)


class WindowUpdateFrame(Frame):
    """Advertises a new flow-control limit.

    ``stream_id`` 0 denotes the connection-level window.  MPQUIC sends
    these on *all* paths to dodge receive-buffer deadlocks when one
    path stalls (paper §3, *Packet Scheduling*).
    """

    __slots__ = ("stream_id", "byte_offset", "_ws")

    _fields = ("stream_id", "byte_offset")

    stream_id: int
    byte_offset: int
    _ws: int

    def __init__(self, stream_id: int, byte_offset: int) -> None:
        self.stream_id = stream_id
        self.byte_offset = byte_offset
        self._ws = 9 + _varint_size(stream_id)

    def wire_size(self) -> int:
        return self._ws


class PathInfo(_Value):
    """Per-path statistics carried by a PATHS frame."""

    __slots__ = ("path_id", "rtt_us")

    _fields = ("path_id", "rtt_us")

    path_id: int
    rtt_us: int

    def __init__(self, path_id: int, rtt_us: int) -> None:
        self.path_id = path_id
        self.rtt_us = rtt_us


class PathsFrame(Frame):
    """Shares the sender's view of its active (and failed) paths.

    Lets a host detect under-performing or broken paths and speeds up
    handover: on path failure, the retransmitted request carries a
    PATHS frame telling the server not to answer on the dead path
    (paper §3 *Path Management* and §4.3).
    """

    __slots__ = ("active", "failed", "_ws")

    _fields = ("active", "failed")

    active: Tuple[PathInfo, ...]
    failed: Tuple[int, ...]
    _ws: int

    def __init__(
        self, active: Tuple[PathInfo, ...], failed: Tuple[int, ...] = ()
    ) -> None:
        self.active = active
        self.failed = failed
        self._ws = 1 + 1 + len(active) * (1 + 4) + 1 + len(failed)

    def wire_size(self) -> int:
        return self._ws


class AddAddressFrame(Frame):
    """Advertises one address owned by the sending host.

    Encrypted and authenticated, so it avoids the security concerns of
    MPTCP's cleartext ADD_ADDR (paper §3, *Path Management*).
    """

    __slots__ = ("address", "_ws")

    _fields = ("address",)

    address: str
    _ws: int

    def __init__(self, address: str) -> None:
        self.address = address
        self._ws = 1 + 1 + len(address.encode())

    def wire_size(self) -> int:
        return self._ws


#: Wire size of a PATH_CHALLENGE / PATH_RESPONSE token, bytes.
PATH_TOKEN_SIZE = 8


class PathChallengeFrame(Frame):
    """Probes liveness of one path (RFC 9000 §8.2 style).

    Carries an opaque 8-byte token the peer must echo back in a
    PATH_RESPONSE *on the same path*; a matching echo proves the path
    forwards packets in both directions.  Probes are not retransmitted
    on loss — the liveness state machine's backed-off probe timer
    (see :mod:`repro.quic.connection`) is the retry mechanism — so the
    frame never arms the RTO machinery of a path already suspected
    dead.
    """

    __slots__ = ("data",)

    retransmittable = False
    _fields = ("data",)

    data: bytes

    def __init__(self, data: bytes) -> None:
        if len(data) != PATH_TOKEN_SIZE:
            raise ValueError(
                f"path challenge token must be {PATH_TOKEN_SIZE} bytes, "
                f"got {len(data)}"
            )
        self.data = data

    def wire_size(self) -> int:
        return 1 + PATH_TOKEN_SIZE


class PathResponseFrame(Frame):
    """Echoes a PATH_CHALLENGE token, validating the path it rode in on."""

    __slots__ = ("data",)

    retransmittable = False
    _fields = ("data",)

    data: bytes

    def __init__(self, data: bytes) -> None:
        if len(data) != PATH_TOKEN_SIZE:
            raise ValueError(
                f"path response token must be {PATH_TOKEN_SIZE} bytes, "
                f"got {len(data)}"
            )
        self.data = data

    def wire_size(self) -> int:
        return 1 + PATH_TOKEN_SIZE


class PingFrame(Frame):
    """Solicits an ACK; used to probe a path."""

    __slots__ = ()

    def wire_size(self) -> int:
        return 1


class HandshakeFrame(Frame):
    """Crypto handshake message (QUIC crypto, 1-RTT).

    ``kind`` is ``"CHLO"`` (client hello) or ``"SHLO"`` (server hello).
    ``length`` models the size of the real crypto payload.
    """

    __slots__ = ("kind", "length")

    _fields = ("kind", "length")

    kind: str
    length: int

    def __init__(self, kind: str, length: int = 0) -> None:
        self.kind = kind
        self.length = length

    def wire_size(self) -> int:
        return 1 + 2 + self.length


class ConnectionCloseFrame(Frame):
    """Terminates the connection.

    Never retransmitted by loss recovery: a close either arrives or the
    peer's own lifetime limits (idle timeout) finish the job, matching
    RFC 9000 §10.2's closing/draining behaviour.
    """

    __slots__ = ("error_code", "reason")

    retransmittable = False
    _fields = ("error_code", "reason")

    error_code: int
    reason: str

    def __init__(self, error_code: int = 0, reason: str = "") -> None:
        self.error_code = error_code
        self.reason = reason

    def wire_size(self) -> int:
        return 1 + 4 + 2 + len(self.reason.encode())
