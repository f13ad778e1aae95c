"""QUIC packets: containers of frames.

Each packet carries a small public header (flags, connection ID, packet
number and — under multipath — the Path ID) and a payload of frames.
Packet numbers increase monotonically within one path's number space
and are never reused, even for retransmitted data (which removes the
retransmission ambiguity that plagues TCP RTT estimation; paper §2).

``Packet`` is a ``__slots__`` class with ``wire_size`` and
``is_ack_eliciting`` computed once at construction: the send loop reads
both per packet (bandwidth accounting and ACK bookkeeping on each hop),
and recomputing them was a measurable share of the per-packet cost.
The cached values stay honest because a packet's frame tuple is fixed
for its lifetime and frames are immutable values.
"""

from __future__ import annotations

from typing import Tuple

from repro.quic import wire
from repro.quic.frames import Frame

_HEADER_MP = wire.public_header_size(True)
_HEADER_SP = wire.public_header_size(False)


class Packet:
    """An outgoing or incoming QUIC packet."""

    __slots__ = (
        "path_id",
        "packet_number",
        "frames",
        "connection_id",
        "multipath",
        "wire_size",
        "is_ack_eliciting",
    )

    path_id: int
    packet_number: int
    frames: Tuple[Frame, ...]
    connection_id: int
    multipath: bool
    #: Total bytes on the wire (header + frames), sans UDP/IP.
    wire_size: int
    #: True when the peer must acknowledge this packet.  Packets
    #: containing only ACK frames are not themselves acked, preventing
    #: infinite ACK ping-pong.
    is_ack_eliciting: bool

    def __init__(
        self,
        path_id: int,
        packet_number: int,
        frames: Tuple[Frame, ...],
        connection_id: int = 0,
        multipath: bool = False,
    ) -> None:
        self.path_id = path_id
        self.packet_number = packet_number
        self.frames = frames
        self.connection_id = connection_id
        self.multipath = multipath
        size = _HEADER_MP if multipath else _HEADER_SP
        eliciting = False
        for frame in frames:
            size += frame.wire_size()
            if frame.retransmittable:
                eliciting = True
        self.wire_size = size
        self.is_ack_eliciting = eliciting

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Packet:
            return NotImplemented
        return (
            self.path_id == other.path_id
            and self.packet_number == other.packet_number
            and self.frames == other.frames
            and self.connection_id == other.connection_id
            and self.multipath == other.multipath
        )

    def __hash__(self) -> int:
        return hash(
            (
                self.path_id,
                self.packet_number,
                self.frames,
                self.connection_id,
                self.multipath,
            )
        )

    def __repr__(self) -> str:
        return (
            f"Packet(path_id={self.path_id!r}, "
            f"packet_number={self.packet_number!r}, frames={self.frames!r}, "
            f"connection_id={self.connection_id!r}, "
            f"multipath={self.multipath!r})"
        )

    def encode(self) -> bytes:
        """Serialize to bytes (see :mod:`repro.quic.wire`)."""
        return wire.encode_packet(self)

    @staticmethod
    def decode(buf: bytes) -> "Packet":
        """Parse bytes back into a packet."""
        return wire.decode_packet(buf)


#: Per-datagram overhead charged by the simulator: IPv4 (20) + UDP (8).
UDP_IP_OVERHEAD = 28
