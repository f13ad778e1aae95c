"""Value semantics of the ``__slots__`` frame classes.

The frames used to be frozen dataclasses; the hot-path rewrite turned
them into plain ``__slots__`` classes.  The wire round-trip corpora
(hypothesis) and the reassembly layer compare and hash frames, so these
tests pin the frozen-dataclass contract the rewrite promised to
preserve:

* equality is by-value over the declared fields, never identity;
* instances of different frame classes never compare equal;
* equal frames hash equal (dict/set membership keeps working);
* ``repr`` shows every declared field, round-trip-eval style.
"""

from __future__ import annotations

import pytest

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

#: (factory, same-value factory, different-value factory) per class.
CASES = [
    (
        lambda: StreamFrame(4, 100, b"abc", fin=True),
        lambda: StreamFrame(4, 100, b"abc", fin=True),
        lambda: StreamFrame(4, 101, b"abc", fin=True),
    ),
    (
        lambda: AckFrame(1, 9, 0.01, ((8, 10), (3, 5))),
        lambda: AckFrame(1, 9, 0.01, ((8, 10), (3, 5))),
        lambda: AckFrame(1, 9, 0.02, ((8, 10), (3, 5))),
    ),
    (
        lambda: WindowUpdateFrame(0, 65536),
        lambda: WindowUpdateFrame(0, 65536),
        lambda: WindowUpdateFrame(4, 65536),
    ),
    (
        lambda: PathsFrame((PathInfo(0, 30000),), (1,)),
        lambda: PathsFrame((PathInfo(0, 30000),), (1,)),
        lambda: PathsFrame((PathInfo(0, 30001),), (1,)),
    ),
    (
        lambda: AddAddressFrame("10.0.0.1"),
        lambda: AddAddressFrame("10.0.0.1"),
        lambda: AddAddressFrame("10.0.0.2"),
    ),
    (
        lambda: PathChallengeFrame(b"12345678"),
        lambda: PathChallengeFrame(b"12345678"),
        lambda: PathChallengeFrame(b"87654321"),
    ),
    (
        lambda: PathResponseFrame(b"12345678"),
        lambda: PathResponseFrame(b"12345678"),
        lambda: PathResponseFrame(b"87654321"),
    ),
    (
        lambda: HandshakeFrame("CHLO", 730),
        lambda: HandshakeFrame("CHLO", 730),
        lambda: HandshakeFrame("SHLO", 730),
    ),
    (
        lambda: ConnectionCloseFrame(1, "bye"),
        lambda: ConnectionCloseFrame(1, "bye"),
        lambda: ConnectionCloseFrame(2, "bye"),
    ),
]
IDS = [case[0]().__class__.__name__ for case in CASES]


class TestValueSemantics:
    @pytest.mark.parametrize("make,same,different", CASES, ids=IDS)
    def test_equality_is_by_value(self, make, same, different):
        a, b = make(), same()
        assert a is not b
        assert a == b
        assert make() != different()

    @pytest.mark.parametrize("make,same,different", CASES, ids=IDS)
    def test_equal_frames_hash_equal(self, make, same, different):
        assert hash(make()) == hash(same())
        # Set/dict membership — what the reassembly layer relies on.
        assert same() in {make()}
        assert different() not in {make()}

    @pytest.mark.parametrize("make,same,different", CASES, ids=IDS)
    def test_repr_names_class_and_fields(self, make, same, different):
        frame = make()
        text = repr(frame)
        assert text.startswith(frame.__class__.__name__ + "(")
        for name in frame._fields:
            assert f"{name}=" in text

    def test_different_classes_never_equal(self):
        # Same field values, different type: must not compare equal.
        assert PathChallengeFrame(b"12345678") != PathResponseFrame(b"12345678")
        assert PingFrame() != object()
        assert PingFrame() == PingFrame()

    def test_stream_frame_len_and_wire_size(self):
        frame = StreamFrame(4, 0, b"hello")
        assert len(frame) == 5
        assert frame.wire_size() > 5

    def test_mutation_changes_equality(self):
        # __slots__ classes are mutable; the transport treats frames as
        # immutable by convention, but equality must track field values
        # (no caching of the hashable tuple).
        a, b = StreamFrame(4, 0, b"x"), StreamFrame(4, 0, b"x")
        assert a == b
        a.offset = 1
        assert a != b

