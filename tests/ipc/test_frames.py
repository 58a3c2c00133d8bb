"""The frame header and the one body format, edge by edge."""

from __future__ import annotations

import marshal
import math
import multiprocessing
import struct

import pytest

from repro.ipc.frames import (
    FLAG_BATCH,
    FORMAT,
    HEADER,
    MAGIC,
    FrameError,
    pack_frame,
    unpack_frame,
)
from repro.ipc.transport import PipeTransport


def roundtrip(value):
    """One value through a real frame: marshal body, header, and back."""
    left_end, right_end = multiprocessing.Pipe(duplex=True)
    try:
        PipeTransport(left_end).send(value)
        return PipeTransport(right_end).recv()
    finally:
        left_end.close()
        right_end.close()


def float_bits(value: float) -> bytes:
    return struct.pack("!d", value)


class TestScalars:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            -1,
            127,
            -128,
            2**31,
            2**62,
            -(2**63),
            2**70,
            -(10**30),
            0.0,
            1.5,
            -273.15,
            "",
            "plain",
            "é — ünïcode ✓",
            "x" * 500,
        ],
    )
    def test_roundtrip_exact(self, value):
        result = roundtrip(value)
        assert result == value
        assert type(result) is type(value)

    def test_nan_payload_bit_exact(self):
        nan = struct.unpack("!d", bytes.fromhex("7ff8000000001234"))[0]
        result = roundtrip(nan)
        assert math.isnan(result)
        assert float_bits(result) == bytes.fromhex("7ff8000000001234")

    def test_negative_zero_keeps_its_sign(self):
        assert float_bits(roundtrip(-0.0)) == float_bits(-0.0)

    def test_infinities(self):
        assert roundtrip(float("inf")) == float("inf")
        assert roundtrip(float("-inf")) == float("-inf")

    def test_bool_is_not_int_on_the_wire(self):
        assert roundtrip([True, 1, False, 0]) == [True, 1, False, 0]
        assert [type(v) for v in roundtrip([True, 1])] == [bool, int]


class TestContainers:
    def test_nested_structures(self):
        value = {
            "records": [
                {"pairs": [["FILE", "f"], ["a", i]], "text": ""}
                for i in range(5)
            ],
            "spans": {"name": "kds.execute", "children": [{"name": "leaf"}]},
            "empty_list": [],
            "empty_dict": {},
        }
        assert roundtrip(value) == value

    def test_tuples_stay_tuples(self):
        value = {"pair": ("a", 1), "nested": [(1, 2), (3,)]}
        result = roundtrip(value)
        assert result == value
        assert type(result["pair"]) is tuple

    def test_unencodable_type_refused(self, pipe_pair):
        with pytest.raises(FrameError):
            PipeTransport(pipe_pair[0]).send({"bad": object()})

    def test_deep_nesting(self):
        value: list = []
        leaf = value
        for _ in range(60):
            inner: list = []
            leaf.append(inner)
            leaf = inner
        assert roundtrip(value) == value


class TestFrameHeader:
    def test_roundtrip(self):
        frame = pack_frame(FLAG_BATCH, b"payload")
        assert isinstance(frame, bytes)
        assert unpack_frame(frame) == (FLAG_BATCH, b"payload")

    def test_bad_magic_refused(self):
        frame = bytearray(pack_frame(0, b"x"))
        frame[0] ^= 0xFF
        with pytest.raises(FrameError, match="magic"):
            unpack_frame(bytes(frame))

    def test_truncated_frame_refused(self):
        frame = pack_frame(0, b"full payload")
        with pytest.raises(FrameError, match="length mismatch"):
            unpack_frame(frame[:-3])

    def test_short_header_refused(self):
        with pytest.raises(FrameError, match="short frame"):
            unpack_frame(bytes([MAGIC, 0]))

    def test_length_field_is_checked(self):
        header = HEADER.pack(MAGIC, FORMAT, 0, 99)
        with pytest.raises(FrameError, match="length mismatch"):
            unpack_frame(header + b"short")

    def test_trailing_bytes_refused(self):
        with pytest.raises(FrameError, match="length mismatch"):
            unpack_frame(pack_frame(0, b"x") + b"\x00")

    @pytest.mark.parametrize("foreign", [0x00, 0x02, 0xFF])
    def test_unknown_format_byte_refused(self, foreign):
        frame = bytearray(pack_frame(0, marshal.dumps({"x": 1})))
        frame[1] = foreign
        with pytest.raises(FrameError, match="format byte"):
            unpack_frame(bytes(frame))


class TestFrameBody:
    """Well-formed headers around bodies the receiver must still refuse."""

    def test_batch_flag_on_a_non_list_body_refused(self, pipe_pair):
        left_end, right_end = pipe_pair
        left_end.send_bytes(pack_frame(FLAG_BATCH, marshal.dumps({"x": 1})))
        with pytest.raises(FrameError, match="did not decode to a list"):
            PipeTransport(right_end).recv_any()

    def test_truncated_marshal_body_refused(self, pipe_pair):
        left_end, right_end = pipe_pair
        body = marshal.dumps({"records": [[["a", 1]], ""], "count": 1})
        left_end.send_bytes(pack_frame(0, body[: len(body) // 2]))
        with pytest.raises(FrameError, match="undecodable payload"):
            PipeTransport(right_end).recv()

    def test_empty_body_refused(self, pipe_pair):
        left_end, right_end = pipe_pair
        left_end.send_bytes(pack_frame(0, b""))
        with pytest.raises(FrameError, match="undecodable payload"):
            PipeTransport(right_end).recv()
