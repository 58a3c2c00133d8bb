"""Hypothesis: the worker wire format against the JSON oracle.

The worker protocol's correctness contract is *JSON parity*: for any
JSON-shaped value, decoding a marshal frame must yield exactly the
object ``json.loads(json.dumps(v))`` would — with the one deliberate
improvement that floats survive bit-for-bit (NaN payloads, ``-0.0``)
where JSON's decimal detour may wobble.  Comparison is therefore
bit-aware: floats compare by IEEE-754 image, everything else by equality
*and* type (``True != 1`` on this wire).  The oracle is stdlib ``json``
here in the test; production has no JSON body.

Covers NaN, -0.0, huge ints, empty records and deeply nested span trees.
"""

from __future__ import annotations

import json
import math
import struct

from hypothesis import given, settings, strategies as st

from repro.ipc.transport import PipeTransport


class _Loopback:
    """A Connection stand-in: bytes out one side, straight in the other."""

    def __init__(self) -> None:
        self._frames: list[bytes] = []

    def send_bytes(self, frame: bytes) -> None:
        self._frames.append(frame)

    def recv_bytes(self) -> bytes:
        return self._frames.pop(0)


SPECIAL_FLOATS = [
    float("nan"),
    struct.unpack("!d", bytes.fromhex("7ff8000000001234"))[0],  # NaN payload
    -0.0,
    0.0,
    float("inf"),
    float("-inf"),
    5e-324,  # smallest subnormal
]

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),  # unbounded: marshal's long encoding
    st.floats(allow_nan=True, allow_infinity=True),  # bit-aware compare
    st.sampled_from(SPECIAL_FLOATS),
    st.text(max_size=40),
)

values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.dictionaries(st.text(max_size=12), children, max_size=6),
    ),
    max_leaves=25,
)

#: Span-tree shaped values: the deepest structures the wire carries.
span_trees = st.recursive(
    st.fixed_dictionaries(
        {"name": st.text(max_size=10), "elapsed_ms": st.floats(allow_nan=False)}
    ),
    lambda children: st.fixed_dictionaries(
        {
            "name": st.text(max_size=10),
            "children": st.lists(children, max_size=3),
        }
    ),
    max_leaves=20,
)


def json_oracle(value):
    """What a JSON text transport would deliver."""
    return json.loads(json.dumps(value))


def transport_roundtrip(value):
    wire = _Loopback()
    PipeTransport(wire).send(value)
    return PipeTransport(wire).recv()


def assert_matches_oracle(value, decoded):
    """decoded == the JSON oracle, except floats may be *more* faithful."""
    oracle = json_oracle(value)

    def check(original, ours, theirs):
        if isinstance(original, float):
            # The wire must be bit-exact to the ORIGINAL; JSON
            # merely has to be close (and loses NaN payloads entirely).
            assert struct.pack("!d", ours) == struct.pack("!d", original)
            if not math.isnan(original):
                assert ours == theirs or math.isinf(original)
            return
        assert type(ours) is type(theirs)
        if isinstance(original, list):
            assert len(ours) == len(theirs) == len(original)
            for triple in zip(original, ours, theirs):
                check(*triple)
        elif isinstance(original, dict):
            assert list(ours) == list(theirs) == list(original)
            for key in original:
                check(original[key], ours[key], theirs[key])
        else:
            assert ours == theirs == original

    check(value, decoded, oracle)


class TestBinaryCodecVsJson:
    @given(value=values)
    @settings(max_examples=300, deadline=None)
    def test_roundtrip_matches_oracle(self, value):
        assert_matches_oracle(value, transport_roundtrip(value))

    @given(trees=st.lists(span_trees, min_size=1, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_span_trees(self, trees):
        assert_matches_oracle(trees, transport_roundtrip(trees))

    def test_empty_records(self):
        for value in [{}, [], {"records": []}, [{}], {"": ""}]:
            assert transport_roundtrip(value) == value
