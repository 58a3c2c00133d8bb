"""The wire codec must invert itself exactly — through real JSON text.

Every round trip here goes ``encode → json.dumps → json.loads → decode``
so the tests prove JSON-cleanliness, not just structural symmetry.  The
bit-identity contract of the process engine rests on these inversions:
floats (including NaN), null values, record text, span trees, and the
timing model must all survive the queue untouched.
"""

from __future__ import annotations

import json
import math
import struct

from repro.abdl import parse_request
from repro.abdl.aggregates import fold
from repro.abdl.executor import RequestResult
from repro.abdm.plan import AttributeIndexDigest
from repro.abdm.record import Record
from repro.ipc import codec
from repro.ipc.transport import PipeTransport
from repro.mbds.backend import BackendResult
from repro.mbds.timing import TimingModel
from repro.obs.trace import Span
from tests.abdl.aggregate_oracle import value_bits


def through_json(payload):
    return json.loads(json.dumps(payload))


class TestRequests:
    REQUESTS = (
        "INSERT (<FILE, f>, <f, v$1>, <x, 3>)",
        "DELETE ((FILE = f) AND (x >= 2))",
        "UPDATE ((FILE = f) AND (x = 1)) (x = x + 10)",
        "RETRIEVE ((FILE = f) AND (x > 0)) (x) BY x",
        "RETRIEVE ((FILE = a) OR (FILE = b)) (*)",
        "RETRIEVE-COMMON ((FILE = a) AND (x = 1)) COMMON (k) (FILE = b) (*)",
    )

    def test_all_five_kinds_roundtrip(self):
        for text in self.REQUESTS:
            request = parse_request(text)
            decoded = codec.decode_any_request(
                through_json(codec.encode_any_request(request))
            )
            assert type(decoded) is type(request)
            assert decoded.render() == request.render()

    def test_retrieve_preserves_target_and_by(self):
        request = parse_request("RETRIEVE (FILE = f) (x, MAX(y)) BY x")
        decoded = codec.decode_any_request(
            through_json(codec.encode_any_request(request))
        )
        assert decoded.by == "x"
        assert [(t.attribute, t.aggregate) for t in decoded.target] == [
            (t.attribute, t.aggregate) for t in request.target
        ]


class TestRecordsAndResults:
    def test_record_roundtrips_value_domain(self):
        record = Record.from_pairs(
            [("FILE", "f"), ("i", 3), ("f2", 3.5), ("s", "str"), ("n", None)],
            text="the textual portion",
        )
        decoded = codec.decode_record(through_json(codec.encode_record(record)))
        assert decoded == record
        assert decoded.text == record.text

    def test_nan_survives_the_wire(self):
        record = Record.from_pairs([("FILE", "f"), ("x", float("nan"))])
        decoded = codec.decode_record(through_json(codec.encode_record(record)))
        ((_, value),) = [p for p in decoded.pairs() if p[0] == "x"]
        assert math.isnan(value)

    def test_float_bit_identity(self):
        for value in (0.1, 1e-17, 2**53 + 1.0, -0.0, 1.0000000000000002):
            record = Record.from_pairs([("FILE", "f"), ("x", value)])
            decoded = codec.decode_record(
                through_json(codec.encode_record(record))
            )
            ((_, out),) = [p for p in decoded.pairs() if p[0] == "x"]
            assert repr(out) == repr(value)

    def test_backend_result_roundtrips_scan_stats(self):
        records = [Record.from_pairs([("FILE", "f"), ("x", i)]) for i in range(3)]
        result = BackendResult(
            2,
            RequestResult("RETRIEVE", records=records, count=3),
            elapsed_ms=12.75,
            wall_ms=0.31,
            records_examined=9,
            index_hits=2,
            range_hits=1,
            fallback_scans=1,
        )
        decoded = codec.decode_backend_result(
            through_json(codec.encode_backend_result(result))
        )
        assert decoded == result


class TestAggregateFolds:
    """A backend answers an aggregate RETRIEVE with its fold, not records."""

    REQUEST = parse_request(
        "RETRIEVE (FILE = f) (g, COUNT(*), COUNT(x), SUM(x), AVG(x), MIN(x), MAX(y)) BY g"
    )

    def folded(self, values):
        records = [
            Record.from_pairs([("FILE", "f"), ("g", g), ("x", x), ("y", y)]).seal()
            for g, x, y in values
        ]
        return BackendResult(
            1,
            RequestResult(
                "RETRIEVE", count=len(records), groups=fold(records, self.REQUEST)
            ),
            elapsed_ms=41.2,
            wall_ms=0.07,
            records_examined=len(records),
        )

    def test_fold_roundtrips(self):
        result = self.folded(
            [(1, -0.0, "b"), (True, 0.1, "a"), (None, "s", 2), (1.0, 2**70, None)]
        )
        decoded = codec.decode_backend_result(
            through_json(codec.encode_backend_result(result))
        )
        assert decoded == result
        assert decoded.result.records == []
        assert value_bits(decoded.result.groups) == value_bits(result.result.groups)

    def test_fold_crosses_the_pipe_to_the_bit(self):
        """JSON drops NaN payloads; the worker pipe (marshal) does not."""

        class Loopback:
            def __init__(self):
                self.frames = []

            def send_bytes(self, frame):
                self.frames.append(frame)

            def recv_bytes(self):
                return self.frames.pop(0)

        payload = struct.unpack("!d", bytes.fromhex("7ff8000000001234"))[0]
        result = self.folded([("k", payload, -0.0), ("k", 1, float("nan"))])
        wire = Loopback()
        PipeTransport(wire).send(codec.encode_backend_result(result))
        decoded = codec.decode_backend_result(PipeTransport(wire).recv())
        assert value_bits(decoded.result.groups) == value_bits(result.result.groups)

    def test_other_results_carry_no_fold(self):
        encoded = codec.encode_result(RequestResult("RETRIEVE", count=0))
        assert "groups" not in encoded
        assert codec.decode_result(through_json(encoded)).groups is None


class TestImagesSummariesDigests:
    def test_digest_roundtrips(self):
        digest = AttributeIndexDigest(
            entries=7, nulls=1, nans=1, distinct=4, num_min=0, num_max=9,
            str_min="a", str_max="q",
        )
        decoded = codec.decode_digest(through_json(codec.encode_digest(digest)))
        assert decoded == digest


class TestSpans:
    def build_tree(self):
        root = Span("backend[0].retrieve")
        root.simulated_ms = 4.5
        root.wall_ms = 0.2
        root.attrs["records_examined"] = 9
        child = Span("qc.compile", root)
        child.simulated_ms = 0.0
        child.wall_ms = 0.05
        child.attrs["source"] = "(FILE = f)"
        grand = Span("qc.compile.codegen", child)
        grand.wall_ms = 0.01
        return root

    def test_span_tree_roundtrips(self):
        root = self.build_tree()
        decoded = codec.decode_span(through_json(codec.encode_span(root)))

        def shape(span):
            return (
                span.name,
                span.simulated_ms,
                span.wall_ms,
                dict(span.attrs),
                [shape(c) for c in span.children],
            )

        assert shape(decoded) == shape(root)

    def test_graft_attaches_under_parent(self):
        root = self.build_tree()
        parent = Span("backend[0].retrieve")
        codec.graft_spans(through_json([codec.encode_span(c) for c in root.children]), parent)
        assert [c.name for c in parent.children] == ["qc.compile"]
        assert parent.children[0].children[0].name == "qc.compile.codegen"
        assert parent.children[0].parent is parent


class TestTiming:
    def test_timing_model_roundtrips(self):
        timing = TimingModel()
        decoded = codec.decode_timing(through_json(codec.encode_timing(timing)))
        assert decoded == timing

    def test_custom_timing_roundtrips_floats(self):
        timing = TimingModel(broadcast_ms=0.125, page_scan_ms=1.0 / 3.0)
        decoded = codec.decode_timing(through_json(codec.encode_timing(timing)))
        assert repr(decoded.page_scan_ms) == repr(timing.page_scan_ms)
        assert decoded == timing
