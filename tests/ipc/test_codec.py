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

from repro.abdl import parse_request
from repro.abdl.executor import RequestResult
from repro.abdm.plan import AttributeIndexDigest
from repro.abdm.record import Record
from repro.ipc import codec
from repro.mbds.backend import BackendResult
from repro.mbds.timing import TimingModel
from repro.obs.trace import Span


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
