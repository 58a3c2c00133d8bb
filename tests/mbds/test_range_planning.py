"""Access planning across the farm: engines, aggregates, durability.

The MBDS-level half of PR 5's fidelity story: the planner's choices are
invisible to every consumer — process-engine execution, the MIN/MAX/COUNT
digest fast path, and index rebuilds after checkpoint/restore or WAL
crash recovery all return exactly what the scanning baseline returns.
"""

import pytest

from repro.abdl import parse_request
from repro.abdl.ast import InsertRequest
from repro.abdm import ABStore, Record
from repro.mbds import KernelDatabaseSystem
from repro.obs import Observability
from repro.qc import runtime as qc_runtime

NAN = float("nan")

OPERATOR_QUERIES = [
    "RETRIEVE ((FILE = data) AND (x < 4)) (*)",
    "RETRIEVE ((FILE = data) AND (x <= 4)) (*)",
    "RETRIEVE ((FILE = data) AND (x > 4)) (*)",
    "RETRIEVE ((FILE = data) AND (x >= 4)) (*)",
    "RETRIEVE ((FILE = data) AND (x = 4)) (*)",
    "RETRIEVE ((FILE = data) AND (x != 4)) (*)",
    "RETRIEVE ((FILE = data) AND (x > 1) AND (x <= 7)) (*)",
]


def insert(file_name, key, **attrs):
    pairs = [("FILE", file_name), (file_name, key), *attrs.items()]
    return InsertRequest(Record.from_pairs(pairs))


def mixed_rows():
    """int / float / string / null / NaN rows, plus one missing-x row."""
    rows = [
        insert("data", "d$0", x=1),
        insert("data", "d$1", x=4),
        insert("data", "d$2", x=4.0),
        insert("data", "d$3", x=7.5),
        insert("data", "d$4", x="word"),
        insert("data", "d$5", x=None),
        insert("data", "d$6", x=NAN),
        insert("data", "d$7"),
        insert("data", "d$8", x=0),
        insert("data", "d$9", x=9),
    ]
    return rows


def image(trace):
    """A result's records as text: a NaN that crossed a worker's pipe is
    a new float object, and NaN only equals itself by identity."""
    return [repr(r.pairs()) for r in trace.result.records]


def build_kds(engine, indexed=True, backends=3):
    kds = KernelDatabaseSystem(backend_count=backends, engine=engine)
    if indexed:
        kds.controller.add_index("x")
    for request in mixed_rows():
        kds.execute(request)
    return kds


class TestEngineBitIdentity:
    @pytest.mark.parametrize("text", OPERATOR_QUERIES)
    def test_serial_and_process_identical_over_every_operator(self, text):
        serial = build_kds("serial")
        process = build_kds("process")
        try:
            left = serial.execute(parse_request(text))
            right = process.execute(parse_request(text))
            assert image(left) == image(right)
            assert left.response.total_ms == right.response.total_ms
        finally:
            serial.shutdown()
            process.shutdown()

    @pytest.mark.parametrize("engine", ["serial", "process"])
    def test_planned_matches_scan_baseline(self, engine):
        indexed = build_kds(engine)
        plain = build_kds(engine, indexed=False)
        try:
            for text in OPERATOR_QUERIES:
                left = indexed.execute(parse_request(text))
                right = plain.execute(parse_request(text))
                assert image(left) == image(right), text
        finally:
            indexed.shutdown()
            plain.shutdown()


class TestAggregateDigestFastPath:
    def build(self, indexed=True, rows=None):
        kds = KernelDatabaseSystem(backend_count=2)
        if indexed:
            kds.controller.add_index("x")
        for request in rows if rows is not None else mixed_rows():
            kds.execute(request)
        return kds

    def run_both(self, kds, text):
        config = qc_runtime.config
        request = parse_request(text)
        config.plan_enabled = False
        scanned = kds.execute(request)
        config.plan_enabled = True
        fast = kds.execute(request)
        return scanned, fast

    def test_min_max_count_identical_to_scan(self):
        # No NaN here: a NaN population (rightly) bails MIN/MAX to the
        # scan path, tested separately below.
        rows = [insert("data", f"d${i}", x=v) for i, v in enumerate([3, 1.5, 9, None, 0])]
        rows.append(insert("data", "d$missing"))
        kds = self.build(rows=rows)
        scanned, fast = self.run_both(
            kds, "RETRIEVE (FILE = data) (MIN(x), MAX(x), COUNT(x), COUNT(*))"
        )
        assert fast.phases[0].label == "aggregate-index"
        assert scanned.phases[0].label == "broadcast"
        assert [r.pairs() for r in fast.result.records] == [
            r.pairs() for r in scanned.result.records
        ]
        assert fast.response.total_ms < scanned.response.total_ms

    def test_string_only_attribute_uses_string_bounds(self):
        rows = [insert("data", f"d${i}", x=word) for i, word in enumerate(["pear", "fig", "yam"])]
        kds = self.build(rows=rows)
        scanned, fast = self.run_both(kds, "RETRIEVE (FILE = data) (MIN(x), MAX(x))")
        assert fast.phases[0].label == "aggregate-index"
        assert [r.pairs() for r in fast.result.records] == [
            r.pairs() for r in scanned.result.records
        ]

    def test_nan_population_bails_to_the_scan_path(self):
        # min/max over NaN is input-order-dependent: only a real scan
        # reproduces the evaluator's fold, so the digest path must bail.
        kds = self.build()
        trace = kds.execute(parse_request("RETRIEVE (FILE = data) (MIN(x))"))
        assert trace.phases[0].label == "broadcast"

    def test_extra_predicate_bails_to_the_scan_path(self):
        kds = self.build(rows=[insert("data", "d$0", x=1), insert("data", "d$1", x=5)])
        trace = kds.execute(
            parse_request("RETRIEVE ((FILE = data) AND (x > 2)) (COUNT(*))")
        )
        assert trace.phases[0].label == "broadcast"
        assert trace.result.records[0].get("COUNT(*)") == 1

    def test_unindexed_attribute_bails_but_count_star_does_not(self):
        kds = self.build(indexed=False, rows=[insert("data", "d$0", x=1)])
        counted = kds.execute(parse_request("RETRIEVE (FILE = data) (COUNT(*))"))
        assert counted.phases[0].label == "aggregate-index"
        assert counted.result.records[0].get("COUNT(*)") == 1
        bailed = kds.execute(parse_request("RETRIEVE (FILE = data) (MIN(x))"))
        assert bailed.phases[0].label == "broadcast"

    def test_plan_disabled_bails_to_the_scan_path(self):
        kds = self.build(rows=[insert("data", "d$0", x=1)])
        qc_runtime.config.plan_enabled = False
        try:
            trace = kds.execute(parse_request("RETRIEVE (FILE = data) (COUNT(*))"))
        finally:
            qc_runtime.config.plan_enabled = True
        assert trace.phases[0].label == "broadcast"


class TestObservability:
    def test_span_records_access_path_and_metrics_count_hits(self):
        obs = Observability(tracing=True)
        kds = KernelDatabaseSystem(backend_count=2, obs=obs)
        kds.controller.add_index("x")
        for request in mixed_rows():
            kds.execute(request)
        kds.execute(parse_request("RETRIEVE ((FILE = data) AND (x > 4)) (*)"))
        root = obs.last_trace
        paths = [
            span.attrs["plan.access_path"]
            for span in root.walk()
            if "plan.access_path" in span.attrs
        ]
        assert any("range" in path for path in paths)
        assert obs.metrics.counter_value("index.range_hits") >= 1
        kds.execute(parse_request("RETRIEVE (FILE = data) (COUNT(*))"))
        assert obs.metrics.counter_value("index.aggregate_hits") == 1


class TestDurability:
    QUERIES = (
        "RETRIEVE ((FILE = data) AND (x >= 4)) (*)",
        "RETRIEVE ((FILE = data) AND (x < 4)) (*)",
        "RETRIEVE (FILE = data) (MIN(x), MAX(x), COUNT(*))",
    )

    def fingerprint(self, kds):
        return [
            [
                (tuple(r.pairs()), r.text)
                for r in kds.execute(parse_request(text)).result.records
            ]
            for text in self.QUERIES
        ]

    def numeric_rows(self):
        return [insert("data", f"d${i}", x=i % 9) for i in range(18)]

    def test_checkpoint_restore_rebuilds_indexes_bit_identically(self, tmp_path):
        from repro.core.mlds import MLDS
        from repro.persistence import load_mlds, save_mlds

        factory = lambda: ABStore(indexed_attributes=["x"])
        mlds = MLDS(backend_count=2, store_factory=factory)
        for request in self.numeric_rows():
            mlds.kds.execute(request)
        expected = self.fingerprint(mlds.kds)
        save_mlds(mlds, tmp_path / "snap.json")

        restored = load_mlds(tmp_path / "snap.json", store_factory=factory)
        assert self.fingerprint(restored.kds) == expected
        # The rebuilt indexes actually serve the range: candidates only.
        backend = restored.kds.controller.backends[0]
        before = backend.store.stats.records_examined
        restored.kds.execute(parse_request("RETRIEVE ((FILE = data) AND (x = 0)) (*)"))
        examined = backend.store.stats.records_examined - before
        assert 0 < examined < backend.store.count()

    def test_wal_recovery_rebuilds_indexes(self, tmp_path):
        from repro.core.mlds import MLDS
        from repro.wal.recovery import recover_mlds

        factory = lambda: ABStore(indexed_attributes=["x"])
        mlds = MLDS(backend_count=2, store_factory=factory, wal=tmp_path / "wal")
        for request in self.numeric_rows():
            mlds.kds.execute(request)
        expected = self.fingerprint(mlds.kds)
        mlds.kds.shutdown()

        recovered = recover_mlds(
            tmp_path / "wal", store_factory=factory, attach_wal=False
        )
        assert self.fingerprint(recovered.kds) == expected
        # The replayed indexes serve the range: candidates only.
        backend = recovered.kds.controller.backends[0]
        before = backend.store.stats.records_examined
        recovered.kds.execute(parse_request("RETRIEVE ((FILE = data) AND (x = 0)) (*)"))
        examined = backend.store.stats.records_examined - before
        assert 0 < examined < backend.store.count()
