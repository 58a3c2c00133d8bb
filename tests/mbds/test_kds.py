"""The Kernel Database System facade: catalog and aggregate handling."""

import pytest

from repro.abdl import parse_request
from repro.errors import ExecutionError
from repro.mbds import KernelDatabaseSystem
from repro.mbds.timing import ResponseTime


@pytest.fixture()
def kds():
    kds = KernelDatabaseSystem(backend_count=4)
    for i in range(12):
        kds.execute(
            parse_request(
                f"INSERT (<FILE, course>, <course, course${i}>, <credits, {i % 4}>)"
            )
        )
    return kds


class TestCatalog:
    def test_define_and_lookup(self, kds):
        kds.define_database("uni", "functional", ["person", "course"])
        assert kds.database("uni").model == "functional"
        assert len(kds.databases()) == 1

    def test_duplicate_definition_rejected(self, kds):
        kds.define_database("uni", "functional", [])
        with pytest.raises(ExecutionError):
            kds.define_database("uni", "network", [])

    def test_unknown_database(self, kds):
        with pytest.raises(ExecutionError):
            kds.database("ghost")


class TestAggregateMerging:
    def test_avg_is_global_not_avg_of_avgs(self, kds):
        # credits are 0,1,2,3 repeating: the true mean is 1.5.  Averaging
        # per-backend averages would only coincide by luck; each backend
        # folds its credits and the controller averages their union.
        trace = kds.execute(parse_request("RETRIEVE (FILE = course) (AVG(credits))"))
        assert trace.result.records[0].get("AVG(credits)") == pytest.approx(1.5)

    def test_count_star(self, kds):
        trace = kds.execute(parse_request("RETRIEVE (FILE = course) (COUNT(*))"))
        assert trace.result.records[0].get("COUNT(*)") == 12

    def test_grouped_aggregate(self, kds):
        trace = kds.execute(
            parse_request("RETRIEVE (FILE = course) (COUNT(*)) BY credits")
        )
        rows = {r.get("credits"): r.get("COUNT(*)") for r in trace.result.records}
        assert rows == {0: 3, 1: 3, 2: 3, 3: 3}

    def test_aggregate_charges_extra_controller_time(self, kds):
        # AVG cannot be answered from index digests, so it is broadcast;
        # the controller is charged merge time for every record the
        # backends' folds matched.
        plain = kds.execute(parse_request("RETRIEVE (FILE = course) (*)"))
        agg = kds.execute(parse_request("RETRIEVE (FILE = course) (AVG(credits))"))
        assert agg.response.controller_ms > plain.response.controller_ms

    def test_aggregate_costs_the_retrieval_plus_one_merge_pass(self, kds):
        # Backends return folds, but simulated time is what it was when
        # they shipped every matching record: the same backend times, the
        # controller's merge of every matched record, and the evaluation
        # pass — one more merge step per record.
        query = "((FILE = course) AND (credits >= 1))"
        plain = kds.execute(parse_request(f"RETRIEVE {query} (*)"))
        agg = kds.execute(
            parse_request(f"RETRIEVE {query} (credits, AVG(credits)) BY credits")
        )
        extra = plain.result.count * kds.controller.timing.merge_record_ms
        assert agg.result.count == plain.result.count == 9
        assert agg.per_backend_ms == plain.per_backend_ms
        assert agg.response == ResponseTime(
            plain.response.total_ms + extra,
            plain.response.backend_ms,
            plain.response.controller_ms + extra,
        )

    def test_count_star_digest_path_is_cheaper_than_raw_retrieve(self, kds):
        plain = kds.execute(parse_request("RETRIEVE (FILE = course) (*)"))
        agg = kds.execute(parse_request("RETRIEVE (FILE = course) (COUNT(*))"))
        # PR 5: COUNT(*) is answered from store counts — one merged row,
        # one disk access per resident backend, zero records examined.
        assert agg.phases[0].label == "aggregate-index"
        assert agg.response.total_ms < plain.response.total_ms


class TestClock:
    def test_clock_accumulates(self, kds):
        assert kds.clock.total_ms > 0
        assert kds.requests_executed == 12

    def test_reset(self, kds):
        kds.reset_clock()
        assert kds.clock.total_ms == 0
        assert kds.requests_executed == 0

    def test_retrieve_records_convenience(self, kds):
        from repro.abdl.ast import RetrieveRequest
        from repro.abdm import Query

        records = kds.retrieve_records(RetrieveRequest(Query.single("FILE", "=", "course")))
        assert len(records) == 12


class TestRetrieveCommonMerging:
    def test_join_partners_on_different_backends(self):
        """RETRIEVE-COMMON must join at the controller: round-robin
        placement puts matching records on different backends."""
        from repro.abdl import parse_request

        kds = KernelDatabaseSystem(backend_count=4)
        for i in range(8):
            kds.execute(parse_request(f"INSERT (<FILE, a>, <a, a${i}>, <k, {i}>)"))
        for i in range(8):
            kds.execute(parse_request(f"INSERT (<FILE, b>, <b, b${i}>, <k, {7 - i}>)"))
        trace = kds.execute(
            parse_request("RETRIEVE-COMMON (FILE = a) COMMON (k) (FILE = b) (*)")
        )
        # Every a-record has exactly one b-partner regardless of placement.
        assert trace.result.count == 8

    def test_join_charges_both_retrievals(self):
        from repro.abdl import parse_request

        kds = KernelDatabaseSystem(backend_count=2)
        for i in range(10):
            kds.execute(parse_request(f"INSERT (<FILE, a>, <a, a${i}>, <k, {i}>)"))
            kds.execute(parse_request(f"INSERT (<FILE, b>, <b, b${i}>, <k, {i}>)"))
        kds.reset_clock()
        trace = kds.execute(
            parse_request("RETRIEVE-COMMON (FILE = a) COMMON (k) (FILE = b) (*)")
        )
        # Two broadcasts plus controller join time.
        assert trace.response.controller_ms > 2 * kds.controller.timing.broadcast_ms
