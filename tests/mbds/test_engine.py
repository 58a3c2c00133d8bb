"""Execution engines: wall-clock accounting, sealed results, the factory.

The contract: engine choice changes only wall-clock behavior (the serial
and process engines' parity is pinned in ``test_process_engine.py`` and
``tests/properties/test_engine_equivalence.py``).  So must the read
contract: every record a result carries is sealed, whichever engine
produced it.  The factory knows two engine names and refuses any other.
"""

import pytest

from repro.abdl import parse_request
from repro.abdm import Record
from repro.core.mlds import MLDS
from repro.errors import RecordSealed
from repro.mbds import (
    KernelDatabaseSystem,
    ProcessPoolEngine,
    SerialEngine,
    make_engine,
)

WORKLOAD = (
    [f"INSERT (<FILE, a>, <a, a${i}>, <x, {i % 5}>, <k, {i}>)" for i in range(20)]
    + [f"INSERT (<FILE, b>, <b, b${i}>, <k, {19 - i}>)" for i in range(20)]
    + [
        "RETRIEVE (FILE = a) (*)",
        "RETRIEVE ((FILE = a) AND (x = 3)) (x, k)",
        "UPDATE ((FILE = a) AND (x < 2)) (x = x + 10)",
        "RETRIEVE ((FILE = a) AND (x >= 10)) (*)",
        "DELETE ((FILE = b) AND (k < 5))",
        "RETRIEVE (FILE = b) (*)",
        "RETRIEVE (FILE = a) (AVG(x))",
        "RETRIEVE (FILE = a) (COUNT(*)) BY x",
        "RETRIEVE-COMMON (FILE = a) COMMON (k) (FILE = b) (*)",
    ]
)


def run_workload(engine, workers=None, backends=4):
    kds = KernelDatabaseSystem(backend_count=backends, engine=engine, workers=workers)
    traces = [kds.execute(parse_request(text)) for text in WORKLOAD]
    try:
        return kds, traces
    finally:
        kds.shutdown()


def trace_fingerprint(trace):
    return (
        trace.result.operation,
        trace.result.count,
        [record.pairs() for record in trace.result.records],
        trace.response.total_ms,
        trace.response.backend_ms,
        trace.response.controller_ms,
        trace.per_backend_ms,
    )


class TestWallClockInstrumentation:
    def test_broadcast_reports_wall_time(self):
        kds, traces = run_workload("serial")
        retrieve = traces[40]  # first RETRIEVE
        assert retrieve.wall_ms > 0.0
        assert len(retrieve.per_backend_wall_ms) == 4
        assert all(wall >= 0.0 for wall in retrieve.per_backend_wall_ms)
        assert [phase.label for phase in retrieve.phases] == ["broadcast"]

    def test_insert_reports_single_backend_wall_time(self):
        kds = KernelDatabaseSystem(backend_count=4)
        trace = kds.execute(parse_request("INSERT (<FILE, f>, <f, f$0>)"))
        assert trace.wall_ms > 0.0
        assert len(trace.per_backend_wall_ms) == 1
        assert [phase.label for phase in trace.phases] == ["insert"]

    def test_busy_wall_accumulates(self):
        kds, _ = run_workload("serial")
        assert all(b.busy_wall_ms > 0.0 for b in kds.controller.backends)


class TestCommonPhases:
    """The RETRIEVE-COMMON satellite: no flat left+right concatenation."""

    def test_per_backend_lists_stay_indexed_by_backend(self):
        kds, traces = run_workload("serial")
        common = traces[-1]
        assert common.result.operation == "RETRIEVE-COMMON"
        # One slot per backend, not per backend per broadcast.
        assert len(common.per_backend_ms) == 4
        assert len(common.per_backend_wall_ms) == 4

    def test_phases_label_left_and_right(self):
        kds, traces = run_workload("serial")
        common = traces[-1]
        assert [phase.label for phase in common.phases] == ["left", "right"]
        for phase in common.phases:
            assert len(phase.per_backend_ms) == 4
        # The flat list is the element-wise total of the two phases.
        for index in range(4):
            assert common.per_backend_ms[index] == pytest.approx(
                common.phases[0].per_backend_ms[index]
                + common.phases[1].per_backend_ms[index]
            )


#: One read of each kind a caller can hold records from.
READS = {
    "plain": "RETRIEVE (FILE = a) (*)",
    "projected": "RETRIEVE ((FILE = a) AND (x = 3)) (x, k)",
    "aggregate": "RETRIEVE (FILE = a) (AVG(x)) BY x",
    "digest aggregate": "RETRIEVE (FILE = a) (COUNT(*))",
    "join": "RETRIEVE-COMMON (FILE = a) COMMON (k) (FILE = b) (*)",
}
LOAD = WORKLOAD[:40]
ENGINES = ["serial", "process"]


def loaded(engine):
    kds = KernelDatabaseSystem(backend_count=4, engine=engine)
    for text in LOAD:
        kds.execute(parse_request(text))
    return kds


def result_cache_hits(kds):
    backends = kds.controller.cache_snapshots()["backends"].values()
    return sum(snapshot["result"]["hits"] for snapshot in backends)


class TestSealedResults:
    """No read copies a record, so no returned record may be changed."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_mutating_any_returned_record_raises_and_changes_nothing(self, engine):
        kds = loaded(engine)
        try:
            before = [b.store.snapshot() for b in kds.controller.backends]
            for name, text in READS.items():
                for attempt in ("first", "repeat"):  # a repeat RETRIEVE is a cache hit
                    records = kds.execute(parse_request(text)).result.records
                    assert records, (name, attempt)
                    for record in records:
                        with pytest.raises(RecordSealed):
                            record.set("x", -1)
                        with pytest.raises(RecordSealed):
                            record.remove("FILE")
            assert result_cache_hits(kds) >= 3
            assert [b.store.snapshot() for b in kds.controller.backends] == before
        finally:
            kds.shutdown()

    # In-process only: a process-engine result crosses a pipe, so it
    # cannot be the stored object.
    @pytest.mark.parametrize("engine", ["serial"])
    def test_star_retrieve_returns_the_stored_objects_uncopied(self, engine, monkeypatch):
        kds = loaded(engine)
        copies = []
        copy = Record.copy
        monkeypatch.setattr(Record, "copy", lambda self: copies.append(self) or copy(self))
        try:
            stored = [r for b in kds.controller.backends for r in b.store.file("a")]
            for _ in range(2):  # a miss, then a result-cache hit
                records = kds.execute(parse_request(READS["plain"])).result.records
                assert len(records) == len(stored) == 20
                assert all(got is kept for got, kept in zip(records, stored))
            assert result_cache_hits(kds) == 4
            for name in ("projected", "aggregate", "digest aggregate"):
                for _ in range(2):
                    kds.execute(parse_request(READS[name]))
            assert copies == []
        finally:
            kds.shutdown()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_a_held_result_keeps_its_values_across_a_later_update(self, engine):
        kds = loaded(engine)
        try:
            held = kds.execute(parse_request(READS["plain"])).result.records
            image = [record.pairs() for record in held]
            kds.execute(parse_request("UPDATE (FILE = a) (x = x + 100)"))
            assert [record.pairs() for record in held] == image
            fresh = kds.execute(parse_request(READS["plain"])).result.records
            assert [r.get("x") for r in fresh] == [r.get("x") + 100 for r in held]
        finally:
            kds.shutdown()


class TestEngineFactory:
    def test_default_is_serial(self):
        assert isinstance(make_engine(None), SerialEngine)
        assert isinstance(make_engine("serial"), SerialEngine)

    def test_instance_passthrough(self):
        engine = SerialEngine()
        assert make_engine(engine) is engine

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            make_engine("fibers")

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ValueError):
            ProcessPoolEngine(0)

    def test_shutdown_allows_reuse(self):
        engine = SerialEngine()
        kds = KernelDatabaseSystem(backend_count=4, engine=engine)
        kds.execute(parse_request("INSERT (<FILE, f>, <f, f$0>)"))
        kds.execute(parse_request("RETRIEVE (FILE = f) (*)"))
        engine.shutdown()
        trace = kds.execute(parse_request("RETRIEVE (FILE = f) (*)"))
        assert trace.result.count == 1


class TestRetiredEngineNames:
    """The thread-pool engine is gone; its name is refused, not remapped."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: make_engine("threads"),
            lambda: MLDS(backend_count=2, engine="threads"),
        ],
        ids=["make_engine", "MLDS"],
    )
    def test_threads_is_refused_naming_both_engines(self, build):
        with pytest.raises(ValueError, match="'threads'") as refused:
            build()
        assert "'serial'" in str(refused.value)
        assert "'process'" in str(refused.value)
