"""Execution engines: thread-pool parity with serial execution.

The contract under test: engine choice changes only wall-clock behavior.
Merged results, record distribution, simulated response times, and
per-backend accounting must be byte-identical between SerialEngine and
ThreadPoolEngine across every request type.  So must the read contract:
every record a result carries is sealed, whichever engine produced it.
"""

import pytest

from repro.abdl import parse_request
from repro.abdm import Record
from repro.errors import RecordSealed
from repro.mbds import (
    KernelDatabaseSystem,
    SerialEngine,
    ThreadPoolEngine,
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


class TestEngineParity:
    def test_threads_match_serial_across_all_operations(self):
        serial_kds, serial_traces = run_workload("serial")
        threads_kds, threads_traces = run_workload("threads")
        assert serial_kds.controller.distribution() == threads_kds.controller.distribution()
        for serial_trace, threads_trace in zip(serial_traces, threads_traces):
            assert trace_fingerprint(serial_trace) == trace_fingerprint(threads_trace)
        assert serial_kds.clock.total_ms == threads_kds.clock.total_ms
        assert [b.store.snapshot() for b in serial_kds.controller.backends] == [
            b.store.snapshot() for b in threads_kds.controller.backends
        ]

    def test_threads_deterministic_across_runs(self):
        _, first = run_workload("threads")
        _, second = run_workload("threads")
        for a, b in zip(first, second):
            assert trace_fingerprint(a) == trace_fingerprint(b)

    def test_fewer_workers_than_backends(self):
        _, serial_traces = run_workload("serial", backends=6)
        _, threads_traces = run_workload("threads", workers=2, backends=6)
        for a, b in zip(serial_traces, threads_traces):
            assert trace_fingerprint(a) == trace_fingerprint(b)


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
ENGINES = ["serial", "threads", "process"]


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

    @pytest.mark.parametrize("engine", ["serial", "threads"])
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

    def test_threads_by_name(self):
        engine = make_engine("threads", workers=3)
        assert isinstance(engine, ThreadPoolEngine)
        assert engine.workers == 3

    def test_instance_passthrough(self):
        engine = ThreadPoolEngine(2)
        assert make_engine(engine) is engine

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            make_engine("fibers")

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ValueError):
            ThreadPoolEngine(0)

    def test_shutdown_allows_reuse(self):
        engine = ThreadPoolEngine()
        kds = KernelDatabaseSystem(backend_count=4, engine=engine)
        kds.execute(parse_request("INSERT (<FILE, f>, <f, f$0>)"))
        kds.execute(parse_request("RETRIEVE (FILE = f) (*)"))
        engine.shutdown()
        trace = kds.execute(parse_request("RETRIEVE (FILE = f) (*)"))
        assert trace.result.count == 1


class TestLatencyEmulation:
    def test_latency_scale_sleeps_in_wall_time_only(self):
        fast = KernelDatabaseSystem(backend_count=2)
        slow = KernelDatabaseSystem(backend_count=2, latency_scale=0.05)
        for kds in (fast, slow):
            for i in range(8):
                kds.execute(parse_request(f"INSERT (<FILE, f>, <f, f${i}>)"))
            kds.reset_clock()
        fast_trace = fast.execute(parse_request("RETRIEVE (FILE = f) (*)"))
        slow_trace = slow.execute(parse_request("RETRIEVE (FILE = f) (*)"))
        assert slow_trace.response.total_ms == fast_trace.response.total_ms
        assert slow_trace.wall_ms > fast_trace.wall_ms
