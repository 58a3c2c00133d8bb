"""ProcessPoolEngine: worker-process parity with in-process execution.

The contract is the same one `test_engine.py` pins for threads, made
harder by the process boundary: merged results, record distribution,
simulated response times, per-backend accounting, and final store
contents must be bit-identical whether backends live in the controller
process or in worker processes talking framed messages over pipes.
"""

import pytest

from repro.abdl import parse_request
from repro.abdm import ClusteredStore, Directory
from repro.errors import ExecutionError
from repro.mbds import (
    KernelDatabaseSystem,
    ProcessPoolEngine,
    make_engine,
)
from repro.obs import Observability
from repro.qc import runtime as qc_runtime

from tests.mbds.test_engine import WORKLOAD, trace_fingerprint


def run_workload(engine, workers=None, backends=4):
    """Like test_engine.run_workload, but gathers farm state *before*
    shutdown: a stopped process engine has no stores left to inspect."""
    kds = KernelDatabaseSystem(backend_count=backends, engine=engine, workers=workers)
    try:
        fingerprints = [
            trace_fingerprint(kds.execute(parse_request(text)))
            for text in WORKLOAD
        ]
        return {
            "fingerprints": fingerprints,
            "distribution": kds.controller.distribution(),
            "clock": kds.clock.total_ms,
            "stores": [b.store.snapshot() for b in kds.controller.backends],
        }
    finally:
        kds.shutdown()


class TestProcessEngineParity:
    def test_process_matches_serial_across_all_operations(self):
        assert run_workload("serial") == run_workload("process")

    def test_process_deterministic_across_runs(self):
        assert run_workload("process") == run_workload("process")

    def test_fewer_workers_than_backends(self):
        serial = run_workload("serial", backends=6)
        process = run_workload("process", workers=2, backends=6)
        assert serial == process

    def test_every_ipc_codec_matches_serial(self):
        serial = run_workload("serial")
        framed = run_workload(ProcessPoolEngine())
        assert serial == framed

    def test_clustered_store_factory_crosses_the_boundary(self):
        directory = Directory()
        directory.add_ranges("x", 0, 100, 4)

        def run(engine):
            kds = KernelDatabaseSystem(
                backend_count=3,
                engine=engine,
                store_factory=lambda: ClusteredStore(directory),
            )
            for i in range(30):
                kds.execute(
                    parse_request(
                        f"INSERT (<FILE, data>, <data, d${i}>, <x, {(i * 7) % 100}>)"
                    )
                )
            traces = [
                kds.execute(
                    parse_request(f"RETRIEVE ((FILE = data) AND (x = {v})) (*)")
                )
                for v in (3, 21, 49, 98)
            ]
            try:
                return [trace_fingerprint(t) for t in traces]
            finally:
                kds.shutdown()

        assert run("serial") == run("process")


class TestProcessEngineObservability:
    def run_traced(self, engine):
        obs = Observability(tracing=True)
        kds = KernelDatabaseSystem(backend_count=3, engine=engine, obs=obs)
        for i in range(9):
            kds.execute(parse_request(f"INSERT (<FILE, f>, <f, f${i}>, <k, {i}>)"))
        kds.execute(parse_request("RETRIEVE ((FILE = f) AND (k >= 4)) (*)"))
        root = obs.last_trace
        try:
            return kds, root
        finally:
            kds.shutdown()

    def test_worker_spans_graft_under_backend_spans(self):
        _, serial_root = self.run_traced("serial")
        _, process_root = self.run_traced("process")

        def shape(span):
            return (span.name, [shape(child) for child in span.children])

        assert shape(process_root) == shape(serial_root)

    def test_backend_spans_carry_simulated_and_scan_attrs(self):
        _, root = self.run_traced("process")
        backend_spans = [
            span for span in root.walk() if span.name.startswith("backend[")
        ]
        assert len(backend_spans) == 3
        for span in backend_spans:
            assert span.simulated_ms > 0
            assert "records_examined" in span.attrs


class TestProcessEngineLifecycle:
    def test_factory_builds_process_engine(self):
        engine = make_engine("process", workers=3)
        assert isinstance(engine, ProcessPoolEngine)
        assert engine.workers == 3

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ValueError):
            ProcessPoolEngine(0)

    def test_worker_errors_propagate_and_workers_survive(self):
        kds = KernelDatabaseSystem(backend_count=2, engine="process")
        kds.execute(parse_request("INSERT (<FILE, f>, <f, f$0>)"))
        backend = kds.controller.backends[0]
        with pytest.raises(ExecutionError):
            backend._call({"cmd": "definitely_not_a_command"})
        # The worker shipped the error and kept serving.
        trace = kds.execute(parse_request("RETRIEVE (FILE = f) (*)"))
        assert trace.result.count == 1
        kds.shutdown()

    def test_use_after_shutdown_raises(self):
        kds = KernelDatabaseSystem(backend_count=2, engine="process")
        kds.execute(parse_request("INSERT (<FILE, f>, <f, f$0>)"))
        kds.shutdown()
        with pytest.raises(ExecutionError):
            kds.execute(parse_request("RETRIEVE (FILE = f) (*)"))

    def test_shutdown_is_idempotent(self):
        kds = KernelDatabaseSystem(backend_count=2, engine="process")
        kds.execute(parse_request("INSERT (<FILE, f>, <f, f$0>)"))
        kds.shutdown()
        kds.shutdown()


class TestProcessEnginePersistence:
    def test_snapshot_round_trips_worker_resident_stores(self, tmp_path):
        from repro.core.mlds import MLDS, MLDSConfig
        from repro.persistence import load_mlds, save_mlds

        mlds = MLDS(backend_count=3, engine="process")
        mlds.kds.define_database("db", "network", ["f"])
        for i in range(12):
            mlds.kds.execute(
                parse_request(f"INSERT (<FILE, f>, <f, f${i}>, <k, {i}>)")
            )
        expected = [b.store.snapshot() for b in mlds.kds.controller.backends]
        path = tmp_path / "farm.mlds.json"
        save_mlds(mlds, path)
        mlds.kds.shutdown()

        for engine in ("serial", "process"):
            restored = load_mlds(path, MLDSConfig(engine=engine))
            assert [
                b.store.snapshot() for b in restored.kds.controller.backends
            ] == expected
            trace = restored.kds.execute(
                parse_request("RETRIEVE ((FILE = f) AND (k >= 6)) (*)")
            )
            assert trace.result.count == 6
            restored.kds.shutdown()

    def test_transaction_abort_rolls_back_worker_stores(self):
        from repro.core.mlds import MLDS

        mlds = MLDS(backend_count=2, engine="process")
        for i in range(4):
            mlds.kds.execute(parse_request(f"INSERT (<FILE, f>, <f, f${i}>)"))
        before = [b.store.snapshot() for b in mlds.kds.controller.backends]
        mlds.kds.begin_transaction()
        mlds.kds.execute(parse_request("DELETE (FILE = f)"))
        mlds.kds.abort_transaction()
        assert [
            b.store.snapshot() for b in mlds.kds.controller.backends
        ] == before
        mlds.kds.shutdown()


class TestQcSwitchesReachWorkers:
    """The three ``QCConfig`` switches are process-wide state; a worker
    starts from the parent's values (``ipc.worker.config_state``)."""

    def run(self, engine):
        kds = KernelDatabaseSystem(backend_count=4, engine=engine, workers=2)
        try:
            kds.controller.add_index("x")
            # Twice over, so the second pass would hit a live result cache.
            fingerprints = [
                trace_fingerprint(kds.execute(parse_request(text)))
                for text in WORKLOAD + WORKLOAD[-9:]
            ]
            backends = kds.controller.backends
            return {
                "fingerprints": fingerprints,
                "clock": kds.clock.total_ms,
                "stores": [b.store.snapshot() for b in backends],
            }, {
                "compile": sum(
                    b.cache_snapshots()["compile"][k] for b in backends for k in ("hits", "misses")
                ),
                "result": sum(
                    b.cache_snapshots()["result"][k] for b in backends for k in ("hits", "misses")
                ),
                "index": sum(
                    b.store.index_snapshot()[k] for b in backends for k in ("index_hits", "range_hits")
                ),
            }
        finally:
            kds.shutdown()

    def test_switched_off_in_the_parent_is_switched_off_in_the_worker(self):
        _, lookups = self.run("process")
        assert all(count > 0 for count in lookups.values()), lookups
        config = qc_runtime.config
        config.compile_enabled = config.plan_enabled = config.result_cache_enabled = False
        try:
            serial, _ = self.run("serial")
            process, lookups = self.run("process")
        finally:
            qc_runtime.reset()
        assert process == serial
        assert lookups == {"compile": 0, "result": 0, "index": 0}


class TestProcessWorkloadSanity:
    def test_workload_covers_every_request_kind(self):
        operations = {parse_request(text).operation for text in WORKLOAD}
        assert operations == {
            "INSERT",
            "RETRIEVE",
            "UPDATE",
            "DELETE",
            "RETRIEVE-COMMON",
        }
