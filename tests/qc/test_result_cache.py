"""The epoch-guarded backend result cache.

A RETRIEVE's result may be served from cache only while the epoch
signature of the files it pins is unchanged — any insert, delete,
update, drop or rollback touching those files must force a re-scan.
Served hits must be indistinguishable from re-scans: same records, same
simulated time, same cumulative scan statistics.
"""

from __future__ import annotations

import pytest

from repro.abdl.ast import ALL_ATTRIBUTES, Modifier, RetrieveRequest
from repro.core.mlds import MLDS
from repro.errors import RecordSealed
from repro.obs import Observability
from repro.wal.recovery import checkpoint_mlds, recover_mlds

from tests.wal.conftest import delete, farm_image, insert, query, update


def retrieve(*predicates: tuple) -> RetrieveRequest:
    return RetrieveRequest(query(*predicates), [ALL_ATTRIBUTES])


def seed(mlds: MLDS, rows: int = 12) -> None:
    for i in range(rows):
        mlds.kds.execute(insert("alpha", n=i, parity=i % 2))
        mlds.kds.execute(insert("beta", n=i))


def result_image(trace) -> list:
    return [(tuple(r.pairs()), r.text) for r in trace.result.records]


def total_result_snapshot(mlds: MLDS) -> dict:
    snaps = [b.cache_snapshots()["result"] for b in mlds.kds.controller.backends]
    return {
        "hits": sum(s["hits"] for s in snaps),
        "misses": sum(s["misses"] for s in snaps),
    }


@pytest.fixture()
def mlds():
    system = MLDS(backend_count=2)
    seed(system)
    return system


REQ = ("FILE", "=", "alpha"), ("parity", "=", 0)


class TestHits:
    def test_repeat_retrieve_hits_and_matches(self, mlds):
        first = mlds.kds.execute(retrieve(*REQ))
        second = mlds.kds.execute(retrieve(*REQ))
        assert result_image(first) == result_image(second)
        assert total_result_snapshot(mlds)["hits"] >= 1

    def test_hit_replays_simulated_time(self, mlds):
        first = mlds.kds.execute(retrieve(*REQ))
        second = mlds.kds.execute(retrieve(*REQ))
        assert first.response.total_ms == second.response.total_ms
        assert first.response.backend_ms == second.response.backend_ms

    def test_results_over_the_entry_limit_are_not_admitted(self, mlds, monkeypatch):
        """An entry pins every row it holds, so the widest result anyone
        asks for must not decide the cache's memory: it is recomputed."""
        from repro.mbds import backend

        monkeypatch.setattr(backend, "RESULT_CACHE_MAX_RECORDS", 2)
        wide = ("FILE", "=", "alpha"), ("n", ">=", 0)  # 6 records per backend
        first = mlds.kds.execute(retrieve(*wide))
        second = mlds.kds.execute(retrieve(*wide))
        assert result_image(first) == result_image(second)
        assert first.response.total_ms == second.response.total_ms
        assert total_result_snapshot(mlds)["hits"] == 0
        mlds.kds.execute(retrieve(("FILE", "=", "alpha"), ("n", "=", 3)))
        mlds.kds.execute(retrieve(("FILE", "=", "alpha"), ("n", "=", 3)))
        assert total_result_snapshot(mlds)["hits"] >= 1

    def test_hit_replays_scan_statistics(self):
        cached = MLDS(backend_count=2)
        uncached = MLDS(backend_count=2)
        seed(cached)
        seed(uncached)
        from repro.qc import runtime as qc_runtime

        for _ in range(3):
            cached.kds.execute(retrieve(*REQ))
        qc_runtime.config.result_cache_enabled = False
        for _ in range(3):
            uncached.kds.execute(retrieve(*REQ))
        stats = lambda m: [  # noqa: E731
            (
                b.store.stats.records_examined,
                b.store.stats.index_hits,
                b.store.stats.records_touched,
            )
            for b in m.kds.controller.backends
        ]
        assert stats(cached) == stats(uncached)

    def test_hit_shares_sealed_records_in_fresh_lists(self, mlds):
        """An entry keeps the stored records, not copies: a hit returns
        the same objects in a list of its own, and nobody can change them."""
        first = mlds.kds.execute(retrieve(*REQ))
        with pytest.raises(RecordSealed):
            first.result.records[0].set("n", 999)
        first.result.records.clear()  # the list is the caller's own
        second = mlds.kds.execute(retrieve(*REQ))
        third = mlds.kds.execute(retrieve(*REQ))
        assert total_result_snapshot(mlds)["hits"] >= 2
        assert result_image(second) == result_image(third) != []
        assert all(a is b for a, b in zip(second.result.records, third.result.records))

    def test_disabled_flag_bypasses(self, mlds, config):
        config.result_cache_enabled = False
        mlds.kds.execute(retrieve(*REQ))
        mlds.kds.execute(retrieve(*REQ))
        snap = total_result_snapshot(mlds)
        assert snap == {"hits": 0, "misses": 0}


class TestInvalidation:
    def test_insert_into_pinned_file_invalidates(self, mlds):
        before = result_image(mlds.kds.execute(retrieve(*REQ)))
        mlds.kds.execute(insert("alpha", n=100, parity=0))
        after = result_image(mlds.kds.execute(retrieve(*REQ)))
        assert len(after) == len(before) + 1

    def test_delete_invalidates(self, mlds):
        mlds.kds.execute(retrieve(*REQ))
        mlds.kds.execute(delete(("FILE", "=", "alpha"), ("n", "=", 0)))
        after = result_image(mlds.kds.execute(retrieve(*REQ)))
        assert all(dict(pairs).get("n") != 0 for pairs, _ in after)

    def test_update_invalidates(self, mlds):
        mlds.kds.execute(retrieve(*REQ))
        mlds.kds.execute(
            update(Modifier("parity", value=5), ("FILE", "=", "alpha"), ("n", "=", 2))
        )
        after = result_image(mlds.kds.execute(retrieve(*REQ)))
        assert all(dict(pairs).get("n") != 2 for pairs, _ in after)

    def test_unrelated_file_mutation_keeps_entry(self, mlds):
        mlds.kds.execute(retrieve(*REQ))
        hits_before = total_result_snapshot(mlds)["hits"]
        mlds.kds.execute(insert("beta", n=100))  # beta is not pinned by REQ
        mlds.kds.execute(retrieve(*REQ))
        assert total_result_snapshot(mlds)["hits"] > hits_before

    def test_unpinned_query_invalidated_by_any_file(self, mlds):
        everything = retrieve(("n", "<", 3))  # pins no file: scans all
        before = result_image(mlds.kds.execute(everything))
        mlds.kds.execute(insert("gamma", n=1))
        after = result_image(mlds.kds.execute(everything))
        assert len(after) == len(before) + 1

    def test_rollback_restore_invalidates(self, mlds):
        mlds.kds.begin_transaction()
        mlds.kds.execute(insert("alpha", n=100, parity=0))
        with_row = result_image(mlds.kds.execute(retrieve(*REQ)))  # caches n=100
        assert any(dict(pairs).get("n") == 100 for pairs, _ in with_row)
        mlds.kds.abort_transaction()  # abort path: Backend.rollback
        after = result_image(mlds.kds.execute(retrieve(*REQ)))
        assert all(dict(pairs).get("n") != 100 for pairs, _ in after)


class TestEnginesAndDurability:
    @pytest.mark.parametrize("engine", ["serial", "process"])
    def test_engines_agree_with_cache_enabled(self, engine):
        mlds = MLDS(backend_count=3, engine=engine)
        seed(mlds)
        first = mlds.kds.execute(retrieve(*REQ))
        second = mlds.kds.execute(retrieve(*REQ))
        assert result_image(first) == result_image(second)
        assert first.response.total_ms == second.response.total_ms
        mlds.kds.shutdown()

    def test_serial_and_process_results_identical(self):
        images = {}
        for engine in ("serial", "process"):
            mlds = MLDS(backend_count=3, engine=engine)
            seed(mlds)
            mlds.kds.execute(retrieve(*REQ))
            images[engine] = result_image(mlds.kds.execute(retrieve(*REQ)))
            mlds.kds.shutdown()
        assert images["serial"] == images["process"]

    def test_recovery_replay_bypasses_cache(self, tmp_path):
        wal_dir = tmp_path / "wal"
        mlds = MLDS(backend_count=2, wal=wal_dir)
        seed(mlds)
        # Warm the cache, then mutate: replay must re-apply the mutations
        # against real stores, never consult (or be confused by) caches.
        mlds.kds.execute(retrieve(*REQ))
        mlds.kds.execute(insert("alpha", n=100, parity=0))
        mlds.kds.execute(delete(("FILE", "=", "beta"), ("n", "=", 3)))
        expected = farm_image(mlds)

        recovered = recover_mlds(wal_dir)
        assert farm_image(recovered) == expected
        after = result_image(recovered.kds.execute(retrieve(*REQ)))
        assert any(dict(pairs).get("n") == 100 for pairs, _ in after)

    def test_checkpoint_restore_serves_fresh_results(self, tmp_path):
        wal_dir = tmp_path / "wal"
        mlds = MLDS(backend_count=2, wal=wal_dir)
        seed(mlds)
        mlds.kds.execute(retrieve(*REQ))  # warm
        checkpoint_mlds(mlds)
        mlds.kds.execute(insert("alpha", n=100, parity=0))
        expected = farm_image(mlds)

        recovered = recover_mlds(wal_dir)
        assert farm_image(recovered) == expected
        first = result_image(recovered.kds.execute(retrieve(*REQ)))
        second = result_image(recovered.kds.execute(retrieve(*REQ)))
        assert first == second
        assert any(dict(pairs).get("n") == 100 for pairs, _ in first)


class TestObservability:
    def test_result_cache_counters_reach_metrics(self):
        mlds = MLDS(backend_count=2, obs=Observability(tracing=True))
        seed(mlds)
        mlds.kds.execute(retrieve(*REQ))
        mlds.kds.execute(retrieve(*REQ))
        metrics = mlds.obs.metrics
        assert metrics.counter_value("qc.result.misses") >= 1
        assert metrics.counter_value("qc.result.hits") >= 1

    def test_compile_span_present_in_trace(self):
        mlds = MLDS(backend_count=2, obs=Observability(tracing=True))
        seed(mlds)
        mlds.kds.execute(retrieve(*REQ))
        trace = mlds.obs.tracer.last_trace
        assert trace.find("qc.compile")

    def test_controller_cache_snapshots_shape(self, mlds):
        mlds.kds.execute(retrieve(*REQ))
        report = mlds.kds.controller.cache_snapshots()
        assert "global" in report
        assert any(k.startswith("backend[") for k in report["backends"])
        one = next(iter(report["backends"].values()))
        assert set(one) == {"compile", "result"}
