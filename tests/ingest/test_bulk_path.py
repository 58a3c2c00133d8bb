"""The bulk-insert path is the incremental path, faster.

Every test here is an equivalence claim: bulk loading must produce the
*bit-identical* post-load state — store contents, placement counters,
index arrays, persistence snapshots — that inserting the same records
one request at a time produces, under every execution engine.  The bulk
path is allowed to change wall clock and fsync counts, never state.
"""

from __future__ import annotations

import json

import pytest

from repro.abdl.ast import (
    BulkInsertRequest,
    InsertRequest,
    RetrieveRequest,
    TargetItem,
)
from repro.abdm.predicate import Conjunction, Predicate, Query
from repro.abdm.record import Record
from repro.abdm.store import ABStore
from repro.core.mlds import MLDS
from repro.errors import ExecutionError
from repro.mbds.kds import KernelDatabaseSystem
from repro.mbds.placement import RoundRobinPlacement
from repro.persistence import load_mlds, save_mlds

ENGINES = [("serial", None), ("process", 2)]


class ValuePlacement(RoundRobinPlacement):
    """A harness-style policy: ``place`` overridden, counters unused."""

    def place(self, record, backend_count):
        return record.get("a") % backend_count


def records(n, start=0, file_name="f"):
    return [
        Record.from_pairs(
            [("FILE", file_name), ("a", i), ("b", float(i % 7)), ("s", f"v{i % 5}")]
        )
        for i in range(start, start + n)
    ]


def mixed_records(n):
    """Records alternating across three files (multi-file batches)."""
    out = []
    for i in range(n):
        out.append(
            Record.from_pairs([("FILE", f"file{i % 3}"), ("a", i), ("b", i * 0.5)])
        )
    return out


def farm_state(kds):
    """Everything the load may not change: stores, placement, indexes."""
    controller = kds.controller
    return {
        "snapshots": [b.store.snapshot() for b in controller.backends],
        "distribution": controller.distribution(),
        "indexes": controller.index_report(),
    }


class TestStoreLevel:
    """ABStore.bulk_insert against the per-record insert loop."""

    def _loaded(self, bulk: bool, indexed: bool = True):
        store = ABStore()
        if indexed:
            store.add_index("a")
            store.add_index("s")
        rows = records(60)
        if bulk:
            store.bulk_insert(rows)
        else:
            for row in rows:
                store.insert(row)
        return store

    def test_contents_identical(self):
        assert self._loaded(bulk=True).snapshot() == self._loaded(bulk=False).snapshot()

    def test_deferred_index_arrays_identical(self):
        """The sort-once arrays must equal the insort-maintained ones."""
        incremental = self._loaded(bulk=False)
        bulk = self._loaded(bulk=True)
        for file_name, table in incremental._indexes.items():
            twin = bulk._indexes[file_name]
            for attribute, index in table.items():
                other = twin[attribute]
                assert other.numeric == index.numeric
                assert other.strings == index.strings
                assert list(other.buckets) == list(index.buckets)
                assert other.entries == index.entries
                assert other.nulls == index.nulls
                assert other.nans == index.nans

    def test_index_answers_queries_after_bulk_load(self):
        store = self._loaded(bulk=True)
        assert any(r.get("a") == 17 for r in store.all_records())
        digest = store.index_digest("f", "a")
        assert digest is not None and digest.entries == 60

    def test_empty_batch_is_a_no_op(self):
        store = ABStore()
        assert store.bulk_insert([]) == 0
        assert store.count() == 0

    def test_bad_record_rejects_whole_batch(self):
        """Pre-validation: no partial application on a FILE-less record."""
        store = ABStore()
        rows = records(5) + [Record.from_pairs([("a", 99)])]
        with pytest.raises(ExecutionError):
            store.bulk_insert(rows)
        assert store.count() == 0


class TestKernelEquivalence:
    """bulk_insert == insert-per-record across engines and placements."""

    def _load(self, engine, workers, bulk, placement=None, rows=None):
        kds = KernelDatabaseSystem(
            backend_count=3, engine=engine, workers=workers, placement=placement
        )
        kds.controller.add_index("a")
        rows = rows if rows is not None else mixed_records(90)
        if bulk:
            kds.bulk_insert(rows)
        else:
            for row in rows:
                kds.execute(InsertRequest(row))
        return kds

    @pytest.mark.parametrize("engine,workers", ENGINES, ids=[e for e, _ in ENGINES])
    def test_engine_equivalence(self, engine, workers):
        bulk = self._load(engine, workers, bulk=True)
        incremental = self._load(engine, workers, bulk=False)
        try:
            assert farm_state(bulk) == farm_state(incremental)
        finally:
            bulk.shutdown()
            incremental.shutdown()

    @pytest.mark.parametrize(
        "placement_factory",
        [RoundRobinPlacement, ValuePlacement],
        ids=["round-robin", "subclass"],
    )
    def test_placement_equivalence(self, placement_factory):
        bulk = self._load("serial", None, bulk=True, placement=placement_factory())
        incremental = self._load(
            "serial", None, bulk=False, placement=placement_factory()
        )
        try:
            assert farm_state(bulk) == farm_state(incremental)
            # Post-load inserts land identically too: placement state is equal.
            probe = Record.from_pairs([("FILE", "file1"), ("a", 9999)])
            bulk.execute(InsertRequest(probe.copy()))
            incremental.execute(InsertRequest(probe.copy()))
            assert (
                bulk.controller.distribution()
                == incremental.controller.distribution()
            )
        finally:
            bulk.shutdown()
            incremental.shutdown()

    def test_queries_after_bulk_load(self):
        kds = self._load("serial", None, bulk=True)
        try:
            query = Query([Conjunction([Predicate("FILE", "=", "file1")])])
            trace = kds.execute(RetrieveRequest(query, (TargetItem("a"),)))
            assert trace.result.count == 30
        finally:
            kds.shutdown()

    def test_result_merges_all_shards(self):
        mlds = MLDS(backend_count=3)
        try:
            trace = mlds.kds.execute(BulkInsertRequest(mixed_records(30)))
            assert trace.result.operation == "BULK-INSERT"
            assert trace.result.count == 30
        finally:
            mlds.kds.shutdown()

    def test_empty_bulk_request(self):
        mlds = MLDS(backend_count=3)
        try:
            trace = mlds.kds.execute(BulkInsertRequest([]))
            assert trace.result.operation == "BULK-INSERT"
            assert trace.result.count == 0
            assert mlds.kds.record_count() == 0
        finally:
            mlds.kds.shutdown()


class TestPersistenceRoundTrip:
    """Snapshots after bulk and incremental loads are interchangeable."""

    def _system(self, bulk):
        mlds = MLDS(backend_count=3)
        mlds.kds.controller.add_index("a")
        rows = mixed_records(60)
        if bulk:
            mlds.kds.bulk_insert(rows)
        else:
            for row in rows:
                mlds.kds.execute(InsertRequest(row))
        return mlds

    def test_snapshots_bit_identical(self, tmp_path):
        """save_mlds output is byte-for-byte equal across load paths."""
        bulk = self._system(bulk=True)
        incremental = self._system(bulk=False)
        save_mlds(bulk, tmp_path / "bulk.json")
        save_mlds(incremental, tmp_path / "incr.json")
        bulk.kds.shutdown()
        incremental.kds.shutdown()
        assert (tmp_path / "bulk.json").read_text() == (
            tmp_path / "incr.json"
        ).read_text()

    def test_load_mlds_round_trips_bulk_loaded_state(self, tmp_path):
        original = self._system(bulk=True)
        save_mlds(original, tmp_path / "snap.json")
        restored = load_mlds(tmp_path / "snap.json")
        try:
            assert [b.store.snapshot() for b in restored.kds.controller.backends] == [
                b.store.snapshot() for b in original.kds.controller.backends
            ]
            assert (
                restored.kds.controller.distribution()
                == original.kds.controller.distribution()
            )
            # Placement counters restored: the next insert routes the same.
            probe = Record.from_pairs([("FILE", "file0"), ("a", 12345)])
            original.kds.execute(InsertRequest(probe.copy()))
            restored.kds.execute(InsertRequest(probe.copy()))
            assert (
                restored.kds.controller.distribution()
                == original.kds.controller.distribution()
            )
        finally:
            original.kds.shutdown()
            restored.kds.shutdown()

    def test_save_load_save_is_stable(self, tmp_path):
        """load_mlds (itself bulk-loading now) re-saves identically."""
        original = self._system(bulk=True)
        save_mlds(original, tmp_path / "one.json")
        original.kds.shutdown()
        restored = load_mlds(tmp_path / "one.json")
        save_mlds(restored, tmp_path / "two.json")
        restored.kds.shutdown()
        one = json.loads((tmp_path / "one.json").read_text())
        two = json.loads((tmp_path / "two.json").read_text())
        assert one == two

    def test_checkpoint_after_bulk_load_recovers_identically(self, tmp_path):
        from repro.wal.log import WalManager
        from repro.wal.recovery import checkpoint_mlds, recover_mlds

        wal = WalManager(tmp_path / "wal", 3)
        mlds = MLDS(backend_count=3, wal=wal)
        mlds.kds.bulk_insert(mixed_records(60))
        checkpoint_mlds(mlds)
        mlds.kds.bulk_insert(mixed_records(30))  # post-checkpoint tail
        live = [b.store.snapshot() for b in mlds.kds.controller.backends]
        mlds.kds.shutdown()

        recovered = recover_mlds(tmp_path / "wal", attach_wal=False)
        assert [
            b.store.snapshot() for b in recovered.kds.controller.backends
        ] == live
        recovered.kds.shutdown()
