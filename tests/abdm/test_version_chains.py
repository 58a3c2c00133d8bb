"""MVCC version chains in the record store: capture, seal, GC, limits.

The store keeps a bounded per-file chain of superseded record lists so
a snapshot read can reconstruct the committed state at any commit seq
at or above the GC watermark.  These tests drive the chain API the way
the kernel does: capture mode on for the mutation, ``seal_versions`` at
commit, ``records_at``/``find_at`` from snapshot readers.
"""

import pytest

from repro.abdm import ABStore, Predicate, Query, Record
from repro.abdm.directory import ClusteredStore, Directory
from repro.errors import SnapshotTooOld


def make_record(file_name, key, **extra):
    pairs = [("FILE", file_name), (file_name, key)]
    pairs.extend(extra.items())
    return Record.from_pairs(pairs)


def seeded_store():
    store = ABStore()
    for i in range(3):
        store.insert(make_record("pay", f"pay${i}", x=i))
    return store


def captured_insert(store, record, seq, watermark=0):
    """One auto-commit mutation cycle as the backend runs it."""
    store._capture = True
    try:
        store.insert(record)
    finally:
        store._capture = False
    store.seal_versions([record.file_name], seq, watermark)


class TestCapture:
    def test_no_capture_outside_backend_requests(self):
        store = seeded_store()
        store.insert(make_record("pay", "pay$9", x=9))  # replay/restore path
        assert store.version_depths() == {}

    def test_pending_entry_holds_the_pre_image(self):
        store = seeded_store()
        store._capture = True
        store.insert(make_record("pay", "pay$9", x=9))
        assert store.version_depths() == {"pay": 1}
        chain = store._versions["pay"]
        assert chain[-1].superseded_at is None  # pending until sealed
        assert len(store.records_at("pay", 0)) == 3  # the state before the insert

    def test_one_pending_entry_per_commit_cycle(self):
        store = seeded_store()
        store._capture = True
        store.insert(make_record("pay", "pay$9", x=9))
        store.insert(make_record("pay", "pay$10", x=10))
        assert store.version_depths() == {"pay": 1}

    def test_rollback_never_seals_a_failed_mutations_pre_image(self):
        store = seeded_store()
        store._capture = True
        store.insert(make_record("pay", "pay$9", x=9))
        store._capture = False
        assert store.rollback_pending(["pay"]) == ["pay"]
        assert store.version_depths() == {}  # the pre-image is gone...
        assert len(store.records_at("pay", 0)) == 3  # ...and is live again
        # A later commit of the file seals its own pre-image, not that one.
        captured_insert(store, make_record("pay", "pay$10", x=10), seq=1)
        assert store.version_depths() == {"pay": 1}
        assert len(store.records_at("pay", 0)) == 3
        assert len(store.records_at("pay", 1)) == 4


class TestSnapshotReads:
    def test_records_at_reconstructs_the_sealed_state(self):
        store = seeded_store()
        captured_insert(store, make_record("pay", "pay$9", x=9), seq=1)
        assert len(store.records_at("pay", 0)) == 3  # before commit 1
        assert len(store.records_at("pay", 1)) == 4  # at/after commit 1

    def test_update_copy_on_write_preserves_old_values(self):
        store = seeded_store()
        store._capture = True
        query = Query.conjunction(
            [Predicate("FILE", "=", "pay"), Predicate("x", "=", 0)]
        )
        store.update(query, lambda r: r.set("x", 99))
        store._capture = False
        store.seal_versions(["pay"], 1, 0)
        old = [r.get("x") for r in store.records_at("pay", 0)]
        new = [r.get("x") for r in store.records_at("pay", 1)]
        assert 99 not in old and 0 in old
        assert 99 in new and 0 not in new

    def test_find_at_matches_find_on_a_replayed_store(self):
        store = seeded_store()
        captured_insert(store, make_record("pay", "pay$9", x=1), seq=1)
        query = Query.conjunction(
            [Predicate("FILE", "=", "pay"), Predicate("x", "=", 1)]
        )
        replayed = seeded_store()
        assert [r.pairs() for r in store.find_at(query, 0)] == [
            r.pairs() for r in replayed.find(query)
        ]
        assert len(store.find_at(query, 1)) == 2

    def test_snapshot_live_gates_the_cached_path(self):
        store = seeded_store()
        assert store.snapshot_live(["pay"], 0)  # no chains at all
        captured_insert(store, make_record("pay", "pay$9", x=9), seq=1)
        assert not store.snapshot_live(["pay"], 0)  # must reconstruct
        assert store.snapshot_live(["pay"], 1)  # live state is seq 1

    def test_clustered_store_serves_snapshots_too(self):
        directory = Directory()
        store = ClusteredStore(directory)
        for i in range(3):
            store.insert(make_record("pay", f"pay${i}", x=i))
        store._capture = True
        store.insert(make_record("pay", "pay$9", x=0))
        store._capture = False
        store.seal_versions(["pay"], 1, 0)
        query = Query.conjunction(
            [Predicate("FILE", "=", "pay"), Predicate("x", "=", 0)]
        )
        assert len(store.find_at(query, 0)) == 1
        assert len(store.find_at(query, 1)) == 2


class TestGarbageCollection:
    def test_watermark_drops_unreachable_entries(self):
        store = seeded_store()
        captured_insert(store, make_record("pay", "pay$9", x=9), seq=1)
        # No active snapshot below 1 -> the entry sealed at 1 is dead.
        captured_insert(store, make_record("pay", "pay$10", x=10), seq=2, watermark=1)
        assert store.version_depths() == {"pay": 1}

    def test_retain_cap_trims_and_flags_snapshot_too_old(self):
        store = seeded_store()
        store.version_retain = 2
        for seq in range(1, 6):
            # Watermark pinned at 0: only the hard cap can trim.
            captured_insert(store, make_record("pay", f"pay$n{seq}", x=seq), seq=seq)
        assert store.version_depths()["pay"] == 2
        with pytest.raises(SnapshotTooOld):
            store.records_at("pay", 0)
        assert len(store.records_at("pay", 4)) == 7  # still reconstructable
        assert not store.snapshot_live(["pay"], 0)  # too old, not "live"

    def test_rollback_pending_keeps_the_trim_horizon(self):
        store = seeded_store()
        store.version_retain = 1
        for seq in (1, 2, 3):
            captured_insert(store, make_record("pay", f"pay$n{seq}", x=seq), seq=seq)
        before = [r.pairs() for r in store.records_at("pay", 3)]
        store._capture = True
        store.insert(make_record("pay", "pay$doomed", x=99))
        depth = store.version_depths()["pay"]
        assert store.rollback_pending(["pay"]) == ["pay"]
        store._capture = False
        assert store.version_depths()["pay"] == depth - 1  # only the pending entry went
        with pytest.raises(SnapshotTooOld):
            store.records_at("pay", 0)  # horizon survived the abort
        assert [r.pairs() for r in store.find(Query.single("FILE", "=", "pay"))] == before


class TestDeltas:
    """A version entry parks only what its unit overwrote."""

    @staticmethod
    def store_of(count, **kwargs):
        store = ABStore(**kwargs)
        store.bulk_insert(make_record("pay", f"pay${i}", x=i) for i in range(count))
        return store

    @staticmethod
    def where(*predicates):
        return Query.conjunction(
            [Predicate("FILE", "=", "pay")] + [Predicate(*p) for p in predicates]
        )

    def test_a_single_row_update_parks_one_pair(self):
        store = self.store_of(10_000, indexed_attributes=("x",))
        old = store.file("pay").records()[4321]
        store._capture = True
        assert store.update(self.where(("x", "=", 4321)), lambda r: r.set("x", -1)) == 1
        store._capture = False
        (entry,) = store._versions["pay"]
        assert entry.length == 10_000
        assert entry.before == {4321: old}  # one pair, no copy of the record list
        assert store.records_at("pay", 0)[4321] is old

    def test_an_insert_parks_nothing(self):
        store = self.store_of(1_000)
        store._capture = True
        store.insert(make_record("pay", "pay$new", x=-1))
        (entry,) = store._versions["pay"]
        assert (entry.length, entry.before) == (1_000, {})
        assert len(store.records_at("pay", 0)) == 1_000

    def test_abort_restores_the_same_objects_at_the_same_positions(self):
        store = self.store_of(50, indexed_attributes=("x",))
        committed = [id(r) for r in store.file("pay").records()]
        store._capture = True
        store.update(self.where(("x", ">=", 40)), lambda r: r.set("x", 0))
        store.delete(self.where(("x", "=", 7)))
        store.insert(make_record("pay", "pay$new", x=3))
        store.delete(self.where(("x", "=", 0)))
        store._capture = False
        assert store.rollback_pending(["pay"]) == ["pay"]
        assert [id(r) for r in store.file("pay").records()] == committed

    def test_a_delete_parks_the_suffix_from_its_first_victim(self):
        store = self.store_of(10)
        store._capture = True
        store.delete(self.where(("x", ">=", 6), ("x", "!=", 8)))
        store._capture = False
        (entry,) = store._versions["pay"]
        assert sorted(entry.before) == [6, 7, 8, 9]
        assert [r.get("x") for r in store.records_at("pay", 0)] == list(range(10))

    def test_deltas_compose_across_sealed_entries(self):
        store = self.store_of(8, indexed_attributes=("x",))
        states = [[r.pairs() for r in store.file("pay")]]
        units = [
            lambda: store.update(self.where(("x", "=", 2)), lambda r: r.set("x", 20)),
            lambda: store.delete(self.where(("x", "<", 2))),
            lambda: store.insert(make_record("pay", "pay$8", x=2)),
            lambda: store.update(self.where(("x", ">=", 5)), lambda r: r.set("x", 2)),
        ]
        for seq, unit in enumerate(units, start=1):
            store._capture = True
            unit()
            store._capture = False
            store.seal_versions(["pay"], seq, 0)
            states.append([r.pairs() for r in store.file("pay")])
        for seq, state in enumerate(states):
            assert [r.pairs() for r in store.records_at("pay", seq)] == state
            assert [r.pairs() for r in store.find_at(self.where(("x", "=", 2)), seq)] == [
                pairs for pairs in state if dict(pairs)["x"] == 2
            ]


class TestSnapshotObservability:
    """``plan.access_path`` on the snapshot read's span, and the rebuild counter."""

    @staticmethod
    def read_beside_a_writer(query, indexed):
        from repro.abdl import parse_request
        from repro.mbds import KernelDatabaseSystem
        from repro.obs import Observability

        obs = Observability(tracing=True)
        kds = KernelDatabaseSystem(backend_count=2, obs=obs)
        if indexed:
            kds.controller.add_index("x")
        for i in range(20):
            kds.execute(parse_request(f"INSERT (<FILE, f>, <x, {i}>)"))
        writer, reader = kds.create_session("writer"), kds.create_session("reader")
        kds.session_begin(writer)
        kds.execute(parse_request("UPDATE ((FILE = f) AND (x = 3)) (x = 33)"), session=writer)
        trace = kds.execute(parse_request(query), session=reader)
        assert trace.snapshot_seq is not None
        paths = {
            span.attrs["plan.access_path"]
            for span in obs.last_trace.walk()
            if "plan.access_path" in span.attrs
        }
        return trace.result.count, paths, obs.metrics.counter_value("abdm.snapshot.rebuilt")

    def test_an_indexed_read_is_planned_and_rebuilds_nothing(self):
        count, paths, rebuilt = self.read_beside_a_writer(
            "RETRIEVE ((FILE = f) AND (x = 3)) (*)", indexed=True
        )
        assert count == 1  # the committed row, not the open writer's
        assert paths == {"hash"}
        assert rebuilt == 0

    def test_an_unplanned_read_rebuilds_the_superseded_file(self):
        count, paths, rebuilt = self.read_beside_a_writer(
            "RETRIEVE ((FILE = f) AND (x = 3)) (*)", indexed=False
        )
        assert count == 1
        assert paths == {"scan"}
        assert rebuilt == 1  # one backend holds x = 3, so one file was superseded
