"""The attribute-based record store: physical operations and accounting."""

import pytest

from repro.abdm import ABStore, Predicate, Query, Record
from repro.errors import ExecutionError, RecordSealed


def make_record(file_name, key, **extra):
    pairs = [("FILE", file_name), (file_name, key)]
    pairs.extend(extra.items())
    return Record.from_pairs(pairs)


@pytest.fixture()
def store():
    store = ABStore()
    for i in range(5):
        store.insert(make_record("course", f"course${i}", credits=i % 3, title=f"T{i}"))
    for i in range(3):
        store.insert(make_record("person", f"person${i}", age=20 + i))
    return store


class TestInsert:
    def test_insert_routes_by_file(self, store):
        assert store.count("course") == 5
        assert store.count("person") == 3
        assert store.count() == 8

    def test_insert_without_file_rejected(self):
        with pytest.raises(ExecutionError):
            ABStore().insert(Record.from_pairs([("a", 1)]))

    def test_insert_seals_the_stored_record(self):
        store = ABStore()
        record = make_record("f", "f$0", x=1)
        store.insert(record)
        with pytest.raises(RecordSealed):
            record.set("x", 2)
        assert store.find(Query.single("FILE", "=", "f"))[0] is record

    def test_file_created_on_demand(self):
        store = ABStore()
        assert not store.has_file("x")
        store.file("x")
        assert store.has_file("x")


class TestFind:
    def test_find_by_file(self, store):
        found = store.find(Query.single("FILE", "=", "person"))
        assert len(found) == 3

    def test_find_with_predicate(self, store):
        query = Query.conjunction(
            [Predicate("FILE", "=", "course"), Predicate("credits", "=", 0)]
        )
        found = store.find(query)
        assert {r["course"] for r in found} == {"course$0", "course$3"}

    def test_find_open_file_scans_everything(self, store):
        found = store.find(Query.single("age", ">=", 21))
        assert len(found) == 2

    def test_find_preserves_insertion_order(self, store):
        found = store.find(Query.single("FILE", "=", "course"))
        assert [r["course"] for r in found] == [f"course${i}" for i in range(5)]

    def test_find_unknown_file_is_empty(self, store):
        assert store.find(Query.single("FILE", "=", "ghost")) == []


class TestDelete:
    def test_delete_count(self, store):
        query = Query.conjunction(
            [Predicate("FILE", "=", "course"), Predicate("credits", "=", 1)]
        )
        assert store.delete(query) == 2
        assert store.count("course") == 3

    def test_delete_leaves_others(self, store):
        store.delete(Query.single("FILE", "=", "person"))
        assert store.count("person") == 0
        assert store.count("course") == 5


class TestUpdate:
    def test_update_in_place(self, store):
        query = Query.conjunction(
            [Predicate("FILE", "=", "course"), Predicate("credits", "=", 0)]
        )
        updated = store.update(query, lambda r: r.set("credits", 9))
        assert updated == 2
        assert len(store.find(Query.conjunction(
            [Predicate("FILE", "=", "course"), Predicate("credits", "=", 9)]
        ))) == 2

    def test_update_swaps_in_a_sealed_copy(self, store):
        """Every UPDATE is copy-on-write, version capture or not (replay,
        recovery and direct store use included): a record someone still
        holds keeps its values, and the file gets a new sealed object."""
        query = Query.conjunction(
            [Predicate("FILE", "=", "course"), Predicate("credits", "=", 0)]
        )
        held = store.find(query)
        assert store.update(query, lambda r: r.set("credits", 9)) == 2
        assert [r["credits"] for r in held] == [0, 0]
        fresh = store.find(Query.single("FILE", "=", "course"))
        assert [r["credits"] for r in fresh] == [9, 1, 2, 9, 1]
        assert not any(new is old for new in fresh for old in held)
        with pytest.raises(RecordSealed):
            fresh[0].set("credits", 0)

    def test_update_none_matching(self, store):
        assert store.update(Query.single("FILE", "=", "ghost"), lambda r: None) == 0


class TestAccounting:
    def test_examined_counts_scanned_records(self):
        store = ABStore()
        for i in range(10):
            store.insert(make_record("f", f"f${i}"))
        store.stats.records_examined = 0
        store.find(Query.single("FILE", "=", "f"))
        assert store.stats.records_examined == 10

    def test_pinned_file_prunes_scan(self):
        store = ABStore()
        for i in range(10):
            store.insert(make_record("a", f"a${i}"))
        for i in range(10):
            store.insert(make_record("b", f"b${i}"))
        store.stats.records_examined = 0
        store.find(Query.single("FILE", "=", "a"))
        assert store.stats.records_examined == 10


class TestIntrospection:
    def test_snapshot_shape(self, store):
        snap = store.snapshot()
        assert set(snap) == {"course", "person"}
        assert len(snap["course"]) == 5

    def test_all_records_sorted_by_file(self, store):
        files = [r.file_name for r in store.all_records()]
        assert files == sorted(files)

    def test_clear(self, store):
        store.clear()
        assert store.count() == 0

    def test_drop_file(self, store):
        store.drop_file("course")
        assert store.count() == 3
