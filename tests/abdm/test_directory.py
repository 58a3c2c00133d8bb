"""The ABDM directory: descriptors, clustering, descriptor search."""

import pytest

from repro.abdm import (
    ABStore,
    ClusteredStore,
    Directory,
    DirectoryAttribute,
    Predicate,
    Query,
    Record,
)
from repro.abdm.directory import Descriptor
from repro.abdm.predicate import Conjunction
from repro.errors import SchemaError


def record(key, **extra):
    return Record.from_pairs([("FILE", "f"), ("f", key), *extra.items()])


@pytest.fixture()
def directory():
    d = Directory()
    d.add_ranges("x", 0, 100, 10)
    d.add_values("color", ["red", "green", "blue"], buckets=2)
    return d


@pytest.fixture()
def store(directory):
    s = ClusteredStore(directory)
    for i in range(200):
        s.insert(
            record(
                f"f${i}",
                x=i % 100,
                color=["red", "green", "blue", "mauve"][i % 4],
            )
        )
    return s


class TestDescriptors:
    def test_type_a_covers_range(self):
        d = Descriptor(1, "x", "A", low=0, high=10)
        assert d.covers(0) and d.covers(10) and d.covers(5)
        assert not d.covers(11)
        assert not d.covers("five")

    def test_type_b_covers_value(self):
        d = Descriptor(1, "c", "B", value="red")
        assert d.covers("red")
        assert not d.covers("blue")

    def test_classification_is_total_with_catch_all(self, directory):
        entry = directory.entry("x")
        assert entry.classify(55) != entry.classify(999)  # out of range -> C
        assert entry.classify("not a number") == entry.classify(999)

    def test_classification_without_catch_all_raises(self):
        entry = DirectoryAttribute("x", [Descriptor(1, "x", "A", low=0, high=1)])
        with pytest.raises(SchemaError):
            entry.classify(99)

    def test_ranges_validation(self):
        d = Directory()
        with pytest.raises(SchemaError):
            d.add_ranges("x", 10, 0, 4)

    def test_duplicate_attribute_rejected(self, directory):
        with pytest.raises(SchemaError):
            directory.add_hashed("x", 4)


class TestDescriptorSearch:
    def test_equality_prunes_to_one_descriptor(self, directory):
        entry = directory.entry("x")
        candidates = entry.candidates(Predicate("x", "=", 13))
        assert len(candidates) == 1

    def test_inequality_cannot_prune(self, directory):
        assert directory.entry("x").candidates(Predicate("x", "!=", 13)) is None

    def test_range_predicate_keeps_overlapping(self, directory):
        entry = directory.entry("x")
        candidates = entry.candidates(Predicate("x", ">=", 85))
        # 2 overlapping ranges (80-90, 90-100) plus the catch-all.
        assert len(candidates) == 3

    def test_value_directory_equality(self, directory):
        entry = directory.entry("color")
        red = entry.candidates(Predicate("color", "=", "red"))
        green = entry.candidates(Predicate("color", "=", "green"))
        assert red != green and len(red) == 1

    def test_clause_constraints_intersect(self, directory):
        clause = Conjunction(
            [Predicate("x", "=", 13), Predicate("x", ">=", 10)]
        )
        constraints = directory.descriptor_search(clause)
        x_constraint = constraints[0]
        assert len(x_constraint) == 1


class TestClusteredStore:
    def test_clusters_formed(self, store):
        assert store.cluster_count("f") > 1

    def test_equality_scan_is_pruned(self, store):
        store.stats.records_examined = 0
        query = Query.conjunction([Predicate("FILE", "=", "f"), Predicate("x", "=", 13)])
        found = store.find(query)
        assert {r.get("x") for r in found} == {13}
        assert store.stats.records_examined < 40  # far fewer than 200

    def test_results_equal_plain_store(self, store):
        plain = ABStore()
        for r in store.file("f"):
            plain.insert(r.copy())
        for query in [
            Query.conjunction([Predicate("FILE", "=", "f"), Predicate("x", "<", 20)]),
            Query.conjunction(
                [Predicate("FILE", "=", "f"), Predicate("color", "=", "mauve")]
            ),
            Query.conjunction([Predicate("FILE", "=", "f"), Predicate("x", "!=", 5)]),
            Query(
                [
                    Conjunction([Predicate("FILE", "=", "f"), Predicate("x", "=", 1)]),
                    Conjunction([Predicate("FILE", "=", "f"), Predicate("x", "=", 2)]),
                ]
            ),
        ]:
            expected = sorted(tuple(r.pairs()) for r in plain.find(query))
            got = sorted(tuple(r.pairs()) for r in store.find(query))
            assert got == expected

    def test_unpinned_query_falls_back_to_full_scan(self, store):
        found = store.find(Query.single("x", "=", 13))
        assert {r.get("x") for r in found} == {13}

    def test_update_moves_records_between_clusters(self, store, directory):
        query = Query.conjunction([Predicate("FILE", "=", "f"), Predicate("x", "=", 13)])
        store.update(query, lambda r: r.set("x", 95))
        assert store.find(query) == []
        moved = store.find(
            Query.conjunction([Predicate("FILE", "=", "f"), Predicate("x", "=", 95)])
        )
        assert len(moved) >= 2  # originals at 95 plus the moved ones

    def test_delete_rebuilds_clusters(self, store):
        query = Query.conjunction([Predicate("FILE", "=", "f"), Predicate("x", "<", 50)])
        deleted = store.delete(query)
        assert deleted == 100
        assert store.find(query) == []
        assert store.count("f") == 100

    def test_clear(self, store):
        store.clear()
        assert store.count() == 0 and store.cluster_count("f") == 0


class TestHashedDirectory:
    def test_hashed_buckets_partition(self):
        d = Directory()
        d.add_hashed("name", 8)
        s = ClusteredStore(d)
        for i in range(100):
            s.insert(record(f"f${i}", name=f"name{i}"))
        s.stats.records_examined = 0
        found = s.find(
            Query.conjunction(
                [Predicate("FILE", "=", "f"), Predicate("name", "=", "name42")]
            )
        )
        assert len(found) == 1
        assert s.stats.records_examined < 40
