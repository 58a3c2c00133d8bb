"""Equality hash indexes: fewer records examined, identical results."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.abdm import ABStore, ClusteredStore, Directory, Predicate, Query, Record
from repro.abdm.predicate import Conjunction


def record(file_name, key, **extra):
    pairs = [("FILE", file_name), (file_name, key)]
    pairs.extend(extra.items())
    return Record.from_pairs(pairs)


def populate(store, n=60):
    for i in range(n):
        store.insert(record("data", f"d${i}", x=i % 10, label=f"row {i}"))
    return store


@pytest.fixture()
def plain():
    return populate(ABStore())


@pytest.fixture()
def indexed():
    return populate(ABStore(indexed_attributes=["x"]))


def eq_query(attribute, value, file_name="data"):
    return Query.conjunction(
        [Predicate("FILE", "=", file_name), Predicate(attribute, "=", value)]
    )


class TestIndexedFind:
    def test_results_identical_to_scan(self, plain, indexed):
        query = eq_query("x", 3)
        assert [r.pairs() for r in indexed.find(query)] == [
            r.pairs() for r in plain.find(query)
        ]

    def test_examines_only_the_bucket(self, plain, indexed):
        query = eq_query("x", 3)
        plain.find(query)
        indexed.find(query)
        assert plain.stats.records_examined == 60
        assert indexed.stats.records_examined == 6

    def test_missing_value_examines_nothing(self, indexed):
        indexed.find(eq_query("x", 999))
        assert indexed.stats.records_examined == 0

    def test_order_preserved_across_or_clauses(self, plain, indexed):
        query = Query(
            (
                Conjunction([Predicate("FILE", "=", "data"), Predicate("x", "=", 7)]),
                Conjunction([Predicate("FILE", "=", "data"), Predicate("x", "=", 2)]),
            )
        )
        assert [r.pairs() for r in indexed.find(query)] == [
            r.pairs() for r in plain.find(query)
        ]

    def test_range_predicate_served_by_sorted_index(self, indexed):
        query = Query.conjunction(
            [Predicate("FILE", "=", "data"), Predicate("x", "<", 3)]
        )
        found = indexed.find(query)
        assert len(found) == 18
        # PR 5: the sorted index serves the range slice — only the 18
        # candidates are examined, and the hit lands in range_hits.
        assert indexed.stats.records_examined == 18
        assert indexed.stats.range_hits == 1
        assert indexed.stats.fallback_scans == 0

    def test_clause_without_indexed_attribute_falls_back(self, indexed):
        query = Query(
            (
                Conjunction([Predicate("FILE", "=", "data"), Predicate("x", "=", 7)]),
                Conjunction(
                    [Predicate("FILE", "=", "data"), Predicate("label", "=", "row 1")]
                ),
            )
        )
        found = indexed.find(query)
        assert len(found) == 7
        assert indexed.stats.records_examined == 60

    def test_int_and_float_keys_agree(self, indexed):
        assert len(indexed.find(eq_query("x", 3.0))) == 6


class TestIndexedMutations:
    def test_delete_uses_index_and_stays_consistent(self, plain, indexed):
        query = eq_query("x", 4)
        assert indexed.delete(query) == plain.delete(query)
        assert indexed.stats.records_examined == 6
        assert indexed.snapshot() == plain.snapshot()
        # The survivors are still findable through the rebuilt index.
        assert indexed.find(eq_query("x", 4)) == []
        assert len(indexed.find(eq_query("x", 5))) == 6

    def test_update_reindexes_changed_values(self, plain, indexed):
        query = eq_query("x", 1)

        def bump(r):
            r.set("x", 100)

        assert indexed.update(query, bump) == plain.update(query, bump)
        assert indexed.snapshot() == plain.snapshot()
        assert indexed.find(eq_query("x", 1)) == []
        assert len(indexed.find(eq_query("x", 100))) == 6

    def test_clear_resets_indexes(self, indexed):
        indexed.clear()
        assert indexed.find(eq_query("x", 3)) == []


class TestAddIndex:
    def test_add_index_builds_from_existing_records(self, plain):
        plain.add_index("x")
        assert plain.indexed_attributes == ("x",)
        found = plain.find(eq_query("x", 3))
        assert len(found) == 6
        assert plain.stats.records_examined == 6

    def test_add_index_is_idempotent(self, indexed):
        indexed.add_index("x")
        assert indexed.indexed_attributes == ("x",)

    def test_null_values_are_indexable(self):
        store = ABStore(indexed_attributes=["x"])
        store.insert(record("data", "d$0", x=None))
        store.insert(record("data", "d$1", x=1))
        found = store.find(eq_query("x", None))
        assert len(found) == 1
        assert found[0].get("data") == "d$0"


class TestClusteredStoreComposition:
    def test_clustered_store_accepts_indexes(self):
        directory = Directory()
        directory.add_ranges("x", 0, 10, 2)
        store = populate(ClusteredStore(directory, indexed_attributes=["label"]))
        # Unpinned query falls through to ABStore.find, which can use the
        # label index.
        query = Query.single("label", "=", "row 7")
        found = store.find(query)
        assert len(found) == 1
        assert store.stats.records_examined == 1
        # Deletes keep clusters and indexes in sync.
        assert store.delete(query) == 1
        assert store.find(Query.single("label", "=", "row 7")) == []
        assert store.count() == 59


# -- property: indexing never changes behaviour -------------------------------

ops_strategy = st.lists(
    st.one_of(
        st.tuples(
            st.just("insert"),
            st.sampled_from(["a", "b"]),
            st.integers(0, 5),
            st.sampled_from(["p", "q", "r"]),
        ),
        st.tuples(st.just("find"), st.sampled_from(["a", "b"]), st.integers(0, 5)),
        st.tuples(st.just("delete"), st.sampled_from(["a", "b"]), st.integers(0, 5)),
        st.tuples(st.just("update"), st.sampled_from(["a", "b"]), st.integers(0, 5)),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(ops=ops_strategy)
def test_indexed_store_matches_plain_store(ops):
    plain = ABStore()
    indexed = ABStore(indexed_attributes=["x", "tag"])
    counter = 0
    for op in ops:
        if op[0] == "insert":
            _, file_name, x, tag = op
            counter += 1
            for store in (plain, indexed):
                store.insert(record(file_name, f"k${counter}", x=x, tag=tag))
        else:
            kind, file_name, x = op
            query = eq_query("x", x, file_name)
            if kind == "find":
                assert [r.pairs() for r in indexed.find(query)] == [
                    r.pairs() for r in plain.find(query)
                ]
            elif kind == "delete":
                assert indexed.delete(query) == plain.delete(query)
            else:

                def bump(r):
                    r.set("x", (r.get("x") or 0) + 1)

                assert indexed.update(query, bump) == plain.update(query, bump)
    assert indexed.snapshot() == plain.snapshot()
