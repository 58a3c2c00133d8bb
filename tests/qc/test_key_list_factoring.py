"""Key-list DNFs compile to one set probe — and still match exactly what
the interpreted path matches.

``(FILE = t AND t = k1) OR (FILE = t AND t = k2) …`` is what every
batched fetch sends.  The compiler folds such a group into the shared
predicates plus a ``frozenset`` membership test; set membership is
identity-or-equal-hash-and-``==``, so the cases below are the values on
which that could part ways with ``==`` (the pitfall catalog of the
cross-language interoperability study: ``1`` vs ``1.0``, ``0`` vs
``-0.0``, NaN, null vs absent, string vs number, duplicates).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.abdm.predicate import Conjunction, Predicate, Query
from repro.abdm.record import Record
from repro.abdm.store import ABStore
from repro.abdm.values import values_equal
from repro.obs import Observability
from repro.qc.compile import compile_query

NAN = float("nan")
PITFALLS = [
    None, 0, -0.0, 0.0, 1, 1.0, -1, 2, 2.5, NAN, float("inf"), 10**20, 1e20,
    "", "1", "1.0", "a", "A", "NULL", "person$1", "person$10",
]


def key_list(values, attribute="k", shared=(Predicate("FILE", "=", "f"),), tail=()):
    return Query(
        Conjunction([*shared, Predicate(attribute, "=", value), *tail]) for value in values
    )


def record(**attrs) -> Record:
    return Record.from_pairs([("FILE", "f"), *attrs.items()])


def agree(query: Query, rec: Record) -> bool:
    compiled = compile_query(query)
    assert compiled.matches(rec) == query.matches(rec), (query.render(), rec.pairs())
    return compiled.matches(rec)


class TestPitfalls:
    @pytest.mark.parametrize("stored", PITFALLS)
    @pytest.mark.parametrize(
        "keys",
        [
            [1, 2],                  # stored 1.0 must match, "1" must not
            [1.0, 2.0],              # stored 1 must match
            [0, 5],                  # stored -0.0 and 0.0 must match
            [-0.0, 5],               # stored 0 must match
            [None, 1],               # a null key matches a null keyword only
            ["1", "a"],              # strings never equal numbers
            [NAN, 1],                # NaN equals nothing, itself included
            [NAN, NAN],
            [1, 1, 1.0, 2, 2],       # duplicate keys
            [10**20, 3],             # int/float of equal value
            ["person$1", "person$10"],
        ],
    )
    def test_membership_is_equality(self, keys, stored):
        expected = any(values_equal(stored, key) for key in keys)
        assert agree(key_list(keys), record(k=stored)) == expected

    def test_same_nan_object_on_both_sides_does_not_match(self):
        # ``nan in {nan}`` is True by identity; the kernel says NaN = NaN is false.
        query = key_list([NAN, 7])
        assert compile_query(query).inset_groups == 0
        assert not agree(query, record(k=NAN))
        assert agree(query, record(k=7))

    def test_absent_attribute_is_not_a_null(self):
        query = key_list([None, 1])
        assert agree(query, record(k=None))
        assert not agree(query, record(other=None))

    def test_unhashable_stored_value_falls_back_to_comparison(self):
        query = key_list([1, 2])
        assert compile_query(query).inset_groups == 1
        rec = record()
        rec.set("k", [1])
        assert not compile_query(query).matches(rec)


class TestWhatIsFolded:
    def test_a_key_list_is_one_group(self):
        compiled = compile_query(key_list([f"person${n}" for n in range(64)], "person"))
        assert compiled.inset_groups == 1

    def test_single_clause_is_left_alone(self):
        assert compile_query(key_list([1])).inset_groups == 0

    def test_clauses_differing_in_two_predicates_are_not_folded(self):
        query = Query(
            Conjunction([Predicate("a", "=", n), Predicate("b", "=", n)]) for n in range(4)
        )
        assert compile_query(query).inset_groups == 0
        assert agree(query, Record.from_pairs([("a", 2), ("b", 2)]))
        assert not agree(query, Record.from_pairs([("a", 2), ("b", 3)]))

    def test_shared_predicates_on_either_side_of_the_key(self):
        query = key_list(
            [1, 2, 3],
            shared=(Predicate("FILE", "=", "f"), Predicate("n", ">", 0)),
            tail=(Predicate("s", "!=", "x"),),
        )
        assert compile_query(query).inset_groups == 1
        assert agree(query, record(k=2, n=1, s="y"))
        assert not agree(query, record(k=2, n=0, s="y"))
        assert not agree(query, record(k=2, n=1, s="x"))
        assert not agree(query, record(k=2, n=1))  # != needs the keyword present

    def test_mixed_factorable_and_unfactorable_clauses(self):
        query = Query(
            [
                *key_list([1, 2, 3]).clauses,
                Conjunction([Predicate("FILE", "=", "f"), Predicate("k", "!=", 9)]),
                Conjunction([Predicate("FILE", "=", "f"), Predicate("k", "=", NAN)]),
                Conjunction([Predicate("z", "<", 0)]),
                *key_list(["a", "b"], "other").clauses,
            ]
        )
        assert compile_query(query).inset_groups == 2
        assert agree(query, record(k=3))
        assert agree(query, record(k=8))       # the != clause
        assert not agree(query, record(k=9))
        assert agree(query, record(k=9, z=-1))
        assert agree(query, record(other="b"))
        assert not agree(query, record(other="c"))

    def test_a_different_operator_on_the_key_is_not_a_member(self):
        query = Query(
            [
                *key_list([1, 2]).clauses,
                Conjunction([Predicate("FILE", "=", "f"), Predicate("k", ">=", 7)]),
            ]
        )
        assert compile_query(query).inset_groups == 1
        assert agree(query, record(k=8))
        assert not agree(query, record(k=5))

    def test_store_counts_folded_groups(self):
        obs = Observability()
        store = ABStore()
        store.bind_obs(obs)
        for n in range(6):
            store.insert(record(k=n))
        found = store.find(key_list([1, 3.0, 3, 99]))
        assert [r.get("k") for r in found] == [1, 3]
        store.find(key_list([1, 3.0, 3, 99]))  # cached: compiled once
        assert obs.metrics.counter_value("qc.compile.inset_groups") == 1


def plain(**attrs) -> Record:
    return Record.from_pairs(attrs.items())


def unhashable() -> Record:
    rec = record()
    rec.set("k", [1])
    return rec


def one(attribute, operator, value) -> Query:
    return Query.single(attribute, operator, value)


#: (what the row is about, query, records, positions the kernel must select)
CATALOG = [
    ("absent is not null", one("k", "=", None), [plain(k=None), plain(j=None), plain()], [0]),
    ("!= needs the keyword", one("k", "!=", 1), [plain(k=2), plain(j=2), plain(k=None), plain(k=1)], [0, 2]),
    ("!= null", one("k", "!=", None), [plain(k=None), plain(k=0), plain()], [1]),
    ("nothing orders against null", one("k", ">=", None), [plain(k=None), plain(k=0), plain(k="")], []),
    ("null orders against nothing", one("k", "<", 5), [plain(k=None), plain(), plain(k=4)], [2]),
    ("int float bool mix", one("k", "=", 1), [plain(k=1), plain(k=1.0), plain(k=True), plain(k="1")], [0, 1, 2]),
    ("bool orders as a number", one("k", "<", 1), [plain(k=False), plain(k=True), plain(k=0.5)], [0, 2]),
    ("wide ints stay exact", one("k", "=", 2**53 + 1), [plain(k=2**53 + 1), plain(k=float(2**53))], [0]),
    ("signed zeros are equal", one("k", "=", 0), [plain(k=0.0), plain(k=-0.0), plain(k=0)], [0, 1, 2]),
    ("signed zeros order alike", one("k", "<", 0.0), [plain(k=-0.0), plain(k=-1e-300)], [1]),
    ("NaN constant equals nothing", one("k", "=", NAN), [plain(k=NAN), plain(k=float("nan")), plain(k=0)], []),
    ("NaN constant differs from all", one("k", "!=", NAN), [plain(k=NAN), plain(k=0), plain()], [0, 1]),
    ("NaN constant orders nothing", one("k", "<=", NAN), [plain(k=NAN), plain(k=0), plain(k=-1.0)], []),
    ("NaN stored orders nowhere", one("k", ">", -1), [plain(k=NAN), plain(k=0)], [1]),
    ("NaN stored differs", one("k", "!=", 0), [plain(k=NAN), plain(k=0)], [0]),
    ("str never equals num", one("k", "=", "1"), [plain(k=1), plain(k="1"), plain(k=1.0)], [1]),
    ("str never orders with num", one("k", ">", 0), [plain(k="1"), plain(k=1), plain(k="")], [1]),
    ("num never orders with str", one("k", ">", ""), [plain(k="a"), plain(k=1), plain(k="")], [0]),
    ("empty query selects nothing", Query(()), [plain(k=1), plain()], []),
    ("empty clause selects all", Query((Conjunction(()),)), [plain(k=1), plain()], [0, 1]),
    ("empty clause beside a false one", Query((Conjunction([Predicate("k", "<", None)]), Conjunction(()))), [plain()], [0]),
    ("key list with a NaN member", key_list([NAN, 7, 8]), [record(k=NAN), record(k=7), record(k=8), record(k=9)], [1, 2]),
    ("key list int/float/zero", key_list([0, 1, 2.0]), [record(k=-0.0), record(k=True), record(k=2), record(k="2")], [0, 1, 2]),
    ("key list null vs absent", key_list([None, 1]), [record(k=None), record(), record(k=1.0)], [0, 2]),
    ("unhashable stored value", key_list([1, 2]), [record(k=1), unhashable(), record(k=2.0)], [0, 2]),
    ("one attribute, two bounds", Query.conjunction([Predicate("k", ">=", 1), Predicate("k", "<", 3), Predicate("k", "!=", 2)]), [plain(k=1), plain(k=2), plain(k=2.5), plain(k="2"), plain(k=3), plain()], [0, 2]),
    ("one attribute, two domains", Query.conjunction([Predicate("k", ">=", 1), Predicate("k", "<", "z")]), [plain(k=1), plain(k="a")], []),
]


@pytest.mark.parametrize("query,rows,expected", [row[1:] for row in CATALOG], ids=[row[0] for row in CATALOG])
def test_batch_kernel_pitfall_catalog(query, rows, expected):
    compiled = compile_query(query)
    selected = compiled.select(rows)
    assert [id(r) for r in selected] == [id(rows[n]) for n in expected]
    assert selected == query.select(rows)
    assert [compiled.matches(r) for r in rows] == [query.matches(r) for r in rows]


values = st.sampled_from(PITFALLS)
attributes = st.sampled_from(["k", "j", "FILE"])
predicates = st.builds(
    Predicate, attributes, st.sampled_from(["=", "!=", "<", "<=", ">", ">="]), values
)


@st.composite
def factorable_queries(draw) -> Query:
    """Key-list groups (some sharing a shape, some not) among free clauses."""
    clauses = []
    for _ in range(draw(st.integers(1, 3))):
        before = draw(st.lists(predicates, max_size=2))
        after = draw(st.lists(predicates, max_size=1))
        attribute = draw(attributes)
        for value in draw(st.lists(values, min_size=1, max_size=6)):
            clauses.append(Conjunction([*before, Predicate(attribute, "=", value), *after]))
    free = st.builds(Conjunction, st.lists(predicates, max_size=3))
    clauses.extend(draw(st.lists(free, max_size=3)))
    return Query(draw(st.permutations(clauses)))


records = st.dictionaries(attributes, values, max_size=3).map(
    lambda attrs: Record.from_pairs(attrs.items())
)


@settings(max_examples=600, deadline=None)
@given(factorable_queries(), st.lists(records, min_size=1, max_size=6))
def test_factored_dnf_matches_exactly_what_the_interpreter_matches(query, rows):
    compiled = compile_query(query)
    for row in rows:
        assert compiled.matches(row) == query.matches(row), (query.render(), row.pairs())
    assert [id(r) for r in compiled.select(rows)] == [id(r) for r in rows if query.matches(r)]
