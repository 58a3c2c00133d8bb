"""Property tests: compiled matchers are extensionally equal to interpreted.

Random queries over the full operator set and random records over a
value domain mixing ints, floats (incl. NaN/inf), bools, strings, nulls
and absent attributes: for every (query, record) pair the generated
``select`` over that one record must keep it exactly when
``Query.matches`` does, over a list it must pick the very same record
objects in the same order, and a full store scan must agree likewise.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.abdm.predicate import Conjunction, Predicate, Query
from repro.abdm.record import Record
from repro.abdm.store import ABStore
from repro.qc.compile import compile_query

ATTRS = ("a", "b", "c", "d")
OPERATORS = ("=", "!=", "<", "<=", ">", ">=")

values = st.one_of(
    st.none(),
    st.integers(-3, 3),
    st.sampled_from([0.0, -0.0, 1.5, -2.5, float("nan"), float("inf")]),
    st.booleans(),
    st.sampled_from(["", "x", "y", "1", "abc"]),
)

predicates = st.builds(
    Predicate,
    st.sampled_from(ATTRS),
    st.sampled_from(OPERATORS),
    values,
)

queries = st.builds(
    Query,
    st.lists(
        st.builds(Conjunction, st.lists(predicates, max_size=3)),
        max_size=3,
    ).map(tuple),
)

records = st.dictionaries(st.sampled_from(ATTRS), values, max_size=4).map(
    lambda attrs: Record.from_pairs(attrs.items())
)


@settings(max_examples=300)
@given(queries, records)
def test_compiled_matches_agree_with_interpreted(query, record):
    selected = compile_query(query).select([record])
    assert [id(r) for r in selected] == [id(record)] * query.matches(record)


@settings(max_examples=300)
@given(queries, st.lists(records, max_size=8))
def test_select_is_the_interpreted_filter_by_identity_and_order(query, rows):
    rows = rows + rows[:2]  # the same object twice is selected twice
    selected = compile_query(query).select(rows)
    assert [id(r) for r in selected] == [id(r) for r in rows if query.matches(r)]


@settings(max_examples=100)
@given(queries, st.lists(records, max_size=8))
def test_store_scan_identical_compiled_and_interpreted(query, rows):
    store = ABStore()
    for i, record in enumerate(rows):
        copy = record.copy()
        copy.set("FILE", "f")
        copy.set("rowid", i)
        store.insert(copy)
    select = store.selector(query, "f")
    compiled_scan = [r for r in store.file("f").records() if select([r])]
    interpreted_scan = [r for r in store.file("f").records() if query.matches(r)]
    assert compiled_scan == interpreted_scan
    assert select(store.file("f").records()) == interpreted_scan
