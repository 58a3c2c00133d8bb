"""Compiled matchers agree with the interpreted path, byte for byte."""

from __future__ import annotations

import pytest

from repro.abdm.predicate import Conjunction, Predicate, Query
from repro.abdm.record import Record
from repro.abdm.store import ABStore
from repro.obs import Observability
from repro.qc.compile import CompiledQuery, compile_query


def record(**attrs) -> Record:
    return Record.from_pairs(attrs.items())


def selects(select, rec: Record) -> bool:
    """A ``select``'s verdict on one record: its result over the
    one-record list, which must be that very record or nothing."""
    selected = select([rec])
    assert [id(r) for r in selected] in ([], [id(rec)])
    return bool(selected)


# (query, record) pairs covering every operator/domain corner the
# interpreted comparator (repro.abdm.values.compare) defines.
CASES = [
    (Query.single("a", "=", 1), record(a=1)),
    (Query.single("a", "=", 1), record(a=2)),
    (Query.single("a", "=", 1), record(b=1)),            # attribute absent
    (Query.single("a", "=", 1.0), record(a=1)),          # int/float equality
    (Query.single("a", "=", "x"), record(a="x")),
    (Query.single("a", "=", "1"), record(a=1)),          # mixed domains unequal
    (Query.single("a", "=", None), record(a=None)),      # null equals only null
    (Query.single("a", "=", None), record(a=0)),
    (Query.single("a", "!=", 1), record(a=2)),
    (Query.single("a", "!=", 1), record(b=2)),           # absent: no match even for !=
    (Query.single("a", "!=", None), record(a=1)),
    (Query.single("a", "<", 5), record(a=3)),
    (Query.single("a", "<", 5), record(a=5)),
    (Query.single("a", "<", 5), record(a="3")),          # str vs num incomparable
    (Query.single("a", "<", "m"), record(a="b")),        # string ordering
    (Query.single("a", ">=", 5.0), record(a=5)),
    (Query.single("a", ">", None), record(a=1)),         # null never comparable
    (Query.single("a", "<=", float("nan")), record(a=1)),
    (Query((Conjunction(()),)), record(a=1)),            # empty clause: matches all
    (Query(()), record(a=1)),                            # empty query: matches none
    (
        Query.conjunction(
            [Predicate("a", "=", 1), Predicate("b", ">", 2), Predicate("c", "!=", "x")]
        ),
        record(a=1, b=3, c="y"),
    ),
    (
        Query(
            (
                Conjunction([Predicate("a", "=", 1)]),
                Conjunction([Predicate("b", "<", 0)]),
            )
        ),
        record(b=-1),
    ),
]


@pytest.mark.parametrize("query,rec", CASES)
def test_compiled_agrees_with_interpreted(query, rec):
    assert selects(compile_query(query).select, rec) == query.matches(rec)


def test_compiled_query_exposes_source():
    query = Query.single("a", "=", 1)
    compiled = compile_query(query)
    assert isinstance(compiled, CompiledQuery)
    assert compiled.query is query
    assert compiled.source == query.render()


def test_store_selector_caches_compilations():
    store = ABStore()
    query = Query.single("a", "=", 1)
    first = store.selector(query, "f")
    second = store.selector(Query.single("a", "=", 1), "f")  # equal, distinct object
    assert first.__self__ is second.__self__  # same CompiledQuery reused
    snap = store.cache_snapshot()
    assert snap["misses"] == 1
    assert snap["hits"] == 1


def test_store_selector_keys_its_cache_on_the_file():
    # One query compiles once per file it scans: within("f") and
    # within("g") are different queries.
    store = ABStore()
    query = Query(
        (
            Conjunction([Predicate("FILE", "=", "f"), Predicate("a", "=", 1)]),
            Conjunction([Predicate("FILE", "=", "g"), Predicate("a", "=", 2)]),
        )
    )
    in_f, in_g = store.selector(query, "f"), store.selector(query, "g")
    assert in_f.__self__ is not in_g.__self__
    assert in_f.__self__.query == Query.single("a", "=", 1)
    assert in_g.__self__.query == Query.single("a", "=", 2)
    assert store.cache_snapshot()["misses"] == 2


def test_store_selector_distinguishes_empty_query_from_empty_clause():
    # Both render "()" — one matches nothing, the other everything.
    store = ABStore()
    rec = record(a=1)
    match_none = store.selector(Query(()), "f")
    match_all = store.selector(Query((Conjunction(()),)), "f")
    assert match_none is not match_all
    assert not selects(match_none, rec)
    assert selects(match_all, rec)


def test_disabled_compile_falls_back_to_interpreted(config):
    store = ABStore()
    query = Query.single("a", "=", 1)
    config.compile_enabled = False
    assert store.selector(query, "f") == query.select
    assert store.cache_snapshot()["misses"] == 0
    config.compile_enabled = True
    assert store.selector(query, "f") != query.select


def test_store_find_results_identical_with_and_without_compile(config):
    store = ABStore()
    for i in range(20):
        store.insert(record(FILE="f", n=i, parity=i % 2))
    query = Query.conjunction(
        [Predicate("FILE", "=", "f"), Predicate("parity", "=", 0), Predicate("n", ">", 4)]
    )
    compiled = [r.pairs() for r in store.find(query)]
    config.compile_enabled = False
    interpreted = [r.pairs() for r in store.find(query)]
    assert compiled == interpreted


# -- generated kernels: one per shape, and no client text in their source ------


def test_one_code_object_serves_every_statement_of_a_shape():
    obs = Observability()
    stores = [ABStore(), ABStore()]  # two backends share the process's kernels
    for store in stores:
        store.bind_obs(obs)
        store.insert(record(FILE="t", id=7, bal=1.5))
    for key in range(1000):
        query = Query.conjunction(
            [Predicate("FILE", "=", "t"), Predicate("id", "=", key), Predicate("bal", "<", key / 2)]
        )
        for store in stores:
            assert len(store.find(query)) == (key == 7)
    assert obs.metrics.counter_value("qc.compile.misses") == 2000
    assert obs.metrics.counter_value("qc.compile.codegen") == 1


def test_shape_distinguishes_operator_domain_structure_and_shared_attributes():
    def kernel(*predicates):
        return compile_query(Query.conjunction(list(predicates))).kernel_source

    base = kernel(Predicate("a", "<", 1), Predicate("b", "=", 2))
    assert kernel(Predicate("x", "<", 9.5), Predicate("y", "=", "s")) == base
    assert kernel(Predicate("a", "<=", 1), Predicate("b", "=", 2)) != base   # operator
    assert kernel(Predicate("a", "<", "1"), Predicate("b", "=", 2)) != base  # constant domain
    assert kernel(Predicate("a", "<", None), Predicate("b", "=", 2)) != base
    assert kernel(Predicate("a", "<", 1), Predicate("a", "=", 2)) != base    # one fetch, two tests
    assert kernel(Predicate("a", "<", 1)) != base                             # structure


HOSTILE = [
    "it's", 'say "hi"', "line\nbreak", "back\\slash", "__import__('os').system('true')",
    "\u2028", "'''", "{c0}", "%s", "\x00", "x" * 10_000,
]


@pytest.mark.parametrize("text", HOSTILE)
def test_no_client_text_reaches_generated_source(text):
    def conjunction(attribute, value):
        return Query(
            [
                Conjunction(
                    [Predicate("FILE", "=", "f"), Predicate(attribute, "=", value),
                     Predicate(attribute, "!=", value + "?"), Predicate(attribute, ">=", value)]
                ),
                Conjunction([Predicate(value, "<", attribute)]),
            ]
        )

    rows = [
        record(FILE="f", **{text: text}),
        record(FILE="f", **{text: text + "?"}),
        record(FILE="g", **{text: ""}),
        record(FILE="f", benign=text),
        record(**{text: 1}),
    ]
    hostile, benign = conjunction(text, text), conjunction("benign", "value")
    compiled = compile_query(hostile)
    assert compiled.kernel_source == compile_query(benign).kernel_source
    assert text not in compiled.kernel_source
    selected = compiled.select(rows)
    assert [id(r) for r in selected] == [id(r) for r in rows if hostile.matches(r)]
    assert selected  # the hostile text is matched as data
