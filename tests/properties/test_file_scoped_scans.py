"""Property: a scan compiled for one file answers what the whole query does.

Every per-file scan compiles ``query.within(file)``, which drops the
``FILE = '<file>'`` terms the file's records satisfy by construction and
the clauses that pin another file.  Random multi-file stores meet random
DNF queries mixing ``FILE =`` pins (to stored and unknown files),
``FILE !=`` and ordering terms, non-``str`` ``FILE`` values, clauses
pinning two files at once, and unpinned clauses.  On a plain store, an
indexed store and a directory-clustered store:

* ``find`` and ``find_at`` (with a superseded file) return the records
  ``Query.matches`` picks, by identity and in order;
* ``update`` and ``delete`` leave the stores and counts the reference
  leaves;
* the compiled path and the interpreted one (compilation switched off)
  charge the same ``ScanStats``.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.abdm.directory import ClusteredStore, Directory
from repro.abdm.predicate import Conjunction, Predicate, Query
from repro.abdm.record import Record
from repro.abdm.store import ABStore
from repro.qc import runtime as qc_runtime

FILES = ("fa", "fb", "fc")
OPERATORS = ("=", "!=", "<", "<=", ">", ">=")

values = st.one_of(st.none(), st.integers(0, 3), st.sampled_from(["a", "b"]))

file_terms = st.one_of(
    st.builds(Predicate, st.just("FILE"), st.just("="), st.sampled_from(FILES + ("fz",))),
    st.builds(
        Predicate, st.just("FILE"), st.sampled_from(("!=", "<", ">=")), st.sampled_from(FILES)
    ),
    st.builds(Predicate, st.just("FILE"), st.just("="), st.sampled_from((5, None, 1.5))),
)
value_terms = st.builds(
    Predicate, st.sampled_from(("x", "y")), st.sampled_from(OPERATORS), values
)
free_clauses = st.builds(
    Conjunction, st.lists(st.one_of(file_terms, value_terms), max_size=4)
)


@st.composite
def pinned_clauses(draw) -> Conjunction:
    """A clause led by ``FILE = f`` — sometimes twice, sometimes two files."""
    pins = [Predicate("FILE", "=", draw(st.sampled_from(FILES)))]
    if draw(st.booleans()):
        pins.append(Predicate("FILE", "=", draw(st.sampled_from(FILES))))
    rest = draw(st.lists(st.one_of(value_terms, file_terms), max_size=3))
    return Conjunction(draw(st.permutations(pins + rest)))


queries = st.lists(st.one_of(pinned_clauses(), free_clauses), max_size=3).map(Query)

rows = st.lists(
    st.tuples(
        st.sampled_from(FILES),
        st.dictionaries(st.sampled_from(("x", "y")), values, max_size=2),
    ),
    max_size=14,
)


def stores():
    """The three store kinds a backend may run, empty."""
    directory = Directory()
    directory.add_ranges("x", 0, 4, 2)
    return [ABStore(), ABStore(("x", "y")), ClusteredStore(directory)]


def filled(store, drawn):
    for n, (file, attributes) in enumerate(drawn):
        store.insert(Record.from_pairs([("FILE", file), ("n", n), *attributes.items()]))
    return store


def in_file_order(store, records_of, query):
    """The reference: ``query.matches`` over every file, in file order."""
    return [r for name in store.file_names() for r in records_of(name) if query.matches(r)]


def interpreted(operation):
    """Run *operation* with compilation switched off."""
    qc_runtime.config.compile_enabled = False
    try:
        return operation()
    finally:
        qc_runtime.config.compile_enabled = True


def ids(records):
    return [id(r) for r in records]


def supersede(store):
    """One commit unit that rewrites, deletes from and grows file ``fa``."""
    store._capture = True
    try:
        store.update(
            Query.conjunction([Predicate("FILE", "=", "fa"), Predicate("x", ">=", 2)]),
            lambda record: record.set("y", "moved"),
        )
        store.delete(Query.conjunction([Predicate("FILE", "=", "fa"), Predicate("x", "=", 0)]))
        store.insert(Record.from_pairs([("FILE", "fa"), ("n", -1), ("x", 1)]))
    finally:
        store._capture = False
    store.seal_versions(None, 1, 0)


@settings(max_examples=150, deadline=None)
@given(queries, rows)
def test_find_is_the_interpreted_filter(query, drawn):
    for compiled, reference in zip(stores(), stores()):
        filled(compiled, drawn)
        filled(reference, drawn)
        found = compiled.find(query)
        expected = interpreted(lambda: reference.find(query))
        assert [r.pairs() for r in found] == [r.pairs() for r in expected]
        assert compiled.stats == reference.stats
        wanted = in_file_order(compiled, lambda name: compiled.file(name).records(), query)
        if isinstance(compiled, ClusteredStore):  # clusters set the order
            assert sorted(ids(found)) == sorted(ids(wanted))
        else:
            assert ids(found) == ids(wanted)


@settings(max_examples=100, deadline=None)
@given(queries, rows)
def test_find_at_a_superseded_file_is_the_interpreted_filter(query, drawn):
    for compiled, reference in zip(stores(), stores()):
        before = {}
        for store in (compiled, reference):
            filled(store, drawn)
            before[id(store)] = {n: list(store.file(n).records()) for n in store.file_names()}
            supersede(store)
        found = compiled.find_at(query, 0)
        expected = interpreted(lambda: reference.find_at(query, 0))
        assert [r.pairs() for r in found] == [r.pairs() for r in expected]
        assert compiled.stats == reference.stats
        wanted = in_file_order(compiled, lambda name: compiled.records_at(name, 0), query)
        committed = before[id(compiled)]
        assert ids(wanted) == ids(
            in_file_order(compiled, lambda name: committed.get(name, []), query)
        )
        if isinstance(compiled, ClusteredStore):
            assert sorted(ids(found)) == sorted(ids(wanted))
        else:
            assert ids(found) == ids(wanted)


def marked(record):
    """What the test UPDATE leaves of *record*: its copy with ``y = 'hit'``."""
    copy = record.copy()
    copy.set("y", "hit")
    return copy


@settings(max_examples=100, deadline=None)
@given(queries, rows)
def test_update_and_delete_leave_the_reference_stores(query, drawn):
    for kind in range(3):
        compiled, reference = filled(stores()[kind], drawn), filled(stores()[kind], drawn)
        files = {name: compiled.file(name).records() for name in compiled.file_names()}
        hits = sum(query.matches(r) for records in files.values() for r in records)
        updated = {
            name: [(marked(r) if query.matches(r) else r).pairs() for r in records]
            for name, records in files.items()
        }
        kept = {
            name: [r.pairs() for r in records if not query.matches(r)]
            for name, records in files.items()
        }
        assert compiled.update(query, lambda r: r.set("y", "hit")) == hits
        assert interpreted(lambda: reference.update(query, lambda r: r.set("y", "hit"))) == hits
        assert compiled.snapshot() == reference.snapshot() == updated
        assert compiled.stats == reference.stats

        compiled, reference = filled(stores()[kind], drawn), filled(stores()[kind], drawn)
        assert compiled.delete(query) == hits
        assert interpreted(lambda: reference.delete(query)) == hits
        assert compiled.snapshot() == reference.snapshot() == kept
        assert compiled.stats == reference.stats
