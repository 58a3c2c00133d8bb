"""Incremental index maintenance: always equal to a fresh rebuild.

An UPDATE patches only the index entries of the records it changed
(``AttributeIndex.remove`` / ``place``) and an abort restores a file from
its pending pre-image.  Whatever sequence of operations ran, every
(file, attribute) index must equal what ``_rebuild_index`` derives from
the live record list — same buckets (seq, record identity), same key
objects (``1`` is not ``1.0``), same sorted arrays, counters and digest.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.abdl import parse_request
from repro.abdl.ast import Modifier
from repro.abdm import ABStore, ClusteredStore, Directory, Predicate, Query, Record
from repro.abdm.plan import AttributeIndex
from repro.mbds import KernelDatabaseSystem
from repro.obs import Observability

INDEXED = ("k", "tag")
#: Two NaN objects: NaN keys hash by identity, so these are two buckets.
NAN_A, NAN_B = float("nan"), float("nan")


def key_image(value):
    """A value's exact identity: type and spelling, NaN by object."""
    if isinstance(value, float) and math.isnan(value):
        return ("nan", id(value))
    return (type(value).__name__, repr(value))


def index_state(store, record_image=id):
    """Everything an index holds, in a form ``==`` compares exactly."""
    state = {"seq": dict(store._index_seq)}
    for file_name, table in store._indexes.items():
        for attribute, index in table.items():
            digest = index.digest()
            state[file_name, attribute] = {
                "buckets": {
                    key_image(key): [(seq, record_image(r)) for seq, r in bucket]
                    for key, bucket in index.buckets.items()
                },
                "numeric": [key_image(key) for key in index.numeric],
                "strings": [key_image(key) for key in index.strings],
                "counters": (index.nulls, index.nans, index.entries),
                "digest": (
                    digest.entries,
                    digest.nulls,
                    digest.nans,
                    digest.distinct,
                    key_image(digest.num_min),
                    key_image(digest.num_max),
                    key_image(digest.str_min),
                    key_image(digest.str_max),
                ),
            }
    return state


def assert_index_fresh(store):
    """The maintained indexes equal a rebuild from the live lists."""
    maintained = index_state(store)
    for file_name in store.file_names():
        store._rebuild_index(file_name)
    assert maintained == index_state(store)


def make_record(file_name, ident, **extra):
    pairs = [("FILE", file_name), ("id", ident)]
    pairs.extend(extra.items())
    return Record.from_pairs(pairs)


def drop_k(record):
    """An UPDATE modifier that removes the indexed attribute."""
    record.remove("k")


def where(file_name, attribute, operator, value):
    return Query.conjunction(
        [Predicate("FILE", "=", file_name), Predicate(attribute, operator, value)]
    )


class TestAttributeIndexPatching:
    def test_place_keeps_the_bucket_in_seq_order(self):
        index = AttributeIndex()
        records = [Record() for _ in range(4)]
        index.add(5, 0, records[0])
        index.add(5, 3, records[3])
        index.place(5, 1, records[1])
        assert [seq for seq, _ in index.buckets[5]] == [0, 1, 3]
        assert index.entries == 3

    def test_place_at_an_occupied_seq_swaps_the_record(self):
        index = AttributeIndex()
        old, new = Record(), Record()
        index.add("a", 0, old)
        index.place("a", 0, new)
        assert index.buckets["a"] == [(0, new)]
        assert index.entries == 1

    def test_remove_deletes_an_emptied_bucket_and_its_key(self):
        index = AttributeIndex()
        index.add(1, 0, Record())
        index.add(2, 1, Record())
        index.add(None, 2, Record())
        index.remove(1, 0, "k")
        index.remove(None, 2, "k")
        assert list(index.buckets) == [2]
        assert index.numeric == [2]
        assert (index.nulls, index.entries) == (0, 1)

    def test_departed_representative_hands_the_key_to_its_successor(self):
        index = AttributeIndex()
        first = Record.from_pairs([("k", 1)])
        second = Record.from_pairs([("k", 1.0)])
        index.add(1, 0, first)
        index.add(1.0, 1, second)
        assert key_image(index.digest().num_min) == ("int", "1")
        index.remove(1, 0, "k")
        assert key_image(index.digest().num_min) == ("float", "1.0")
        assert [key_image(key) for key in index.buckets] == [("float", "1.0")]

    def test_an_earlier_arrival_becomes_the_representative(self):
        index = AttributeIndex()
        index.add(0.0, 4, Record.from_pairs([("k", 0.0)]))
        index.place(-0.0, 2, Record.from_pairs([("k", -0.0)]))
        assert key_image(index.numeric[0]) == ("float", "-0.0")
        assert key_image(index.digest().num_max) == ("float", "-0.0")


class TestUpdateCost:
    def test_replayed_updates_patch_instead_of_rebuilding(self):
        """WAL replay, recovery and worker heal update outside version
        capture: N updates over an M-record file must not cost N rebuilds.
        Each update swaps in a sealed copy, so both indexed attributes'
        entries are re-pointed — the changed ``bal`` and the unchanged
        ``id`` — which is what a served update pays too."""
        obs = Observability()
        store = ABStore(indexed_attributes=["id", "bal"])
        store.bind_obs(obs)
        store.bulk_insert(
            make_record("acct", i, bal=(i * 7919) % 1000) for i in range(20_000)
        )
        twin = ABStore()
        twin.bulk_insert(r.copy() for r in store.file("acct"))
        for step in range(200):
            ident = (step * 97) % 20_000
            modifier = Modifier("bal", 5000 + step)
            assert store.update(where("acct", "id", "=", ident), modifier.apply) == 1
            twin.update(where("acct", "id", "=", ident), modifier.apply)
        counters = obs.metrics.as_dict()
        assert "abdm.index.rebuilds" not in counters
        assert counters["abdm.index.patched_entries"]["value"] == 2 * 200
        twin.add_index("id")
        twin.add_index("bal")
        assert index_state(store, Record.pairs) == index_state(twin, Record.pairs)

    def test_a_statement_touching_most_of_the_file_rebuilds_once(self):
        obs = Observability()
        store = ABStore(indexed_attributes=["k"])
        store.bind_obs(obs)
        for i in range(40):
            store.insert(make_record("f", i, k=i % 4))
        store.update(where("f", "id", ">=", 0), Modifier("k", 9).apply)
        assert obs.metrics.as_dict()["abdm.index.rebuilds"]["value"] == 1
        assert_index_fresh(store)

    def test_session_updates_never_rebuild(self):
        """100 single-record UPDATEs through a session: zero rebuilds,
        answerable from the metrics registry the ``metrics`` op serves."""
        obs = Observability()
        kds = KernelDatabaseSystem(backend_count=2, obs=obs)
        kds.bulk_insert([make_record("acct", i, bal=i) for i in range(400)])
        kds.controller.add_index("id", "bal")
        session = kds.create_session("writer")
        before = obs.metrics.as_dict()["abdm.index.rebuilds"]["value"]
        for i in range(100):
            request = parse_request(
                f"UPDATE ((FILE = acct) AND (id = {i * 3})) (bal = {1000 + i})"
            )
            assert kds.execute(request, session=session).result.count == 1
        counters = obs.metrics.as_dict()
        assert counters["abdm.index.rebuilds"]["value"] == before
        # Copy-on-write swaps a clone in, so both indexed entries move.
        assert counters["abdm.index.patched_entries"]["value"] == 200
        for backend in kds.controller.backends:
            assert_index_fresh(backend.store)


class TestPitfallCatalog:
    """Single-record UPDATEs on a file big enough to take the patch path."""

    def store(self, capture):
        store = ABStore(indexed_attributes=["k"])
        keys = [5, 1.0, 0.0, "m", None, NAN_A, 5, 7, 7.0, "m"]
        for ident, key in enumerate(keys):
            store.insert(make_record("f", ident, k=key))
        store.insert(make_record("f", len(keys)))  # no k at all
        store._capture = capture
        return store

    def check(self, store, ident, modify):
        assert store.update(where("f", "id", "=", ident), modify) == 1
        store._capture = False
        assert_index_fresh(store)

    def test_int_joins_its_float_twin_ahead_of_it(self):
        for capture in (False, True):
            store = self.store(capture)
            self.check(store, 0, Modifier("k", 1).apply)
            assert key_image(store.index_digest("f", "k").num_min) == ("float", "0.0")
            self.check(store, 2, Modifier("k", 9).apply)
            assert key_image(store.index_digest("f", "k").num_min) == ("int", "1")

    def test_negative_zero_takes_over_the_zero_bucket(self):
        for capture in (False, True):
            store = self.store(capture)
            self.check(store, 0, Modifier("k", -0.0).apply)
            assert key_image(store.index_digest("f", "k").num_min) == ("float", "-0.0")

    def test_key_moves_beyond_every_other(self):
        for capture in (False, True):
            for extreme in (-(10**9), 10**9, "", "zzz"):
                self.check(self.store(capture), 6, Modifier("k", extreme).apply)

    def test_null_nan_and_absent_are_three_different_things(self):
        for capture in (False, True):
            for ident in (3, 4, 5, 10):
                for value in (None, NAN_B, 5):
                    self.check(self.store(capture), ident, Modifier("k", value).apply)
                self.check(self.store(capture), ident, drop_k)


# -- the equivalence property ---------------------------------------------------

#: The pitfall catalog: int/float twins, the three zeros, NaN objects,
#: null, both string extremes, and keys beyond every other on each side.
KEYS = st.sampled_from(
    [1, 1.0, 0, 0.0, -0.0, 2, 2.5, -(10**9), 10**9, NAN_A, NAN_B, None, "", "a", "zz"]
)
ABSENT = "absent"
FILES = ("f", "g")


@st.composite
def records(draw, file_name=None):
    pairs = [
        ("FILE", file_name or draw(st.sampled_from(FILES + ("f", "f")))),
        ("id", draw(st.integers(0, 7))),
    ]
    for attribute in INDEXED:
        value = draw(st.one_of(KEYS, st.just(ABSENT)))
        if value is not ABSENT:
            pairs.append((attribute, value))
    return Record.from_pairs(pairs)


def selections(draw):
    file_name = draw(st.sampled_from(FILES))
    attribute = draw(st.sampled_from(["id", "k", "tag"]))
    if attribute == "id":
        operator = draw(st.sampled_from(["=", "<", ">="]))
        value = draw(st.integers(0, 7))
    else:
        operator = draw(st.sampled_from(["=", "!=", "<=", ">"]))
        value = draw(KEYS)
    return where(file_name, attribute, operator, value)


@st.composite
def operations(draw):
    kind = draw(
        st.sampled_from(
            ["insert", "insert", "bulk", "update", "update", "delete", "commit", "abort"]
        )
    )
    if kind == "insert":
        return (kind, draw(records()))
    if kind == "bulk":
        return (kind, draw(st.lists(records(), max_size=5)))
    if kind == "update":
        modify = draw(
            st.one_of(
                st.builds(lambda v: Modifier("k", v).apply, KEYS),
                st.builds(lambda v: Modifier("tag", v).apply, KEYS),
                st.builds(lambda n: Modifier("k", arithmetic="*", operand=n).apply,
                          st.sampled_from([-1, 0, 1.0])),
                st.just(drop_k),
            )
        )
        return (kind, selections(draw), modify)
    if kind == "delete":
        return (kind, selections(draw))
    return (kind,)


def scan_extreme(store, file_name, attribute, pick):
    values = [
        r.get(attribute)
        for r in store.file(file_name)
        if isinstance(r.get(attribute), (int, float))
    ]
    return key_image(pick(values)) if values else key_image(None)


def run(store, script, captures):
    """Drive *store* as the backend does: capture flags, seal, roll back."""
    seq = 0
    for capture, operation in zip(captures, script):
        kind = operation[0]
        store._capture = capture
        if kind == "insert":
            store.insert(operation[1].copy())
        elif kind == "bulk":
            store.bulk_insert(r.copy() for r in operation[1])
        elif kind == "update":
            store.update(operation[1], operation[2])
        elif kind == "delete":
            store.delete(operation[1])
        elif kind == "commit":
            seq += 1
            store.seal_versions(None, seq, seq - 1)
        else:
            before = {
                name: [id(r) for r in store.records_at(name, seq)]
                for name, chain in store._versions.items()
                if chain[-1].superseded_at is None
            }
            store.rollback_pending()
            for name, committed in before.items():
                assert [id(r) for r in store.records_at(name, seq)] == committed
        store._capture = False
        assert_index_fresh(store)
        for file_name in store.file_names():
            digest = store.index_digest(file_name, "k")
            if digest is not None and not digest.nans:
                assert key_image(digest.num_min) == scan_extreme(store, file_name, "k", min)
                assert key_image(digest.num_max) == scan_extreme(store, file_name, "k", max)


def cluster_state(store):
    return {
        name: {key: [id(r) for r in members] for key, members in clusters.items() if members}
        for name, clusters in store._clusters.items()
        if store.has_file(name)
    }


SCRIPTS = st.lists(operations(), min_size=1, max_size=14).flatmap(
    lambda script: st.tuples(
        st.just(script),
        st.lists(st.booleans(), min_size=len(script), max_size=len(script)),
    )
)


@settings(max_examples=250, deadline=None)
@given(SCRIPTS, st.lists(records(), min_size=6, max_size=16))
def test_any_operation_sequence_leaves_a_fresh_index(plan, seed_records):
    script, captures = plan
    store = ABStore(indexed_attributes=INDEXED)
    store.bulk_insert(r.copy() for r in seed_records)
    run(store, script, captures)


@settings(max_examples=60, deadline=None)
@given(SCRIPTS, st.lists(records(), min_size=6, max_size=16))
def test_clustered_store_maintains_indexes_and_clusters(plan, seed_records):
    script, captures = plan
    directory = Directory()
    directory.add_ranges("id", 0, 8, 2)
    store = ClusteredStore(directory, indexed_attributes=INDEXED)
    store.bulk_insert(r.copy() for r in seed_records)
    run(store, script, captures)
    maintained = cluster_state(store)
    store._rebuild_clusters(store.file_names())
    assert maintained == cluster_state(store)
