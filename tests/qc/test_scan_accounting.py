"""Every scan site charges and selects alike, compiled or interpreted.

All record filtering in ``repro.abdm`` goes through ``ABStore._scan``,
which charges ``records_examined`` for the whole candidate list and asks
one ``select`` call for the matches.  The compiled ``select`` is the
generated kernel, the interpreted one (``compile_enabled=False``) is
``Query.select`` — the reference.  These tests drive each call site —
``find`` scanned and index-planned, ``find_at`` over a superseded file,
``delete`` scanned and index-planned, ``update``, and both
:class:`~repro.abdm.directory.ClusteredStore` paths — under both
switches and require the same records in the same order, the same
:class:`~repro.abdm.store.ScanStats` after every step and, through the
kernel on the ``serial`` and ``process`` engines, the same simulated
response times.
"""

from __future__ import annotations

import pytest

from repro.abdl import parse_request
from repro.abdm.directory import ClusteredStore, Directory
from repro.abdm.predicate import Conjunction, Predicate, Query
from repro.abdm.record import Record
from repro.abdm.store import ABStore
from repro.mbds import KernelDatabaseSystem
from repro.obs import Observability


def conj(*predicates) -> Query:
    return Query.conjunction([Predicate(*p) for p in predicates])


def directory() -> Directory:
    d = Directory()
    d.add_ranges("x", 0, 40, 4)
    return d


STORES = {
    "plain": lambda: ABStore(),
    "indexed": lambda: ABStore(indexed_attributes=("x", "tag")),
    "clustered": lambda: ClusteredStore(directory()),
    "clustered+indexed": lambda: ClusteredStore(directory(), indexed_attributes=("x",)),
}

IN_F = ("FILE", "=", "f")
KEY_LIST = Query(
    Conjunction([Predicate(*IN_F), Predicate("x", "=", key)]) for key in (3, 3.0, 17, 99, "3")
)


def bump(record: Record) -> None:
    record.set("x", record.get("x") + 100)


def store_script(store: ABStore) -> list:
    """Drive every scan site once; return what each step selected and cost."""
    for n in range(40):
        store.insert(Record.from_pairs([("FILE", "f"), ("x", n), ("tag", f"t{n % 3}")]))
        store.insert(Record.from_pairs([("FILE", "g"), ("x", n % 5)]))
    steps = []

    def step(name, outcome):
        shown = [r.pairs() for r in outcome] if isinstance(outcome, list) else outcome
        steps.append((name, shown, store.stats.copy()))

    step("find scanned", store.find(conj(IN_F, ("tag", "!=", "t1"), ("x", ">=", 7), ("x", "<", 31))))
    step("find planned", store.find(conj(IN_F, ("x", "=", 12))))
    step("find key list", store.find(KEY_LIST))
    step("find every file", store.find(conj(("x", "<=", 2))))
    step("find nothing", store.find(Query(())))
    # Mutate under capture: the pre-image of f stays pending, so a read
    # at snapshot 0 has to scan the superseded record list.
    store._capture = True
    step("update", store.update(conj(IN_F, ("x", ">", 30), ("tag", "=", "t0")), bump))
    step("update planned", store.update(conj(IN_F, ("x", "=", 5)), bump))
    step("delete scanned", store.delete(conj(IN_F, ("tag", "=", "t2"), ("x", "<", 9))))
    step("delete planned", store.delete(conj(IN_F, ("x", "=", 20))))
    step("delete nothing", store.delete(conj(IN_F, ("x", "=", "20"))))
    step("find_at superseded", store.find_at(conj(IN_F, ("x", ">=", 18), ("x", "<", 24)), 0))
    step("find_at key list", store.find_at(KEY_LIST, 0))
    step("find_at live file", store.find_at(conj(("FILE", "=", "g"), ("x", "=", 4)), 0))
    step("find_at every file", store.find_at(conj(("x", ">", 37)), 0))
    step("find after", store.find(conj(IN_F, ("x", ">=", 100))))
    return steps


@pytest.mark.parametrize("kind", STORES)
def test_every_store_scan_site_is_switch_invariant(kind, config):
    compiled = store_script(STORES[kind]())
    config.compile_enabled = False
    interpreted = store_script(STORES[kind]())
    for ours, reference in zip(compiled, interpreted):
        assert ours == reference
    by_name = {name: (outcome, stats) for name, outcome, stats in compiled}
    assert by_name["find_at superseded"][0] == [
        [("FILE", "f"), ("x", n), ("tag", f"t{n % 3}")] for n in range(18, 24)
    ]  # the pre-image: updated and deleted rows are all still there
    assert by_name["update"][0] == 3  # x = 33, 36, 39
    assert by_name["delete scanned"][0] == 2  # x = 2, 8 (5 was moved to 105)


KERNEL_SCRIPT = [
    *(f"INSERT (<FILE, f>, <f, f${n}>, <x, {n}>, <tag, t{n % 3}>)" for n in range(24)),
    "RETRIEVE ((FILE = f) AND (x >= 4) AND (x < 19) AND (tag != t1)) (*)",
    "RETRIEVE (((FILE = f) AND (x = 3)) OR ((FILE = f) AND (x = 17)) OR ((FILE = f) AND (x = 40))) (*)",
    "RETRIEVE ((FILE = f) AND (x = 7)) (*)",
    "UPDATE ((FILE = f) AND (tag = t0) AND (x > 10)) (x = x + 100)",
    "DELETE ((FILE = f) AND (x = 5))",
    "DELETE ((FILE = f) AND (tag = t2) AND (x < 9))",
    "RETRIEVE (FILE = f) (COUNT(*))",
]
SNAPSHOT_READ = "RETRIEVE ((FILE = f) AND (x >= 2) AND (x < 30)) (*)"


def kernel_run(engine: str, clustered: bool) -> dict:
    obs = Observability()
    factory = (lambda: ClusteredStore(directory())) if clustered else None
    kds = KernelDatabaseSystem(
        backend_count=2, engine=engine, workers=2, store_factory=factory, obs=obs
    )
    try:
        kds.controller.add_index("x")
        traces = [kds.execute(parse_request(text)) for text in KERNEL_SCRIPT]
        # An open writer leaves f superseded-but-uncommitted on every
        # backend, so the reader's snapshot is served by find_at.
        writer, reader = kds.create_session("writer"), kds.create_session("reader")
        kds.session_begin(writer)
        kds.execute(parse_request("DELETE ((FILE = f) AND (x < 12))"), session=writer)
        snapshot = kds.execute(parse_request(SNAPSHOT_READ), session=reader)
        assert snapshot.snapshot_seq is not None
        kds.session_abort(writer)
        traces.append(snapshot)
        return {
            "requests": [
                (
                    t.result.count,
                    [r.pairs() for r in t.result.records],
                    t.response.total_ms,
                    t.response.backend_ms,
                    tuple(t.per_backend_ms),
                )
                for t in traces
            ],
            "clock": kds.clock.as_dict(),
            "examined": obs.metrics.counter_value("backend.records_examined"),
            "index_hits": obs.metrics.counter_value("backend.index_hits"),
        }
    finally:
        kds.shutdown()


@pytest.mark.parametrize("clustered", [False, True], ids=["abstore", "clustered"])
@pytest.mark.parametrize("engine", ["serial", "process"])
def test_simulated_times_are_switch_invariant_on_every_engine(engine, clustered, config):
    compiled = kernel_run(engine, clustered)
    config.compile_enabled = False
    interpreted = kernel_run(engine, clustered)
    assert compiled == interpreted
    assert compiled["examined"] > 0
    assert compiled["requests"][-1][0] == 15  # 8 had the snapshot seen the open DELETE
