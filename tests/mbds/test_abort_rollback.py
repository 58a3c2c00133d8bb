"""Abort restores from the pending pre-images, on every engine, for a
named session and for the session-less API (``kds.transaction()``, the
kernel's own session) alike.

The stores already park the committed state of each file a transaction
writes (the pending version entry snapshot reads are served from), so an
abort ships only the write set's file *names* to the backends.  These
tests pin what that must preserve: a farm indistinguishable from one the
transaction never touched, committed versions still reconstructable by a
reader that pinned its snapshot earlier, and — under the process engine —
no record crossing the worker pipes.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.abdl import parse_request
from repro.abdl.ast import Modifier
from repro.abdm.record import Record
from repro.ipc import transport
from repro.mbds import KernelDatabaseSystem
from repro.obs import Observability

from tests.abdm.test_index_maintenance import index_state
from tests.wal.conftest import delete, insert, update

ENGINES = ["serial", "process"]

#: (engine, session name) — None drives the abort through the
#: session-less ``kds.transaction()``.
CALLERS = [pytest.param(engine, "doomed", id=engine) for engine in ENGINES] + [
    pytest.param(engine, None, id=f"{engine}-sessionless") for engine in ENGINES
]


def account(ident, bal):
    return Record.from_pairs([("FILE", "acct"), ("id", ident), ("bal", bal)])


def build(engine, records=60, obs=None):
    kds = KernelDatabaseSystem(backend_count=3, engine=engine, workers=2, obs=obs)
    kds.bulk_insert([account(i, i % 7) for i in range(records)])
    kds.controller.add_index("id", "bal")
    return kds


def farm_state(kds):
    """What "never having run" must leave equal, read through the public
    backend surface so it works across the process boundary too."""
    backends = kds.controller.backends
    return {
        "stores": [b.store.snapshot() for b in backends],
        "indexes": [b.store.index_snapshot()["files"] for b in backends],
        "digests": [b.aggregate_probe("acct", ["id", "bal"]) for b in backends],
        "placement": vars(kds.controller.placement),
        "record_count": kds.record_count(),
    }


class Doomed(Exception):
    pass


@contextmanager
def aborting(kds, name):
    """A transaction that aborts when the block ends; yields its session
    (*name* None: the session-less API, so no session to pass)."""
    session = kds.create_session(name) if name else None
    scope = kds.session_transaction(session) if name else kds.transaction()
    with pytest.raises(Doomed), scope:
        yield session
        raise Doomed


def doomed_transaction(kds, name):
    """INSERT, UPDATE and DELETE in one file; create a second file."""
    with aborting(kds, name) as session:
        kds.execute(insert("acct", id=1000, bal=3), session=session)
        kds.execute(
            update(Modifier("bal", 99), ("FILE", "=", "acct"), ("id", "=", 4)),
            session=session,
        )
        kds.execute(
            update(Modifier("bal", arithmetic="+", operand=1), ("FILE", "=", "acct"), ("bal", "<=", 2)),
            session=session,
        )
        kds.execute(delete(("FILE", "=", "acct"), ("bal", "=", 5)), session=session)
        kds.execute(insert("audit", note="created inside the transaction"), session=session)


@pytest.mark.parametrize("engine, caller", CALLERS)
def test_aborted_transaction_leaves_no_trace(engine, caller):
    obs = Observability()
    subject, twin = build(engine, obs=obs), build(engine)
    try:
        doomed_transaction(subject, caller)
        assert farm_state(subject) == farm_state(twin)
        if engine != "process":
            for ours, theirs in zip(subject.controller.backends, twin.controller.backends):
                assert index_state(ours.store, Record.pairs) == index_state(
                    theirs.store, Record.pairs
                )
        # Every slice of acct was written (each lost bal = 5 rows); audit
        # was born on one backend.
        rolled = obs.metrics.as_dict()["kds.abort.files_rolled_back"]["value"]
        assert rolled == 4
        # The histories stay indistinguishable going forward.
        for kds in (subject, twin):
            kds.execute(insert("acct", id=2000, bal=1))
            kds.execute(insert("audit", note="first real entry"))
        assert farm_state(subject) == farm_state(twin)
    finally:
        subject.shutdown()
        twin.shutdown()


@pytest.mark.parametrize("engine, caller", CALLERS)
def test_reader_pinned_before_the_abort_still_sees_its_snapshot(engine, caller):
    kds = build(engine)
    everything = parse_request("RETRIEVE (FILE = acct) (id, bal)")

    def read(snapshot):
        trace = kds.controller.execute(everything, snapshot=snapshot)
        return sorted(tuple(r.pairs()) for r in trace.result.records)

    try:
        token, pinned = kds._open_snapshot()
        original = read(pinned)
        writer = kds.create_session("writer")
        kds.execute(
            update(Modifier("bal", 500), ("FILE", "=", "acct"), ("id", "<", 10)),
            session=writer,
        )
        committed = read(kds.stable_seq)
        assert committed != original
        doomed_transaction(kds, caller)
        # The sealed entry the pinned reader needs survived the rollback,
        # and the live state is the last committed one again.
        assert read(pinned) == original
        assert read(kds.stable_seq) == committed
        kds._close_snapshot(token)
    finally:
        kds.shutdown()


def test_abort_moves_no_records_over_the_worker_pipes(monkeypatch):
    kds = build("process", records=10_000)
    moved = []
    pack, unpack = transport.pack_frame, transport.unpack_frame

    def counting_pack(*args):
        frame = pack(*args)
        moved.append(len(frame))
        return frame

    def counting_unpack(frame):
        moved.append(len(frame))
        return unpack(frame)

    try:
        before = kds.record_count()
        monkeypatch.setattr(transport, "pack_frame", counting_pack)
        monkeypatch.setattr(transport, "unpack_frame", counting_unpack)
        for caller in ("doomed", None):
            del moved[:]
            with aborting(kds, caller) as session:
                kds.execute(insert("acct", id=-1, bal=0), session=session)
            assert 0 < sum(moved) < 4096
        monkeypatch.undo()
        assert kds.record_count() == before
    finally:
        kds.shutdown()
