"""One commit unit: a failed mutation aborts, in or out of a transaction.

Two reproductions, each on every engine, of what the kernel did while
auto-commit was a second protocol inside the controller:

* **Torn farm.**  An auto-commit ``UPDATE`` that raises half-way through
  its apply (``a * 1.5`` overflows on one record) wrote a WAL abort but
  never restored the stores, so the live farm kept the half it had
  applied while recovery, reading the log, did not.
* **Poisoned log.**  The same statement inside an explicit transaction
  left a journaled op that cannot apply; ``commit`` then wrote a commit
  record after it and recovery died replaying it.

Now both are the one ``session_transaction``: failure means abort, abort
means rollback from the pending pre-images, and a transaction whose
journaled op did not apply can never commit.
"""

from __future__ import annotations

import json

import pytest

from repro.abdl import parse_request
from repro.core.mlds import MLDS
from repro.errors import LockTimeout, TransactionAborted, WorkerCrashed
from repro.wal.log import WalManager, segment_name
from repro.wal.recovery import checkpoint_mlds, recover_mlds

from tests.ipc.test_worker_crash import die_after_request_frame, within
from tests.wal.conftest import farm_image, insert

ENGINES = ["serial", "process"]
BIG = 10**400  # an int no float can hold: `a * 1.5` raises on this record
OVERFLOWING = parse_request("UPDATE ((FILE = t)) (a = a * 1.5)")
EVERYTHING = parse_request("RETRIEVE (FILE = t) (*)")


@pytest.fixture(params=ENGINES)
def system(request, tmp_path):
    wal_dir = tmp_path / "wal"
    mlds = MLDS(
        backend_count=2,
        engine=request.param,
        wal=WalManager(wal_dir, 2, sync=False),
    )
    for value in (1, 2, 3, BIG, 5, 6):
        mlds.kds.execute(insert("t", a=value))
    yield mlds, wal_dir, request.param
    mlds.kds.shutdown()


def recovered_image(wal_dir, engine):
    recovered = recover_mlds(wal_dir, engine=engine, attach_wal=False)
    try:
        return farm_image(recovered)
    finally:
        recovered.kds.shutdown()


def version_depths(mlds):
    """Per-backend chain depths (in-process stores only)."""
    return [
        backend.store.version_depths()
        for backend in mlds.kds.controller.backends
        if hasattr(backend.store, "version_depths")
    ]


def pending_entries(mlds):
    return [
        name
        for backend in mlds.kds.controller.backends
        if hasattr(backend.store, "_versions")
        for name, chain in backend.store._versions.items()
        if chain[-1].superseded_at is None
    ]


class TestFailedAutoCommit:
    def test_live_farm_equals_recovery(self, system):
        mlds, wal_dir, engine = system
        before = farm_image(mlds)
        depths = version_depths(mlds)
        with pytest.raises(Exception, match="int too large"):
            mlds.kds.execute(OVERFLOWING)
        assert farm_image(mlds) == before
        assert farm_image(mlds) == recovered_image(wal_dir, engine)
        # The unit left no version entry behind, pending or sealed.
        assert version_depths(mlds) == depths
        assert pending_entries(mlds) == []

    def test_nothing_stays_open_and_readers_see_the_committed_rows(self, system):
        mlds, _, _ = system
        kds = mlds.kds
        with pytest.raises(Exception, match="int too large"):
            kds.execute(OVERFLOWING)
        assert not kds.in_transaction
        assert not kds.wal.has_open_transactions
        assert kds.locks.held_by("kernel") == {}
        trace = kds.execute(EVERYTHING)
        assert trace.snapshot_seq is not None  # a lock-free snapshot read
        assert sorted(r.get("a") for r in trace.result.records) == [1, 2, 3, 5, 6, BIG]
        checkpoint_mlds(mlds)  # not wedged by a phantom transaction

    def test_failed_insert_rewinds_the_placement_counter(self, system, monkeypatch):
        mlds, wal_dir, engine = system
        kds = mlds.kds
        engine_obj = kds.controller.engine
        real = engine_obj.execute_one

        def fail_once(*args, **kwargs):
            monkeypatch.setattr(engine_obj, "execute_one", real)
            raise RuntimeError("backend refused the insert")

        monkeypatch.setattr(engine_obj, "execute_one", fail_once)
        with pytest.raises(RuntimeError):
            kds.execute(insert("t", a=7))
        kds.execute(insert("t", a=8))

        twin = MLDS(backend_count=2)
        for value in (1, 2, 3, BIG, 5, 6, 8):
            twin.kds.execute(insert("t", a=value))
        try:
            assert farm_image(mlds) == farm_image(twin)
        finally:
            twin.kds.shutdown()
        assert farm_image(mlds) == recovered_image(wal_dir, engine)


class TestFailedMutationDoomsItsTransaction:
    def test_commit_raises_typed_and_recovery_succeeds(self, system):
        mlds, wal_dir, engine = system
        kds = mlds.kds
        before = farm_image(mlds)
        kds.begin_transaction()
        kds.execute(insert("t", a=7))
        with pytest.raises(Exception, match="int too large"):
            kds.execute(OVERFLOWING)
        with pytest.raises(TransactionAborted):
            kds.commit_transaction()
        # The transaction ended aborted: rolled back, nothing held or open.
        assert not kds.in_transaction
        assert not kds.wal.has_open_transactions
        assert kds.locks.held_by("kernel") == {}
        assert farm_image(mlds) == before
        assert recovered_image(wal_dir, engine) == before
        kds.execute(insert("t", a=8))  # and the session is usable again

    def test_any_further_statement_aborts_it_too(self, system):
        mlds, wal_dir, engine = system
        kds = mlds.kds
        before = farm_image(mlds)
        session = kds.create_session("writer")
        kds.session_begin(session)
        with pytest.raises(Exception, match="int too large"):
            kds.execute(OVERFLOWING, session=session)
        with pytest.raises(TransactionAborted):
            kds.execute(EVERYTHING, session=session)
        assert not session.in_transaction
        assert farm_image(mlds) == before
        assert recovered_image(wal_dir, engine) == before

    def test_swallowed_failure_cannot_commit_through_the_scope(self, system):
        mlds, wal_dir, engine = system
        before = farm_image(mlds)
        with pytest.raises(TransactionAborted):
            with mlds.kds.transaction():
                try:
                    mlds.kds.execute(OVERFLOWING)
                except Exception:
                    pass  # the scope would commit; the kernel must not
        assert farm_image(mlds) == before
        assert recovered_image(wal_dir, engine) == before

    def test_a_lock_timeout_dooms_nothing(self, system):
        mlds, wal_dir, engine = system
        kds = mlds.kds
        holder = kds.create_session("holder")
        waiter = kds.create_session("waiter")
        waiter.lock_timeout = 0.05
        kds.session_begin(holder)
        kds.execute(insert("t", a=7), session=holder)
        kds.session_begin(waiter)
        kds.execute(insert("u", b=1), session=waiter)
        with pytest.raises(LockTimeout):  # raised before anything is journaled
            kds.execute(insert("t", a=8), session=waiter)
        kds.session_commit(holder)
        kds.session_commit(waiter)  # commits: its one journaled op applied
        assert farm_image(mlds) == recovered_image(wal_dir, engine)


def test_worker_death_mid_update_settles_wal_side_then_heals_and_applies_once(tmp_path):
    """A lost farm is not asked to roll back: the unit writes its abort
    record and lets go, and the retry after the heal is the one apply —
    not a second one on top of what the survivors had already done."""
    wal_dir = tmp_path / "wal"
    mlds = MLDS(backend_count=3, engine="process", wal=wal_dir)
    twin = MLDS(backend_count=3)
    bump = parse_request("UPDATE ((FILE = t)) (a = a + 1000)")
    try:
        for system in (mlds, twin):
            for value in range(9):
                system.kds.execute(insert("t", a=value))
        die_after_request_frame(mlds.kds.controller.backends, 1)
        trace = within(30, lambda: mlds.kds.execute(bump))
        twin.kds.execute(bump)
        assert trace.result.count == 9
        assert not mlds.kds.wal.has_open_transactions
        assert mlds.kds.locks.held_by("kernel") == {}
        assert farm_image(mlds) == farm_image(twin)
        assert farm_image(mlds) == recovered_image(wal_dir, "process")
    finally:
        mlds.kds.shutdown()
        twin.kds.shutdown()


def test_abort_after_a_mid_transaction_worker_death_still_lets_go(tmp_path):
    """Mid-transaction the crash keeps its typed error and stops the farm;
    the abort that follows cannot undo anything on a farm that is gone,
    but it must still end the transaction and free its locks."""
    wal_dir = tmp_path / "wal"
    mlds = MLDS(backend_count=3, engine="process", wal=wal_dir)
    kds = mlds.kds
    try:
        for value in range(6):
            kds.execute(insert("t", a=value))
        before = farm_image(mlds)
        session = kds.create_session("writer")
        kds.session_begin(session)
        kds.execute(insert("t", a=100), session=session)
        victim = kds.controller.backends[1]._process
        victim.kill()
        victim.join(timeout=10)
        with pytest.raises(WorkerCrashed):
            kds.execute(parse_request("UPDATE ((FILE = t)) (a = a + 1)"), session=session)
        kds.session_abort(session)
        assert not session.in_transaction
        assert not kds.wal.has_open_transactions
        assert kds.locks.held_by("writer") == {}
    finally:
        kds.shutdown()
    assert recovered_image(wal_dir, "process") == before


def test_successful_auto_commit_is_one_op_record_and_one_commit_record(tmp_path):
    """What the fold must not change: the bytes of a write that works."""
    mlds = MLDS(backend_count=2, wal=tmp_path / "wal")
    session = mlds.kds.create_session("writer")
    mlds.kds.execute(insert("t", a=1))
    mlds.kds.execute(insert("t", a=2), session=session)
    mlds.kds.shutdown()
    lines = (tmp_path / "wal" / segment_name(0)).read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert [sorted(r) for r in records] == [
        ["backends", "op", "seq", "txn"],
        ["counts", "owner", "seq", "txn", "type"],  # the kernel's own: counted
        ["backends", "op", "seq", "txn"],
        ["owner", "seq", "txn", "type"],
    ]
    assert [r["txn"] for r in records] == [1, 1, 2, 2]
    assert [r.get("owner") for r in records] == [None, "kernel", None, "writer"]
