"""Concurrent WAL transactions: interleaved sessions, crash, recover.

Two layers of assurance.  First, write-side unit tests: owned
transactions interleave freely in the log, commit out of begin order,
and the reader attributes every op to the right owner with the
watermark at the *highest* committed id.  Second, a concurrent crash
matrix: while a spectator session holds an open (never-committed)
transaction with journaled ops, a writer session crashes at every
:data:`~repro.wal.faults.CRASH_MATRIX` point — recovery must land on
the writer's pre- or post-image exactly as the single-session matrix
demands, and must *never* replay the spectator's uncommitted writes.
"""

from __future__ import annotations

import threading

import pytest

from repro.abdl.ast import Modifier
from repro.core.mlds import MLDS
from repro.errors import ExecutionError, WalError
from repro.wal.faults import CRASH_MATRIX, CrashPoint, FaultInjector, InjectedCrash
from repro.wal.log import WalManager
from repro.wal.reader import read_wal
from repro.wal.recovery import checkpoint_mlds, recover_mlds

from tests.wal.conftest import bulk, delete, farm_image, insert, update

BACKENDS = 3

#: The spectator's marker value; must never appear in a recovered farm.
MARKER = 424242


class TestOwnedTransactionLog:
    def test_interleaved_sessions_attributed_to_owners(self, tmp_path):
        wal = WalManager(tmp_path / "wal", 2)
        t_a = wal.begin(owner="alice")
        t_b = wal.begin(owner="bob")
        wal.log_op([0], insert("f", a=1), txn=t_a)
        wal.log_op([1], insert("g", b=2), txn=t_b)
        wal.log_op([0], insert("f", a=3), txn=t_a)
        wal.commit(txn=t_b)
        wal.commit(txn=t_a)
        wal.close()
        view = read_wal(tmp_path / "wal")
        assert [t.owner for t in view.committed] == ["bob", "alice"]
        by_owner = {t.owner: t for t in view.committed}
        assert sum(len(ops) for ops in by_owner["alice"].ops.values()) == 2
        assert sum(len(ops) for ops in by_owner["bob"].ops.values()) == 1

    def test_watermark_is_max_committed_id(self, tmp_path):
        # bob (the later begin) commits first; the watermark must end at
        # max(committed ids), not at whichever committed last.
        wal = WalManager(tmp_path / "wal", 1)
        t_a = wal.begin(owner="alice")
        t_b = wal.begin(owner="bob")
        assert t_b > t_a
        wal.log_op([0], insert("f", a=1), txn=t_b)
        wal.commit(txn=t_b)
        wal.log_op([0], insert("f", a=2), txn=t_a)
        wal.commit(txn=t_a)
        assert wal.last_committed_txn == t_b
        wal.close()
        assert read_wal(tmp_path / "wal").last_committed_txn == t_b

    def test_owned_commits_skip_distribution_counts(self, tmp_path):
        wal = WalManager(tmp_path / "wal", 2)
        txn = wal.begin(owner="alice")
        wal.log_op([0], insert("f", a=1), txn=txn)
        wal.commit(txn=txn)
        wal.close()
        view = read_wal(tmp_path / "wal")
        assert view.committed[0].counts is None

    def test_one_open_transaction_per_owner(self, tmp_path):
        wal = WalManager(tmp_path / "wal", 1)
        wal.begin(owner="alice")
        with pytest.raises(WalError):
            wal.begin(owner="alice")
        wal.begin(owner="bob")  # other owners are free
        wal.close()

    def test_aborted_session_txn_not_in_committed(self, tmp_path):
        wal = WalManager(tmp_path / "wal", 1)
        txn = wal.begin(owner="alice")
        wal.log_op([0], insert("f", a=MARKER), txn=txn)
        wal.abort(txn=txn)
        wal.close()
        view = read_wal(tmp_path / "wal")
        assert view.committed == []
        assert view.transactions[txn].status == "aborted"

    def test_open_owners_guard_checkpointing(self, tmp_path):
        wal = WalManager(tmp_path / "wal", 1)
        wal.begin(owner="alice")
        assert wal.has_open_transactions
        assert wal.open_owners() == ["alice"]
        with pytest.raises(WalError):
            wal.start_new_segment()
        wal.close()


# -- the concurrent crash matrix ------------------------------------------------

EXPECTED = {
    CrashPoint.BEFORE_LOG_APPEND: "pre",
    CrashPoint.AFTER_LOG_APPEND: "pre",
    CrashPoint.BEFORE_BULK_APPEND: "pre",
    CrashPoint.AFTER_BULK_APPEND: "pre",
    CrashPoint.BEFORE_APPLY: "pre",
    CrashPoint.AFTER_APPLY: "pre",
    CrashPoint.BEFORE_COMMIT: "pre",
    CrashPoint.AFTER_COMMIT: "post",
    # session_commit seals the version chains only after the commit
    # record is durable: dying mid-seal (or mid-GC, just after) loses
    # only in-memory MVCC bookkeeping, never the committed transaction.
    CrashPoint.BEFORE_VERSION_SEAL: "post",
    CrashPoint.AFTER_VERSION_SEAL: "post",
    CrashPoint.BEFORE_CHECKPOINT: "post",
    CrashPoint.AFTER_CHECKPOINT_SNAPSHOT: "post",
    CrashPoint.AFTER_CHECKPOINT: "post",
}

CHECKPOINT_POINTS = {
    CrashPoint.BEFORE_CHECKPOINT,
    CrashPoint.AFTER_CHECKPOINT_SNAPSHOT,
    CrashPoint.AFTER_CHECKPOINT,
}


def seed(kds):
    for i in range(6):
        kds.execute(insert("f", a=i))


def writer_transaction(kds, session):
    """Pinned mutations only: file locks, not the global X, so the
    spectator's open transaction on its own file never conflicts."""
    with kds.session_transaction(session):
        kds.execute(insert("f", a=100), session=session)
        kds.execute(insert("f", a=101), session=session)
        kds.execute(bulk("f", [200, 201, 202]), session=session)
        kds.execute(
            update(
                Modifier("a", arithmetic="+", operand=1000),
                ("FILE", "=", "f"),
                ("a", ">=", 4),
            ),
            session=session,
        )
        kds.execute(delete(("FILE", "=", "f"), ("a", "=", 0)), session=session)


def reference_images():
    twin = MLDS(backend_count=BACKENDS)
    seed(twin.kds)
    pre = farm_image(twin)
    session = twin.kds.create_session("writer")
    writer_transaction(twin.kds, session)
    post = farm_image(twin)
    twin.kds.shutdown()
    return pre, post


def assert_no_marker(mlds):
    for backend in mlds.kds.controller.backends:
        for record in backend.store.all_records():
            assert record.get("g") != MARKER and record.get("b") != MARKER


@pytest.mark.parametrize("point", CRASH_MATRIX, ids=lambda p: p.name)
def test_recovery_never_replays_the_uncommitted_session(tmp_path, point):
    injector = FaultInjector()
    wal = WalManager(tmp_path / "wal", BACKENDS, injector=injector)
    mlds = MLDS(backend_count=BACKENDS, wal=wal)
    seed(mlds.kds)

    spectator = mlds.kds.create_session("spectator")
    writer = mlds.kds.create_session("writer")
    mlds.kds.session_begin(spectator)
    mlds.kds.execute(insert("g", b=MARKER), session=spectator)

    injector.arm(point)
    with pytest.raises(InjectedCrash):
        if point in CHECKPOINT_POINTS:
            writer_transaction(mlds.kds, writer)  # commits cleanly...
            mlds.kds.session_abort(spectator)  # ...spectator clears out...
            checkpoint_mlds(mlds)  # ...then the checkpoint dies
        else:
            writer_transaction(mlds.kds, writer)

    pre, post = reference_images()
    recovered = recover_mlds(tmp_path / "wal", attach_wal=False)
    try:
        expected = pre if EXPECTED[point] == "pre" else post
        assert farm_image(recovered) == expected
        assert_no_marker(recovered)
    finally:
        recovered.kds.shutdown()
        mlds.kds.shutdown()


@pytest.mark.parametrize("dies", [False, True], ids=["both-commit", "second-dies"])
def test_concurrent_commits_recover_independently(tmp_path, dies):
    """Two sessions on distinct files commit at once.  Each commit record
    is its own fsync and its own commit point: both recover, or — when
    the machine dies before the second commit record — the first alone."""
    injector = FaultInjector()
    wal = WalManager(tmp_path / "wal", BACKENDS, injector=injector, sync=True)
    mlds = MLDS(backend_count=BACKENDS, wal=wal)
    if dies:
        injector.arm(CrashPoint.BEFORE_COMMIT, hits=2)
    barrier = threading.Barrier(2)
    crashed = []

    def work(owner):
        session = mlds.kds.create_session(owner)
        barrier.wait(timeout=10)
        try:
            mlds.kds.execute(bulk(owner, range(5)), session=session)
        except InjectedCrash:
            crashed.append(owner)

    threads = [threading.Thread(target=work, args=(o,)) for o in ("alice", "bob")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    wal.close()
    mlds.kds.controller.engine.shutdown()

    survivors = sorted({"alice", "bob"} - set(crashed))
    assert len(crashed) == (1 if dies else 0)
    assert sorted(t.owner for t in read_wal(tmp_path / "wal").committed) == survivors
    recovered = recover_mlds(tmp_path / "wal", attach_wal=False)
    try:
        files = [
            r.get("FILE")
            for backend in recovered.kds.controller.backends
            for r in backend.store.all_records()
        ]
        assert sorted(files) == sorted(owner for owner in survivors for _ in range(5))
    finally:
        recovered.kds.shutdown()


class TestAutoCommitApplyFailure:
    """A journaled request whose *apply* fails must abort its WAL txn.

    Without the abort the auto-commit slot (the owner slot of the
    session, or of the kernel's own) stays occupied forever: the next mutation
    raises WalError and checkpointing is wedged.
    """

    def _failing_apply(self, mlds, exc):
        def boom(*args, **kwargs):
            raise exc

        return boom

    def test_failed_session_autocommit_frees_the_owner_slot(self, tmp_path):
        mlds = MLDS(backend_count=BACKENDS, wal=tmp_path / "wal")
        seed(mlds.kds)
        session = mlds.kds.create_session("writer")
        engine = mlds.kds.controller.engine
        original = engine.execute_one
        engine.execute_one = self._failing_apply(
            mlds, ExecutionError("backend died mid-apply")
        )
        try:
            with pytest.raises(ExecutionError):
                mlds.kds.execute(insert("f", a=7), session=session)
        finally:
            engine.execute_one = original
        assert not mlds.kds.wal.has_open_transactions
        # The owner slot is free: the session's next mutation works...
        mlds.kds.execute(insert("f", a=8), session=session)
        # ...and checkpointing is not wedged by a phantom transaction.
        checkpoint_mlds(mlds)
        mlds.kds.shutdown()

    def test_failed_broadcast_autocommit_frees_the_owner_slot(self, tmp_path):
        mlds = MLDS(backend_count=BACKENDS, wal=tmp_path / "wal")
        seed(mlds.kds)
        session = mlds.kds.create_session("writer")
        engine = mlds.kds.controller.engine
        original = engine.run
        engine.run = self._failing_apply(mlds, ExecutionError("farm died"))
        try:
            with pytest.raises(ExecutionError):
                mlds.kds.execute(
                    delete(("FILE", "=", "f"), ("a", "=", 1)), session=session
                )
        finally:
            engine.run = original
        assert not mlds.kds.wal.has_open_transactions
        mlds.kds.execute(delete(("FILE", "=", "f"), ("a", "=", 1)), session=session)
        checkpoint_mlds(mlds)
        mlds.kds.shutdown()

    def test_failed_legacy_autocommit_frees_the_single_slot(self, tmp_path):
        mlds = MLDS(backend_count=BACKENDS, wal=tmp_path / "wal")
        seed(mlds.kds)
        engine = mlds.kds.controller.engine
        original = engine.execute_one
        engine.execute_one = self._failing_apply(
            mlds, ExecutionError("backend died mid-apply")
        )
        try:
            with pytest.raises(ExecutionError):
                mlds.kds.execute(insert("f", a=7))
        finally:
            engine.execute_one = original
        assert not mlds.kds.wal.has_open_transactions
        mlds.kds.execute(insert("f", a=8))  # the kernel's slot is free again
        mlds.kds.shutdown()

    def test_failed_autocommit_is_aborted_on_the_log(self, tmp_path):
        # Recovery must discard the failed request's ops: the abort is
        # durable, not only an in-memory slot release.
        wal_dir = tmp_path / "wal"
        mlds = MLDS(backend_count=BACKENDS, wal=wal_dir)
        seed(mlds.kds)
        pre = farm_image(mlds)
        session = mlds.kds.create_session("writer")
        engine = mlds.kds.controller.engine
        original = engine.execute_one
        engine.execute_one = self._failing_apply(
            mlds, ExecutionError("backend died mid-apply")
        )
        try:
            with pytest.raises(ExecutionError):
                mlds.kds.execute(insert("g", b=MARKER), session=session)
        finally:
            engine.execute_one = original
        mlds.kds.shutdown()

        recovered = recover_mlds(wal_dir, attach_wal=False)
        try:
            assert farm_image(recovered) == pre
            assert_no_marker(recovered)
        finally:
            recovered.kds.shutdown()


def test_checkpoint_refuses_while_any_session_is_open(tmp_path):
    mlds = MLDS(backend_count=BACKENDS, wal=tmp_path / "wal")
    seed(mlds.kds)
    spectator = mlds.kds.create_session("spectator")
    mlds.kds.session_begin(spectator)
    mlds.kds.execute(insert("g", b=1), session=spectator)
    with pytest.raises(WalError, match="spectator"):
        checkpoint_mlds(mlds)
    mlds.kds.session_abort(spectator)
    checkpoint_mlds(mlds)  # clean once the session resolved
    mlds.kds.shutdown()


def test_interleaved_sessions_recover_committed_work_only(tmp_path):
    """No crash injection: one committed, one left open at 'power loss'."""
    wal_dir = tmp_path / "wal"
    mlds = MLDS(backend_count=BACKENDS, wal=wal_dir)
    seed(mlds.kds)
    committed = mlds.kds.create_session("committed")
    abandoned = mlds.kds.create_session("abandoned")
    mlds.kds.session_begin(committed)
    mlds.kds.session_begin(abandoned)
    mlds.kds.execute(insert("g", b=MARKER), session=abandoned)
    mlds.kds.execute(insert("f", a=200), session=committed)
    mlds.kds.session_commit(committed)
    live = farm_image(mlds)
    # power loss: no abort record is ever written for `abandoned`

    recovered = recover_mlds(wal_dir, attach_wal=False)
    try:
        image = farm_image(recovered)
        assert_no_marker(recovered)
        # the recovered farm is the live farm minus the abandoned writes
        stripped = [
            sorted(entry for entry in backend if ("b", MARKER) not in entry[0])
            for backend in live
        ]
        assert image == stripped
    finally:
        recovered.kds.shutdown()
        mlds.kds.shutdown()
