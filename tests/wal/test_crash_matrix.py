"""The crash matrix: kill the system at every crash point, recover, compare.

For every :data:`~repro.wal.faults.CRASH_MATRIX` point and both execution
engines, the harness seeds a farm, runs one multi-request transaction with
the injector armed, lets the injected crash "kill the machine", and
recovers a fresh system from the WAL directory.  The recovered farm must
be bit-identical to either the pre-transaction or the committed
post-transaction image — never a torn in-between — and identical across
engines.
"""

from __future__ import annotations

import json

import pytest

from repro.abdl.ast import Modifier
from repro.core.mlds import MLDS
from repro.wal.faults import CRASH_MATRIX, CrashPoint, FaultInjector, InjectedCrash
from repro.wal.log import WalManager, segment_name
from repro.wal.recovery import checkpoint_mlds, recover_mlds

from tests.wal.conftest import bulk, delete, farm_image, insert, update

BACKENDS = 3

#: Which durable state each crash point must recover to.  Everything
#: before the commit record reaches the log loses the transaction;
#: from AFTER_COMMIT on (including every checkpoint stage, which the
#: harness runs after a committed transaction) the transaction survives.
EXPECTED = {
    CrashPoint.BEFORE_LOG_APPEND: "pre",
    CrashPoint.AFTER_LOG_APPEND: "pre",
    CrashPoint.BEFORE_BULK_APPEND: "pre",
    CrashPoint.AFTER_BULK_APPEND: "pre",
    CrashPoint.BEFORE_APPLY: "pre",
    CrashPoint.AFTER_APPLY: "pre",
    CrashPoint.BEFORE_COMMIT: "pre",
    # A commit unit seals the version chains once, after its commit
    # record: a crash at either seal point finds the transaction durable.
    CrashPoint.BEFORE_VERSION_SEAL: "post",
    CrashPoint.AFTER_VERSION_SEAL: "post",
    CrashPoint.AFTER_COMMIT: "post",
    CrashPoint.BEFORE_CHECKPOINT: "post",
    CrashPoint.AFTER_CHECKPOINT_SNAPSHOT: "post",
    CrashPoint.AFTER_CHECKPOINT: "post",
}

CHECKPOINT_POINTS = {
    CrashPoint.BEFORE_CHECKPOINT,
    CrashPoint.AFTER_CHECKPOINT_SNAPSHOT,
    CrashPoint.AFTER_CHECKPOINT,
}

ENGINES = [("serial", None), ("process", 2)]


def seed(kds):
    for i in range(6):
        kds.execute(insert("f", a=i))


def crash_transaction(kds):
    """Two routed inserts, a bulk insert, a broadcast update and delete."""
    with kds.transaction():
        kds.execute(insert("f", a=100))
        kds.execute(insert("f", a=101))
        kds.execute(bulk("f", [200, 201, 202, 203]))
        kds.execute(update(Modifier("a", arithmetic="+", operand=1000), ("a", ">=", 4)))
        kds.execute(delete(("a", "=", 0)))


def reference_images():
    """Pre/post farm images from an uncrashed, WAL-less twin."""
    twin = MLDS(backend_count=BACKENDS)
    seed(twin.kds)
    pre = farm_image(twin)
    crash_transaction(twin.kds)
    post = farm_image(twin)
    twin.kds.shutdown()
    return pre, post


def crash_and_recover(tmp_path, point, engine, workers):
    """Run the scenario for one (point, engine) cell; return the images."""
    wal_dir = tmp_path / f"wal-{engine}"
    injector = FaultInjector()
    wal = WalManager(wal_dir, BACKENDS, injector=injector)
    mlds = MLDS(backend_count=BACKENDS, engine=engine, workers=workers, wal=wal)
    seed(mlds.kds)

    injector.arm(point)
    with pytest.raises(InjectedCrash) as crash:
        if point in CHECKPOINT_POINTS:
            crash_transaction(mlds.kds)  # commits cleanly...
            checkpoint_mlds(mlds)  # ...then the checkpoint is killed
        else:
            crash_transaction(mlds.kds)
    assert crash.value.point is point
    wal.close()  # the machine is dead; release handles, change nothing
    mlds.kds.controller.engine.shutdown()

    recovered = recover_mlds(wal_dir, engine=engine, workers=workers, attach_wal=False)
    image = farm_image(recovered)
    recovered.kds.shutdown()
    return image


@pytest.mark.parametrize("point", CRASH_MATRIX, ids=lambda p: p.value)
def test_recovery_is_never_torn(tmp_path, point):
    pre, post = reference_images()
    expected = pre if EXPECTED[point] == "pre" else post
    images = [
        crash_and_recover(tmp_path, point, engine, workers)
        for engine, workers in ENGINES
    ]
    for image in images:
        assert image == expected, f"torn recovery after crash at {point.value}"
    assert images[0] == images[1], "engines recovered to different states"


def test_matrix_covers_every_crash_point():
    assert set(EXPECTED) == set(CRASH_MATRIX)


def test_a_broadcast_is_one_journal_record_torn_or_whole(tmp_path):
    """One record names every backend of a broadcast, so no crash can
    journal it for some backends and not the others: cut the record
    anywhere and all three backends lose it, leave it whole (with its
    commit) and all three replay it."""
    wal_dir = tmp_path / "wal"
    mlds = MLDS(backend_count=BACKENDS, wal=wal_dir)
    seed(mlds.kds)
    pre = farm_image(mlds)
    log = wal_dir / segment_name(0)
    before = log.stat().st_size
    mlds.kds.execute(delete(("a", ">=", 0)))  # broadcasts to all three
    post = farm_image(mlds)
    mlds.kds.shutdown()

    data = log.read_bytes()
    op_line, commit_line = data[before:].splitlines(keepends=True)
    assert json.loads(op_line)["backends"] == [0, 1, 2]
    assert json.loads(commit_line)["type"] == "commit"
    for cut in range(before, len(data) + 1):
        log.write_bytes(data[:cut])
        recovered = recover_mlds(wal_dir, attach_wal=False)
        image = farm_image(recovered)
        recovered.kds.shutdown()
        assert image == (post if cut == len(data) else pre), f"torn at byte {cut}"


@pytest.mark.parametrize(
    "point, outcome",
    [(CrashPoint.AFTER_APPLY, "pre"), (CrashPoint.AFTER_COMMIT, "post")],
    ids=["after-apply", "after-commit"],
)
def test_auto_commit_single_request_is_atomic(tmp_path, point, outcome):
    """Single mutating requests are one-request transactions: all or nothing."""
    injector = FaultInjector()
    wal = WalManager(tmp_path / "wal", BACKENDS, injector=injector)
    mlds = MLDS(backend_count=BACKENDS, wal=wal)
    seed(mlds.kds)
    pre = farm_image(mlds)

    injector.arm(point)
    with pytest.raises(InjectedCrash):
        mlds.kds.execute(insert("f", a=100))
    post = farm_image(mlds)  # the apply itself happened in memory
    wal.close()
    mlds.kds.controller.engine.shutdown()

    recovered = recover_mlds(tmp_path / "wal", attach_wal=False)
    assert farm_image(recovered) == (pre if outcome == "pre" else post)
    recovered.kds.shutdown()
