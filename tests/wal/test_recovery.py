"""Recovery semantics: redo committed work, discard everything else."""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.abdl.ast import Modifier
from repro.core.mlds import MLDS
from repro.abdl import parse_request
from repro.errors import ExecutionError, MLDSError, WalError
from repro.persistence import load_mlds, save_mlds
from repro.university import load_university
from repro.wal.log import CHECKPOINT_NAME, META_NAME, WalManager, segment_name
from repro.wal.recovery import checkpoint_mlds, recover_mlds

from tests.wal.conftest import delete, farm_image, insert, update


def small_workload(kds):
    """A deterministic mixed workload across two files."""
    for i in range(8):
        kds.execute(insert("f", a=i))
    for i in range(4):
        kds.execute(insert("g", b=i, note=f"row {i}"))
    kds.execute(update(Modifier("a", arithmetic="*", operand=10), ("a", ">=", 6)))
    kds.execute(delete(("FILE", "=", "g"), ("b", "=", 1)))


def test_recovery_without_checkpoint_rebuilds_the_whole_farm(tmp_path):
    wal_dir = tmp_path / "wal"
    mlds = MLDS(backend_count=3, wal=wal_dir)
    small_workload(mlds.kds)
    live = farm_image(mlds)
    mlds.kds.shutdown()

    recovered = recover_mlds(wal_dir)
    assert farm_image(recovered) == live
    recovered.kds.shutdown()


def test_recovery_after_checkpoint_replays_only_the_tail(tmp_path):
    wal_dir = tmp_path / "wal"
    mlds = MLDS(backend_count=3, wal=wal_dir)
    small_workload(mlds.kds)
    checkpoint_mlds(mlds)
    # tail beyond the checkpoint
    mlds.kds.execute(insert("f", a=99))
    mlds.kds.execute(delete(("FILE", "=", "f"), ("a", "=", 0)))
    live = farm_image(mlds)
    watermark = mlds.kds.wal.last_committed_txn
    mlds.kds.shutdown()

    recovered = recover_mlds(wal_dir)
    assert farm_image(recovered) == live
    # journaling resumes after everything already on disk
    assert recovered.kds.wal.last_committed_txn == watermark
    recovered.kds.shutdown()


def test_commits_after_a_checkpointed_restart_survive_the_next_restart(tmp_path):
    """Three generations.  The truncated log used to restart txn ids at 1,
    below the snapshot's watermark, so the second restart skipped them."""
    wal_dir = tmp_path / "wal"
    first = MLDS(backend_count=3, wal=wal_dir)
    for i in range(8):
        first.kds.execute(insert("f", a=i))
    checkpoint_mlds(first)
    watermark = first.kds.wal.last_committed_txn
    first.kds.shutdown()

    second = recover_mlds(wal_dir)
    assert second.kds.wal.last_committed_txn == watermark
    second.kds.execute(insert("f", a=100))
    second.kds.execute(insert("f", a=101))
    assert second.kds.wal.last_committed_txn == watermark + 2
    live = farm_image(second)
    second.kds.shutdown()

    third = recover_mlds(wal_dir)
    assert farm_image(third) == live
    assert third.kds.record_count() == 10
    third.kds.shutdown()


def test_sync_checkpoint_is_on_disk_before_any_segment_is_unlinked(
    tmp_path, monkeypatch
):
    """Snapshot synced, renamed, directory synced; then the same for the
    metadata; only then may the old segment go."""
    wal_dir = tmp_path / "wal"
    mlds = MLDS(backend_count=2, wal=WalManager(wal_dir, 2, sync=True))
    mlds.kds.execute(insert("f", a=1))

    events: list[tuple[str, str]] = []
    real_fsync, real_replace, real_unlink = os.fsync, os.replace, Path.unlink

    def fsync(fd):
        events.append(("fsync", Path(os.readlink(f"/proc/self/fd/{fd}")).name))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace", Path(dst).name))
        real_replace(src, dst)

    def unlink(self, missing_ok=False):
        events.append(("unlink", self.name))
        real_unlink(self, missing_ok=missing_ok)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    monkeypatch.setattr(Path, "unlink", unlink)
    checkpoint_mlds(mlds)
    monkeypatch.undo()
    mlds.kds.shutdown()

    assert events == [
        ("fsync", CHECKPOINT_NAME + ".tmp"),
        ("replace", CHECKPOINT_NAME),
        ("fsync", wal_dir.name),
        ("fsync", META_NAME + ".tmp"),
        ("replace", META_NAME),
        ("fsync", wal_dir.name),
        ("unlink", segment_name(0)),
    ]


def test_checkpoint_carries_schemas_and_placement(tmp_path):
    wal_dir = tmp_path / "wal"
    mlds = MLDS(backend_count=4, wal=wal_dir)
    load_university(mlds)
    checkpoint_mlds(mlds)
    mlds.kds.shutdown()

    recovered = recover_mlds(wal_dir)
    assert recovered.database_names() == ["university"]
    # placement counters restored: the next insert round-robins onward
    # exactly as the uncrashed system would have
    counters = recovered.kds.controller.placement._counters
    assert counters  # populated from the snapshot, not empty
    recovered.kds.shutdown()


def test_drop_database_is_refused_rather_than_undone_by_recovery(tmp_path):
    # A drop is not journaled: allowed, it would empty the live farm and
    # recovery would bring every record and the catalog entry back.
    wal_dir = tmp_path / "wal"
    mlds = MLDS(backend_count=2, wal=wal_dir)
    load_university(mlds)
    checkpoint_mlds(mlds)
    live = farm_image(mlds)
    with pytest.raises(WalError, match="not journaled"):
        mlds.kds.drop_database("university")
    assert farm_image(mlds) == live
    assert [t.name for t in mlds.kds.databases()] == ["university"]
    mlds.kds.shutdown()

    recovered = recover_mlds(wal_dir)
    assert farm_image(recovered) == live
    assert [t.name for t in recovered.kds.databases()] == ["university"]
    recovered.kds.shutdown()


def test_uncommitted_tail_is_discarded(tmp_path):
    wal_dir = tmp_path / "wal"
    mlds = MLDS(backend_count=2, wal=wal_dir)
    mlds.kds.execute(insert("f", a=1))
    pre = farm_image(mlds)
    # an explicit transaction the crash beats to the commit record
    mlds.kds.begin_transaction()
    mlds.kds.execute(insert("f", a=2))
    mlds.kds.execute(insert("f", a=3))
    mlds.kds.controller.wal.close()  # the plug is pulled; no commit record

    recovered = recover_mlds(wal_dir)
    assert farm_image(recovered) == pre
    recovered.kds.shutdown()
    mlds.kds.controller.wal = None  # already closed; skip shutdown's close
    mlds.kds.shutdown()


def test_aborted_transaction_rolls_back_live_and_stays_out_of_recovery(tmp_path):
    wal_dir = tmp_path / "wal"
    mlds = MLDS(backend_count=2, wal=wal_dir)
    mlds.kds.execute(insert("f", a=1))
    pre = farm_image(mlds)

    class Boom(RuntimeError):
        pass

    with pytest.raises(Boom):
        with mlds.kds.transaction():
            mlds.kds.execute(insert("f", a=2))
            mlds.kds.execute(update(Modifier("a", value=7), ("FILE", "=", "f")))
            raise Boom()
    # in-memory rollback: the live farm is back to the pre-image
    assert farm_image(mlds) == pre
    mlds.kds.shutdown()

    recovered = recover_mlds(wal_dir)
    assert farm_image(recovered) == pre
    recovered.kds.shutdown()


def test_a_statement_refused_mid_transaction_leaves_the_log_recoverable(tmp_path):
    """A zero divisor used to be journaled, die mid-apply, and — once the
    rest of the transaction committed — make recovery die the same way."""
    wal_dir = tmp_path / "wal"
    mlds = MLDS(backend_count=2, wal=wal_dir)
    session = mlds.kds.create_session()
    mlds.kds.session_begin(session)
    mlds.kds.execute(insert("f", a=1), session=session)
    with pytest.raises(ExecutionError):
        mlds.kds.execute(
            parse_request("UPDATE ((FILE = f)) (a = a / 0)"), session=session
        )
    mlds.kds.session_commit(session)
    live = farm_image(mlds)
    mlds.kds.shutdown()

    recovered = recover_mlds(wal_dir)
    assert farm_image(recovered) == live
    recovered.kds.shutdown()


def test_missing_journaled_op_fails_the_count_checksum(tmp_path):
    wal_dir = tmp_path / "wal"
    mlds = MLDS(backend_count=1, wal=wal_dir)
    with mlds.kds.transaction():
        mlds.kds.execute(insert("f", a=1))
        mlds.kds.execute(insert("f", a=2))
    mlds.kds.shutdown()
    # drop the second (still well-formed) op line from the stream
    log = wal_dir / segment_name(0)
    first_op, _second_op, commit = log.read_text().splitlines()
    log.write_text(first_op + "\n" + commit + "\n")
    with pytest.raises(WalError, match="checksum"):
        recover_mlds(wal_dir)


def test_recover_into_any_engine_is_identical(tmp_path):
    wal_dir = tmp_path / "wal"
    mlds = MLDS(backend_count=3, wal=wal_dir)
    small_workload(mlds.kds)
    live = farm_image(mlds)
    mlds.kds.shutdown()

    serial = recover_mlds(wal_dir, engine="serial", attach_wal=False)
    process = recover_mlds(wal_dir, engine="process", workers=2, attach_wal=False)
    assert farm_image(serial) == live
    assert farm_image(process) == live
    serial.kds.shutdown()
    process.kds.shutdown()


def test_recovered_placement_continues_round_robin(tmp_path):
    """Post-recovery inserts land where the uncrashed system would put them."""
    wal_dir = tmp_path / "wal"
    mlds = MLDS(backend_count=3, wal=wal_dir)
    for i in range(4):  # 4 inserts over 3 backends: next goes to backend 1
        mlds.kds.execute(insert("f", a=i))
    mlds.kds.shutdown()

    twin = MLDS(backend_count=3)
    for i in range(4):
        twin.kds.execute(insert("f", a=i))

    recovered = recover_mlds(wal_dir)
    recovered.kds.execute(insert("f", a=100))
    twin.kds.execute(insert("f", a=100))
    assert farm_image(recovered) == farm_image(twin)
    recovered.kds.shutdown()
    twin.kds.shutdown()


def test_recover_requires_a_wal_directory(tmp_path):
    with pytest.raises(WalError):
        recover_mlds(tmp_path / "nowhere")


def test_version_1_snapshot_is_refused_typed(tmp_path):
    mlds = MLDS(backend_count=2)
    mlds.kds.execute(insert("f", a=1))
    path = tmp_path / "snap.json"
    save_mlds(mlds, path)
    snapshot = json.loads(path.read_text())
    assert snapshot["wal"] is None  # saved without a WAL attached: watermark 0
    # rewrite as the pre-WAL format 1 (no wal/placement keys): no writer
    # produces it any more, so the loader refuses rather than guessing
    snapshot["format"] = 1
    del snapshot["wal"]
    del snapshot["placement"]
    path.write_text(json.dumps(snapshot))

    with pytest.raises(MLDSError, match="snapshot format 1 is not supported"):
        load_mlds(path)


def test_wrong_backend_count_snapshot_rejected_by_recovery(tmp_path):
    wal_dir = tmp_path / "wal"
    mlds = MLDS(backend_count=2, wal=wal_dir)
    mlds.kds.execute(insert("f", a=1))
    mlds.kds.shutdown()

    other = MLDS(backend_count=3)
    snapshot = tmp_path / "other.json"
    save_mlds(other, snapshot)
    with pytest.raises(WalError, match="backends"):
        recover_mlds(wal_dir, snapshot=snapshot)
