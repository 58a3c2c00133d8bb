"""WalManager write-side behaviour: journaling, segments, resume, torn tails."""

from __future__ import annotations

import json

import pytest

from repro.core.mlds import MLDS
from repro.errors import WalError
from repro.wal.log import META_NAME, WAL_FORMAT, WalManager, segment_name
from repro.wal.reader import read_meta, read_wal
from repro.wal.recovery import recover_mlds

from tests.wal.conftest import delete, farm_image, insert


def manager(tmp_path, backends=2, **kwargs):
    return WalManager(tmp_path / "wal", backends, **kwargs)


def test_journal_records_land_before_any_apply(tmp_path):
    """The 'write-ahead' property: ops are on disk before the store changes."""
    wal_dir = tmp_path / "wal"
    mlds = MLDS(backend_count=2, wal=wal_dir)
    mlds.kds.execute(insert("f", a=1))
    view = read_wal(wal_dir)
    # the auto-committed transaction journaled exactly one op
    assert len(view.committed) == 1
    ops = sum(len(ops) for ops in view.committed[0].ops.values())
    assert ops == 1
    assert view.committed[0].counts == mlds.kds.controller.distribution()
    mlds.kds.shutdown()


def test_explicit_transaction_groups_ops_under_one_commit(tmp_path):
    wal_dir = tmp_path / "wal"
    mlds = MLDS(backend_count=2, wal=wal_dir)
    with mlds.kds.transaction():
        mlds.kds.execute(insert("f", a=1))
        mlds.kds.execute(insert("f", a=2))
        mlds.kds.execute(delete(("a", "=", 1)))
    view = read_wal(wal_dir)
    assert len(view.committed) == 1
    transaction = view.committed[0]
    # two routed inserts plus a delete broadcast to both backends = 4 ops
    assert sum(len(ops) for ops in transaction.ops.values()) == 4
    assert transaction.counts == [0, 1]  # a=1 landed on backend 0 and was deleted
    mlds.kds.shutdown()


def test_abort_is_recorded_and_excluded_from_committed(tmp_path):
    wal = manager(tmp_path)
    txn = wal.begin("t")
    wal.log_op([0], insert("f", a=1), txn)
    wal.abort(txn)
    view = read_wal(wal.directory)
    assert view.committed == []
    assert view.transactions[1].status == "aborted"
    wal.close()


def test_sequence_numbers_resume_after_reopen(tmp_path):
    wal = manager(tmp_path)
    first = wal.begin("t")
    wal.log_op([0], insert("f", a=1), first)
    wal.log_op([1], insert("f", a=2), first)
    wal.commit(first, [1, 1])
    wal.close()

    resumed = manager(tmp_path)
    second = resumed.begin("t")
    assert second == first + 1
    seq = resumed.log_op([0], insert("f", a=3), second)
    assert seq == 4  # continues the one stream (two ops, a commit), no reuse
    resumed.commit(second, [2, 1])
    view = read_wal(resumed.directory)
    assert [t.txn for t in view.committed] == [first, second]
    assert view.max_seq == 5
    resumed.close()


def test_reopen_rejects_wrong_backend_count(tmp_path):
    manager(tmp_path, backends=2).close()
    with pytest.raises(WalError):
        manager(tmp_path, backends=3)
    assert read_meta(tmp_path / "wal")["backend_count"] == 2


def test_torn_final_line_is_dropped(tmp_path):
    wal = manager(tmp_path)
    txn = wal.begin("t")
    wal.log_op([0], insert("f", a=1), txn)
    wal.commit(txn, [1, 0])
    wal.close()
    log = wal.directory / segment_name(0)
    whole = log.stat().st_size
    with log.open("a") as handle:
        handle.write('{"seq": 3, "type": "com')  # the crash hit mid-append
    view = read_wal(wal.directory)
    assert [t.txn for t in view.committed] == [1]
    assert view.torn_tail == (log, whole)


def test_mid_stream_corruption_raises(tmp_path):
    wal = manager(tmp_path)
    txn = wal.begin("t")
    wal.log_op([0], insert("f", a=1), txn)
    wal.commit(txn, [1, 0])
    wal.close()
    log = wal.directory / segment_name(0)
    lines = log.read_text().splitlines()
    lines.insert(1, "not json at all")
    log.write_text("\n".join(lines) + "\n")
    with pytest.raises(WalError):
        read_wal(wal.directory)


def test_non_monotonic_sequence_raises(tmp_path):
    wal = manager(tmp_path)
    txn = wal.begin("t")
    wal.log_op([0], insert("f", a=1), txn)
    wal.commit(txn, [1, 0])
    wal.close()
    log = wal.directory / segment_name(0)
    line = log.read_text().splitlines()[0]
    with log.open("a") as handle:
        handle.write(line + "\n")  # seq 1 again, after the commit's seq 2
    with pytest.raises(WalError, match="non-monotonic"):
        read_wal(wal.directory)


def test_guard_rails(tmp_path):
    wal = manager(tmp_path)
    with pytest.raises(WalError):
        wal.log_op([0], insert("f", a=1), 1)  # transaction 1 is not open
    with pytest.raises(WalError):
        wal.commit(1, [0, 0])  # nothing to commit
    txn = wal.begin("t")
    with pytest.raises(WalError):
        wal.begin("t")  # no nesting per owner
    with pytest.raises(WalError):
        wal.log_op([5], insert("f", a=1), txn)  # no such backend
    with pytest.raises(WalError):
        wal.log_op([], insert("f", a=1), txn)  # a record must name a backend
    with pytest.raises(WalError):
        from tests.wal.conftest import query
        from repro.abdl.ast import RetrieveRequest

        wal.log_op([0], RetrieveRequest(query(("FILE", "=", "f"))), txn)
    with pytest.raises(WalError):
        wal.commit(txn, [1])  # counts must cover every backend
    with pytest.raises(WalError):
        wal.start_new_segment()  # not while a transaction is open
    wal.abort(txn)
    with pytest.raises(WalError):
        wal.abort(txn)  # already settled
    wal.close()


def test_start_new_segment_drops_old_files_and_bumps_meta(tmp_path):
    wal = manager(tmp_path)
    txn = wal.begin("t")
    wal.log_op([0], insert("f", a=1), txn)
    wal.commit(txn, [1, 0])
    old_segment = wal.directory / segment_name(0)
    assert old_segment.exists()
    wal.start_new_segment()
    assert not old_segment.exists()
    meta = json.loads((wal.directory / META_NAME).read_text())
    assert meta["segment"] == 1
    assert meta["next_txn"] == 2  # the id floor the emptied log cannot show
    # numbering continues in the fresh segment
    txn = wal.begin("t")
    assert wal.log_op([0], insert("f", a=2), txn) == 3
    wal.commit(txn, [2, 0])
    assert [p.name for p in wal.directory.glob("wal-*.jsonl")] == [segment_name(1)]
    view = read_wal(wal.directory)
    assert view.last_committed_txn == 2
    wal.close()


def test_stale_segment_surviving_a_crashed_truncation_is_still_read(tmp_path):
    """Segment GC can die half-done; the reader must union the leftovers."""
    wal = manager(tmp_path, backends=1)
    txn = wal.begin("t")
    wal.log_op([0], insert("f", a=1), txn)
    wal.commit(txn, [1])
    wal.close()
    # simulate: meta bumped to segment 1, old files never unlinked
    meta_path = wal.directory / META_NAME
    meta = json.loads(meta_path.read_text())
    meta["segment"] = 1
    meta_path.write_text(json.dumps(meta))
    resumed = manager(tmp_path, backends=1)
    txn = resumed.begin("t")
    resumed.log_op([0], insert("f", a=2), txn)
    resumed.commit(txn, [2])
    view = read_wal(resumed.directory)
    assert [t.txn for t in view.committed] == [1, 2]
    assert view.max_seq == 4  # two segments, one sequence
    resumed.close()


def test_commit_record_without_an_owner_is_refused_typed(tmp_path):
    """Every writer tags commit/abort with its owner; a log without is foreign."""
    wal = manager(tmp_path)
    txn = wal.begin("t")
    wal.log_op([0], insert("f", a=1), txn)
    wal.commit(txn, [1, 0])
    wal.close()
    log = wal.directory / segment_name(0)
    records = [json.loads(line) for line in log.read_text().splitlines()]
    del records[-1]["owner"]
    log.write_text("".join(json.dumps(record) + "\n" for record in records))
    with pytest.raises(WalError, match="has no owner"):
        read_wal(wal.directory)
    with pytest.raises(WalError, match="has no owner"):
        manager(tmp_path)  # the write side refuses to resume after it too


def test_format_1_directory_is_refused_typed(tmp_path):
    """The per-backend layout has no reader any more: refuse, never guess —
    a format-2 reader would find no segment and recover an empty farm."""
    wal_dir = tmp_path / "wal"
    wal_dir.mkdir()
    (wal_dir / META_NAME).write_text(
        json.dumps({"format": 1, "backend_count": 2, "segment": 0})
    )
    (wal_dir / "master-000000.jsonl").write_text(
        '{"seq":1,"type":"begin","txn":1,"owner":"kernel"}\n'
        '{"seq":2,"type":"commit","txn":1,"owner":"kernel"}\n'
    )
    (wal_dir / "backend-000-000000.jsonl").write_text("")
    for attempt in (
        lambda: WalManager(wal_dir, 2),
        lambda: read_wal(wal_dir),
        lambda: recover_mlds(wal_dir),
    ):
        with pytest.raises(WalError, match=f"format 1 .* format {WAL_FORMAT}"):
            attempt()


def test_begin_and_an_empty_transaction_leave_no_trace(tmp_path):
    """A transaction is its op records plus one commit — no ops, no bytes."""
    wal = manager(tmp_path)
    log = wal.directory / segment_name(0)
    wal.commit(wal.begin("reader"))
    wal.abort(wal.begin("quitter"))
    assert not log.exists()
    assert not wal.has_open_transactions
    txn = wal.begin("writer")
    assert txn == 3  # ids are still never reused within a run
    wal.log_op([0, 1], insert("f", a=1), txn)
    wal.commit(txn)
    kinds = [
        "op" if "op" in record else record["type"]
        for record in map(json.loads, log.read_text().splitlines())
    ]
    assert kinds == ["op", "commit"]
    wal.close()


def test_append_after_a_torn_tail_stays_recoverable(tmp_path):
    """Resuming over a torn half-line used to glue the next record onto it."""
    wal_dir = tmp_path / "wal"
    mlds = MLDS(backend_count=2, wal=wal_dir)
    mlds.kds.execute(insert("f", a=1))
    mlds.kds.shutdown()
    log = wal_dir / segment_name(0)
    with log.open("a") as handle:
        handle.write('{"seq":3,"txn":2,"backends":[0],"op":{"op":"INS')

    resumed = recover_mlds(wal_dir)  # the reader drops the half-line...
    resumed.kds.execute(insert("f", a=2))  # ...and this append must not join it
    resumed.kds.execute(insert("f", a=3))
    live = farm_image(resumed)
    resumed.kds.shutdown()
    assert all(json.loads(line) for line in log.read_text().splitlines())

    again = recover_mlds(wal_dir, attach_wal=False)
    assert farm_image(again) == live
    again.kds.shutdown()


def test_line_separator_characters_in_a_value_do_not_split_a_record(tmp_path):
    """Records are split on the newline the writer wrote, nothing else."""
    wal_dir = tmp_path / "wal"
    mlds = MLDS(backend_count=2, wal=wal_dir)
    mlds.kds.execute(insert("f", text="a\u2028b\x85c", note="d\u2029e\x0cf"))
    live = farm_image(mlds)
    mlds.kds.shutdown()
    recovered = recover_mlds(wal_dir, attach_wal=False)
    assert farm_image(recovered) == live
    recovered.kds.shutdown()
