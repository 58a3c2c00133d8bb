"""The fsync budget: one per commit that journaled something, else none.

Counted through the metrics registry (``wal.fsyncs``): a count repeats
exactly, where a wall-clock ratio between WAL modes could only bound
the invariant from afar.  ``wal.fsyncs`` counts syncs of the log *file*;
the directory sync that makes a new segment's name durable happens once
per segment, not per commit, and is counted as ``wal.dir_fsyncs``.
"""

from __future__ import annotations

import json

import pytest

from repro.abdl.ast import Modifier, RetrieveRequest
from repro.core.mlds import MLDS
from repro.obs import Observability
from repro.wal.log import WalManager, segment_name
from repro.wal.recovery import checkpoint_mlds

from tests.wal.conftest import bulk, insert, query, update

BACKENDS = 4


@pytest.fixture
def system(tmp_path):
    obs = Observability()
    mlds = MLDS(
        backend_count=BACKENDS,
        wal=WalManager(tmp_path / "wal", BACKENDS, sync=True),
        obs=obs,
    )
    for i in range(8):  # two records on every backend
        mlds.kds.execute(insert("f", a=i))
    yield mlds, obs
    mlds.kds.shutdown()


def fsyncs_of(obs, work) -> int:
    before = obs.metrics.counter_value("wal.fsyncs")
    work()
    return int(obs.metrics.counter_value("wal.fsyncs") - before)


def test_directory_is_synced_once_per_segment_not_per_commit(system):
    mlds, obs = system
    # The fixture's eight commits: eight file syncs, one directory sync.
    assert obs.metrics.counter_value("wal.fsyncs") == 8
    assert obs.metrics.counter_value("wal.dir_fsyncs") == 1
    checkpoint_mlds(mlds)  # a new segment: its first commit syncs its name
    for i in range(3):
        mlds.kds.execute(insert("f", a=100 + i))
    assert obs.metrics.counter_value("wal.fsyncs") == 11
    assert obs.metrics.counter_value("wal.dir_fsyncs") == 2


def test_auto_commit_insert_is_one_fsync(system):
    mlds, obs = system
    assert fsyncs_of(obs, lambda: mlds.kds.execute(insert("f", a=100))) == 1


def test_broadcast_update_over_four_backends_is_one_fsync(system):
    mlds, obs = system
    everywhere = update(Modifier("a", arithmetic="+", operand=1), ("FILE", "=", "f"))
    assert fsyncs_of(obs, lambda: mlds.kds.execute(everywhere)) == 1
    log = mlds.kds.wal.directory / segment_name(0)
    op_record = json.loads(log.read_text().splitlines()[-2])
    assert op_record["backends"] == list(range(BACKENDS))


def test_two_statement_transaction_is_one_fsync(system):
    mlds, obs = system

    def work():
        with mlds.kds.transaction():
            mlds.kds.execute(insert("f", a=100))
            mlds.kds.execute(
                update(Modifier("a", value=7), ("FILE", "=", "f"), ("a", "=", 100))
            )

    assert fsyncs_of(obs, work) == 1


def test_bulk_batch_over_four_shards_is_one_fsync(system):
    mlds, obs = system
    ops_before = obs.metrics.counter_value("wal.bulk_ops")
    assert fsyncs_of(obs, lambda: mlds.kds.execute(bulk("f", range(100, 108)))) == 1
    assert obs.metrics.counter_value("wal.bulk_ops") - ops_before == BACKENDS


def test_read_only_transaction_is_no_fsync_and_no_bytes(system):
    mlds, obs = system
    log = mlds.kds.wal.directory / segment_name(0)
    size = log.stat().st_size

    def work():
        with mlds.kds.transaction():
            mlds.kds.execute(RetrieveRequest(query(("FILE", "=", "f"))))

    assert fsyncs_of(obs, work) == 0
    assert log.stat().st_size == size


def test_aborted_transaction_is_no_fsync(system):
    mlds, obs = system

    class Boom(RuntimeError):
        pass

    def work():
        with pytest.raises(Boom):
            with mlds.kds.transaction():
                mlds.kds.execute(insert("f", a=100))
                raise Boom()

    assert fsyncs_of(obs, work) == 0
