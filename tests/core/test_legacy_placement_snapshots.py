"""Snapshots written under a retired placement policy still load.

Older snapshots may carry ``"placement": {"kind": "hash_shard", ...}`` or
``{"kind": "least_loaded"}``.  Both policies are gone.  Such a snapshot
restores every record on the backend it was saved from, its placement
state is ignored, and the round-robin counters start empty.  Every
request but an INSERT reaches every backend, so every record still
answers.
"""

import json

import pytest

from repro.abdl import parse_request
from repro.core.mlds import MLDS
from repro.persistence import load_mlds
from repro.wal.recovery import checkpoint_mlds, recover_mlds

BACKENDS = 3
RECORDS = 7

LEGACY = {
    "hash_shard": {
        "kind": "hash_shard",
        "key_attributes": {"f": "k"},
        "tainted": ["f"],
    },
    "least_loaded": {"kind": "least_loaded"},
}


def insert(k):
    return parse_request(f"INSERT (<FILE, f>, <f, f${k}>, <k, {k}>)")


def write_legacy_checkpoint(wal_dir, kind):
    """Checkpoint a farm as the current code writes it, then rewrite the
    placement section the way the retired policy wrote it.

    A hash-shard farm held an unkeyed file whole on one backend, so that
    variant also moves every record onto backend 1.  Returns the
    checkpoint's path and its per-backend record counts.
    """
    mlds = MLDS(backend_count=BACKENDS, wal=wal_dir)
    for k in range(RECORDS):
        mlds.kds.execute(insert(k))
    path = checkpoint_mlds(mlds)
    mlds.kds.shutdown()
    snapshot = json.loads(path.read_text())
    snapshot["placement"] = LEGACY[kind]
    if kind == "hash_shard":
        rows = [row for backend in snapshot["backends"] for row in backend]
        snapshot["backends"] = [[], rows, []]
    path.write_text(json.dumps(snapshot))
    return path, [len(rows) for rows in snapshot["backends"]]


def assert_whole_and_round_robin_from_empty(mlds, saved):
    controller = mlds.kds.controller
    assert controller.distribution() == saved
    trace = mlds.kds.execute(parse_request("RETRIEVE (FILE = f) (k)"))
    assert sorted(r.get("k") for r in trace.result.records) == list(range(RECORDS))
    assert controller.placement.snapshot_state()["counters"] == {}
    for backend_id in range(BACKENDS):
        before = controller.distribution()
        mlds.kds.execute(insert(RECORDS + backend_id))
        grown = [a - b for a, b in zip(controller.distribution(), before)]
        assert grown == [int(i == backend_id) for i in range(BACKENDS)]


@pytest.mark.parametrize("kind", sorted(LEGACY))
def test_loads_through_load_mlds(tmp_path, kind):
    path, saved = write_legacy_checkpoint(tmp_path / "wal", kind)
    mlds = load_mlds(path)
    try:
        assert_whole_and_round_robin_from_empty(mlds, saved)
    finally:
        mlds.kds.shutdown()


@pytest.mark.parametrize("kind", sorted(LEGACY))
def test_heals_through_restore_backend_state(tmp_path, kind):
    _, saved = write_legacy_checkpoint(tmp_path / "wal", kind)
    mlds = recover_mlds(tmp_path / "wal", engine="process", workers=2)
    try:
        # A placement no durable state records: healing must drop it.
        mlds.kds.controller.placement.place(insert(99).record, BACKENDS)
        # Every worker restarts empty and is refilled from the legacy
        # checkpoint by restore_backend_state; the WAL tail is empty.
        assert mlds.kds.heal_workers() == 0
        assert_whole_and_round_robin_from_empty(mlds, saved)
    finally:
        mlds.kds.shutdown()
