"""An UPDATE cannot rewrite a record's ``FILE``.

A record is filed under the ``FILE`` keyword it was stored with, and
every file-scoped scan relies on each record of file *f* carrying
``FILE = f``.  An UPDATE that rewrote the keyword used to leave the
record in file ``a``'s list with ``FILE = b``: live, ``(FILE = b)``
found nothing, while a snapshot reloaded through ``load_mlds`` re-filed
the record and found it.  The modifier is now refused when it is built,
before anything is journaled, so the live and the reloaded system agree.
"""

from __future__ import annotations

import pytest

from repro.abdl import parse_request
from repro.abdl.ast import Modifier, UpdateRequest
from repro.abdm.predicate import Query
from repro.core.mlds import MLDS
from repro.errors import ExecutionError
from repro.persistence import load_mlds, save_mlds
from repro.wal.codec import decode_request, encode_request
from repro.wal.reader import read_wal
from repro.wal.recovery import recover_mlds

REPRO_UPDATE = "UPDATE ((FILE = a) AND (x = 1)) (FILE = b)"


def count(mlds, file):
    return mlds.kds.execute(parse_request(f"RETRIEVE (FILE = {file}) (*)")).result.count


def loaded(tmp_path):
    mlds = MLDS(backend_count=2, wal=tmp_path / "wal")
    for i in range(4):
        mlds.kds.execute(parse_request(f"INSERT (<FILE, a>, <x, {i}>)"))
    return mlds


def journaled(wal_dir):
    """(highest seq, operations) of the log in *wal_dir*."""
    view = read_wal(wal_dir)
    ops = [
        op.payload["op"]
        for txn in view.transactions.values()
        for ops in txn.ops.values()
        for op in ops
    ]
    return view.max_seq, ops


def test_the_kernel_refuses_a_file_modifier_before_the_wal(tmp_path):
    mlds = loaded(tmp_path)
    before = journaled(tmp_path / "wal")
    with pytest.raises(ExecutionError, match="rewrites FILE"):
        mlds.kds.execute(parse_request(REPRO_UPDATE))
    with pytest.raises(ExecutionError, match="rewrites FILE"):
        UpdateRequest(Query.single("FILE", "=", "a"), Modifier("FILE", value="b"))
    assert journaled(tmp_path / "wal") == before
    assert before[1] == ["INSERT"] * 4
    # A journaled FILE modifier cannot be replayed into a store either.
    payload = encode_request(
        UpdateRequest(Query.single("FILE", "=", "a"), Modifier("x", value=9))
    )
    payload["modifier"]["attribute"] = "FILE"
    with pytest.raises(ExecutionError, match="rewrites FILE"):
        decode_request(payload)
    assert all(r.get("FILE") == "a" for r in mlds.kds.controller.all_records())
    mlds.kds.shutdown()


def test_live_reloaded_and_recovered_systems_agree(tmp_path):
    mlds = loaded(tmp_path)
    with pytest.raises(ExecutionError):
        mlds.kds.execute(parse_request(REPRO_UPDATE))
    live = (count(mlds, "a"), count(mlds, "b"))
    assert live == (4, 0)

    save_mlds(mlds, tmp_path / "snapshot.json")
    reloaded = load_mlds(tmp_path / "snapshot.json", mlds.config)
    assert (count(reloaded, "a"), count(reloaded, "b")) == live
    reloaded.kds.shutdown()
    mlds.kds.shutdown()

    recovered = recover_mlds(tmp_path / "wal", attach_wal=False)
    assert (count(recovered, "a"), count(recovered, "b")) == live
    recovered.kds.shutdown()
