"""Power loss: only what was fsynced is sure to be there afterwards.

The crash matrices raise :class:`InjectedCrash` and then read files that
still hold every *flushed* byte — the model of a killed process, which
cannot tell a correct fsync order from none.  Here the machine loses
power: after the crash the stream is cut to any length between the
writer's ``synced_bytes`` and its size (mid-line included), and the
recovered farm must equal a serial replay of exactly the transactions
whose commit had returned — plus the one in flight if, and only if, its
commit record survived the cut whole.  Never a partial transaction.
"""

from __future__ import annotations

import os
import stat
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abdl.ast import Modifier
from repro.core.mlds import MLDS
from repro.wal.faults import CRASH_MATRIX, CrashPoint, FaultInjector, InjectedCrash
from repro.wal.log import WalManager, segment_name
from repro.wal.recovery import checkpoint_mlds, recover_mlds

from tests.wal.conftest import bulk, farm_image, insert, update

BACKENDS = 4

CHECKPOINT_POINTS = {
    CrashPoint.BEFORE_CHECKPOINT,
    CrashPoint.AFTER_CHECKPOINT_SNAPSHOT,
    CrashPoint.AFTER_CHECKPOINT,
}

#: ``(verb, session, request)`` steps; session None is the kernel's own,
#: whose commits carry the record-count checksum.  Sessions write to
#: files of their own, so a serial replay in commit order places every
#: record where the interleaved run did.
_BUMP = Modifier("a", arithmetic="+", operand=1000)
SEED = [("auto", None, insert("f", a=i)) for i in range(8)]
SCENARIOS = {
    "auto-insert": [("auto", None, insert("f", a=100))],
    "broadcast-update": [("auto", None, update(_BUMP, ("FILE", "=", "f")))],
    "insert-update-txn": [
        ("begin", None, None),
        ("exec", None, insert("f", a=200)),
        ("exec", None, update(_BUMP, ("FILE", "=", "f"), ("a", ">=", 4))),
        ("commit", None, None),
    ],
    "bulk-batch": [("auto", None, bulk("f", range(300, 308)))],
    "interleaved-sessions": [
        ("begin", "alice", None),
        ("begin", "bob", None),
        ("exec", "alice", insert("ga", a=1)),
        ("exec", "bob", bulk("gb", range(400, 406))),
        ("exec", "alice", update(_BUMP, ("FILE", "=", "ga"))),
        ("commit", "bob", None),
        ("exec", "alice", insert("ga", a=2)),
        ("commit", "alice", None),
    ],
}


def drive(kds, steps, acked):
    """Run *steps*, appending each unit (a transaction's requests) to
    *acked* once its commit returns.  Returns the unit whose commit was
    in flight when an injected crash hit, else None."""
    sessions: dict = {}
    pending: dict = {}
    for verb, name, request in steps:
        if name is not None and name not in sessions:
            sessions[name] = kds.create_session(name)
        session = sessions.get(name)
        in_flight = None
        try:
            if verb == "begin":
                pending[name] = []
                if session is None:
                    kds.begin_transaction()
                else:
                    kds.session_begin(session)
            elif verb == "exec":
                kds.execute(request, session=session)
                pending[name].append(request)
            else:
                in_flight = [request] if verb == "auto" else pending.pop(name)
                if verb == "auto":
                    kds.execute(request, session=session)
                elif session is None:
                    kds.commit_transaction()
                else:
                    kds.session_commit(session)
                acked.append(in_flight)
        except InjectedCrash:
            return in_flight
    return None


def oracle_image(units):
    """Serial replay of *units* on a WAL-less twin."""
    twin = MLDS(backend_count=BACKENDS)
    for unit in units:
        with twin.kds.transaction():
            for request in unit:
                twin.kds.execute(request)
    image = farm_image(twin)
    twin.kds.shutdown()
    return image


def whole_commits(data: bytes) -> int:
    """Commit records in *data* whose newline made it."""
    return sum(b'"type":"commit"' in line for line in data.split(b"\n")[:-1])


def cuts_between(data: bytes, synced: int) -> list[int]:
    """The synced offset, the size, and for every unsynced line its first
    byte, its middle, its last byte before the newline and its end."""
    points = {synced, len(data)}
    offset = synced
    for line in data[synced:].splitlines(keepends=True):
        points.update((offset + 1, offset + len(line) // 2, offset + len(line) - 1))
        offset += len(line)
        points.add(offset)
    return sorted(point for point in points if synced <= point <= len(data))


@dataclass
class Outage:
    """What a power cut left behind, and what was promised before it."""

    wal_dir: Path
    log: Path  # the stream's current segment
    data: bytes  # its flushed bytes at the moment the power went
    synced: int  # how many of them an fsync had covered
    acked: list  # units whose commit returned, in commit order
    units: list  # acked, plus the unit whose commit was in flight
    images: dict = field(default_factory=dict)  # survivors -> oracle image

    def check(self, cut: int) -> None:
        """Cut the stream to *cut* bytes, recover, compare with the oracle."""
        if self.data:
            self.log.write_bytes(self.data[:cut])
        # Units with a commit record somewhere: all of this segment's,
        # plus whatever a finished checkpoint moved into the snapshot
        # (then nothing was in flight and that is every acked unit).
        reached_disk = max(whole_commits(self.data), len(self.acked))
        assert reached_disk <= len(self.units)
        lost = whole_commits(self.data) - whole_commits(self.data[:cut])
        survivors = reached_disk - lost
        assert survivors >= len(self.acked), f"an acknowledged commit is gone at cut {cut}"
        if survivors not in self.images:
            self.images[survivors] = oracle_image(self.units[:survivors])
        recovered = recover_mlds(self.wal_dir, attach_wal=False)
        image = farm_image(recovered)
        recovered.kds.shutdown()
        assert image == self.images[survivors], f"torn or wrong recovery at cut {cut}"


def lose_power(wal_dir, steps, point, hits=1) -> Outage:
    """Run SEED then *steps* with *point* armed; the crash (or the end)
    is the moment the power goes."""
    injector = FaultInjector()
    wal = WalManager(wal_dir, BACKENDS, injector=injector, sync=True)
    mlds = MLDS(backend_count=BACKENDS, wal=wal)
    acked: list = []
    assert drive(mlds.kds, SEED, acked) is None
    injector.arm(point, hits)
    in_flight = drive(mlds.kds, steps, acked)
    if point in CHECKPOINT_POINTS:  # the scenario committed; its checkpoint dies
        try:
            checkpoint_mlds(mlds)
        except InjectedCrash:
            pass
    synced = wal.synced_bytes
    log = wal_dir / segment_name(wal.segment)
    wal.close()
    mlds.kds.controller.engine.shutdown()
    data = log.read_bytes() if log.exists() else b""
    assert synced <= len(data)
    units = acked + ([in_flight] if in_flight is not None else [])
    return Outage(wal_dir, log, data, synced, acked, units)


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("point", CRASH_MATRIX, ids=lambda p: p.value)
def test_any_cut_past_the_last_sync_recovers_whole_transactions(tmp_path, point, scenario):
    outage = lose_power(tmp_path / "wal", SCENARIOS[scenario], point)
    for cut in cuts_between(outage.data, outage.synced):
        outage.check(cut)


@settings(max_examples=60, deadline=None)
@given(
    names=st.lists(st.sampled_from(sorted(SCENARIOS)), min_size=1, max_size=4),
    point=st.sampled_from(sorted(set(CRASH_MATRIX) - CHECKPOINT_POINTS, key=lambda p: p.value)),
    hits=st.integers(min_value=1, max_value=6),
    fraction=st.floats(min_value=0.0, max_value=1.0),
)
def test_random_cut_points(names, point, hits, fraction):
    """Random workloads, crashes and cuts; *fraction* picks the cut
    between the last sync and the size, any byte of it."""
    steps = [step for name in names for step in SCENARIOS[name]]
    with tempfile.TemporaryDirectory() as scratch:
        outage = lose_power(Path(scratch) / "wal", steps, point, hits)
        outage.check(outage.synced + round(fraction * (len(outage.data) - outage.synced)))


@pytest.mark.parametrize("fresh_by", ["first-open", "checkpoint"])
def test_a_fresh_segments_first_commit_survives_losing_unsynced_names(
    tmp_path, monkeypatch, fresh_by
):
    """A file's fsync covers its bytes, not its directory entry: a power
    cut also takes every name the directory gained since the directory
    itself was last synced.  The first commit into a segment file that
    did not exist before must therefore sync the directory, or the whole
    file — acknowledged commit included — is gone."""
    wal_dir = tmp_path / "wal"
    durable_names: set = set()
    real_fsync = os.fsync

    def fsync(fd):
        real_fsync(fd)
        if stat.S_ISDIR(os.fstat(fd).st_mode):
            durable_names.clear()
            durable_names.update(os.listdir(wal_dir))

    monkeypatch.setattr(os, "fsync", fsync)
    wal = WalManager(wal_dir, BACKENDS, sync=True)
    mlds = MLDS(backend_count=BACKENDS, wal=wal)
    acked: list = []
    if fresh_by == "checkpoint":
        assert drive(mlds.kds, SEED, acked) is None
        checkpoint_mlds(mlds)
    assert not (wal_dir / segment_name(wal.segment)).exists()
    assert drive(mlds.kds, SCENARIOS["auto-insert"], acked) is None
    wal.close()
    mlds.kds.controller.engine.shutdown()

    for name in set(os.listdir(wal_dir)) - durable_names:
        (wal_dir / name).unlink()  # the power cut
    recovered = recover_mlds(wal_dir, attach_wal=False)
    image = farm_image(recovered)
    recovered.kds.shutdown()
    assert image == oracle_image(acked)
