"""How a snapshot is written and read: compact, deterministic, parsed
once, and with the cyclic collector paused but never left paused."""

import gc
import json
from pathlib import Path

import pytest

from repro import MLDS
from repro import persistence
from repro.core.mlds import MLDSConfig
from repro.errors import MLDSError, WalError
from repro.persistence import load_mlds, save_mlds
from repro.university import generate_university, load_university
from repro.wal.log import CHECKPOINT_NAME
from repro.wal.recovery import checkpoint_mlds, recover_mlds
from tests.wal.conftest import farm_image, insert

REL_DDL = """
DATABASE registrar;
CREATE TABLE marks (sid INT, score FLOAT, PRIMARY KEY (sid));
"""

HIER_DDL = "DATABASE depot;\nSEGMENT bin ROOT (tag CHAR(5));\n"


def populated(wal_dir) -> MLDS:
    """A WAL-backed system holding all four data models' databases."""
    mlds = MLDS(backend_count=2, wal=wal_dir)
    load_university(mlds, generate_university(persons=12, courses=5, seed=4))
    mlds.define_relational_database(REL_DDL)
    mlds.open_sql_session("registrar").execute("INSERT INTO marks VALUES (1, 3.5)")
    mlds.define_hierarchical_database(HIER_DDL)
    mlds.open_dli_session("depot").execute("ISRT bin (tag = 'b1')")
    mlds.kds.execute(insert("f", a=1))
    return mlds


def key_counters(mlds: MLDS) -> dict:
    return {
        "functional": {
            name: {e.name: e.last_key for e in schema.entity_types.values()}
            for name, schema in mlds._functional.items()
        },
        "network": {n: dict(m._key_counters) for n, m in mlds._network_mappings.items()},
        "relational": {n: dict(m._key_counters) for n, m in mlds._relational_mappings.items()},
        "hierarchical": {
            n: (dict(m._key_counters), m._sequence)
            for n, m in mlds._hierarchical_mappings.items()
        },
    }


class TestFormat:
    def test_indented_snapshot_loads_like_the_compact_one(self, tmp_path):
        mlds = populated(tmp_path / "wal")
        try:
            compact = tmp_path / "compact.json"
            save_mlds(mlds, compact)
            # Byte for byte what the indenting writer produced.
            indented = tmp_path / "indented.json"
            indented.write_text(json.dumps(persistence._snapshot(mlds), indent=1))
            assert json.loads(compact.read_text()) == json.loads(indented.read_text())
            assert "\n" not in compact.read_text()
            # Exactly the indented text minus its whitespace.
            assert compact.read_text() == json.dumps(
                json.loads(indented.read_text()), separators=(",", ":")
            )

            restored = [load_mlds(compact), load_mlds(indented)]
            for twin in restored:
                assert farm_image(twin) == farm_image(mlds)
                assert key_counters(twin) == key_counters(mlds)
                assert twin.restored_txn == mlds.kds.wal.last_committed_txn > 0
                twin.kds.shutdown()
        finally:
            mlds.kds.shutdown()

    def test_saving_twice_writes_identical_bytes(self, tmp_path):
        mlds = populated(tmp_path / "wal")
        try:
            save_mlds(mlds, tmp_path / "a.json")
            save_mlds(mlds, tmp_path / "b.json")
            assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        finally:
            mlds.kds.shutdown()


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def collector(request):
    """Run the test with the collector on or off; always put it back."""
    was_enabled = gc.isenabled()
    gc.enable() if request.param else gc.disable()
    try:
        yield request.param
    finally:
        gc.enable() if was_enabled else gc.disable()


@pytest.fixture()
def parses(monkeypatch):
    """Every ``json.loads`` call, with whether the collector was on."""
    calls: list = []
    original = json.loads

    def spy(text, *args, **kwargs):
        calls.append((text, gc.isenabled()))
        return original(text, *args, **kwargs)

    monkeypatch.setattr(json, "loads", spy)
    return calls


def snapshot_parses(parses) -> list:
    """Whether the collector was on, per parse of a snapshot."""
    return [on for text, on in parses if isinstance(text, str) and '"timing"' in text]


class TestCollectorPause:
    def test_success_paths_restore_the_callers_state(self, tmp_path, collector, parses):
        wal_dir = tmp_path / "wal"
        mlds = populated(wal_dir)
        try:
            save_mlds(mlds, tmp_path / "snap.json")
            assert gc.isenabled() is collector
            load_mlds(tmp_path / "snap.json").kds.shutdown()
            assert gc.isenabled() is collector
            checkpoint_mlds(mlds)
            assert gc.isenabled() is collector
            mlds.kds.execute(insert("f", a=2))
        finally:
            mlds.kds.shutdown()
        recovered = recover_mlds(wal_dir)
        assert gc.isenabled() is collector
        assert farm_image(recovered) == farm_image(mlds)
        recovered.kds.shutdown()
        assert snapshot_parses(parses) == [False, False]  # load_mlds, recover_mlds

    def test_failing_loads_restore_the_callers_state(self, tmp_path, collector):
        future = tmp_path / "future.json"
        future.write_text('{"format": 3}')
        with pytest.raises(MLDSError, match="format 3"):
            load_mlds(future)
        assert gc.isenabled() is collector

        wal_dir = tmp_path / "wal"
        two = populated(wal_dir)
        two.kds.shutdown()
        three = MLDS(backend_count=3)
        save_mlds(three, tmp_path / "three.json")
        with pytest.raises(WalError, match="3 backends"):
            recover_mlds(wal_dir, tmp_path / "three.json")
        assert gc.isenabled() is collector

    def test_heal_workers_restores_the_callers_state(self, tmp_path, collector, parses):
        mlds = MLDS(backend_count=2, engine="process", workers=2, wal=tmp_path / "wal")
        try:
            mlds.kds.execute(insert("f", a=1))
            checkpoint_mlds(mlds)
            mlds.kds.execute(insert("f", a=2))
            before = farm_image(mlds)
            parses.clear()
            assert mlds.kds.heal_workers() == 1
            assert gc.isenabled() is collector
            assert farm_image(mlds) == before
            assert snapshot_parses(parses) == [False]

            # A checkpoint the farm cannot take fails typed, and still
            # hands the collector back as it found it.
            snapshot = tmp_path / "wal" / CHECKPOINT_NAME
            broken = json.loads(snapshot.read_text())
            broken["backends"].append([])
            snapshot.write_text(json.dumps(broken))
            with pytest.raises(MLDSError, match="3 backends"):
                mlds.kds.heal_workers()
            assert gc.isenabled() is collector
        finally:
            mlds.kds.shutdown()


def test_workers_are_forked_outside_the_pause(tmp_path, monkeypatch):
    """A forked worker keeps the collector state it was born with, so no
    process-engine worker may be started while a load holds it off."""
    import multiprocessing.process

    born: list = []
    original = multiprocessing.process.BaseProcess.start

    def start(self):
        born.append(gc.isenabled())
        original(self)

    was_enabled = gc.isenabled()
    gc.enable()
    try:
        wal_dir = tmp_path / "wal"
        mlds = populated(wal_dir)
        checkpoint_mlds(mlds)
        mlds.kds.shutdown()
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", start)
        for restored in (
            load_mlds(wal_dir / CHECKPOINT_NAME, MLDSConfig(engine="process", workers=2)),
            recover_mlds(wal_dir, engine="process", workers=2),
        ):
            assert farm_image(restored) == farm_image(mlds)
            restored.kds.shutdown()
    finally:
        gc.enable() if was_enabled else gc.disable()
    assert born == [True] * 4


def test_recover_reads_and_parses_the_checkpoint_once(tmp_path, parses, monkeypatch):
    wal_dir = tmp_path / "wal"
    mlds = populated(wal_dir)
    path = checkpoint_mlds(mlds)
    mlds.kds.execute(insert("f", a=2))
    mlds.kds.shutdown()
    text = path.read_text()

    opened: list = []
    original_open = Path.open

    def counting_open(self, *args, **kwargs):
        opened.append(self)
        return original_open(self, *args, **kwargs)

    # Recovery loads through load_mlds, the name restart timing wraps.
    loads: list = []
    original_load = persistence.load_mlds

    def counting_load(*args, **kwargs):
        loads.append(args)
        return original_load(*args, **kwargs)

    monkeypatch.setattr(Path, "open", counting_open)
    monkeypatch.setattr(persistence, "load_mlds", counting_load)
    parses.clear()
    recovered = recover_mlds(wal_dir)
    try:
        assert opened.count(path) == 1
        assert [t for t, _ in parses].count(text) == 1
        assert len(loads) == 1
        assert recovered.restored_txn == json.loads(text)["wal"]["last_txn"]
        assert recovered.kds.record_count() == mlds.kds.record_count()
    finally:
        recovered.kds.shutdown()
