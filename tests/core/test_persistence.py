"""Snapshot persistence: save and restore a whole MLDS."""

import json

import pytest

from repro import MLDS
from repro.core.mlds import MLDSConfig
from repro.errors import MLDSError
from repro.persistence import FORMAT_VERSION, load_mlds, save_mlds
from repro.university import generate_university, load_university

REL_DDL = """
DATABASE registrar;
CREATE TABLE marks (sid INT, score FLOAT, PRIMARY KEY (sid));
"""

NET_DDL = """
SCHEMA NAME IS depot;
RECORD NAME IS crate;
    label TYPE IS CHARACTER 8;
"""


@pytest.fixture()
def populated(tmp_path):
    mlds = MLDS(backend_count=3)
    load_university(mlds, generate_university(persons=20, courses=8, seed=9))
    mlds.define_relational_database(REL_DDL)
    sql = mlds.open_sql_session("registrar")
    sql.execute("INSERT INTO marks VALUES (1, 3.5)")
    mlds.define_network_database(NET_DDL)
    mlds.network_loader("depot").create("crate", label="c-1")
    path = tmp_path / "snapshot.json"
    save_mlds(mlds, path)
    return mlds, path


class TestRoundTrip:
    def test_record_counts_preserved(self, populated):
        original, path = populated
        restored = load_mlds(path)
        assert restored.kds.record_count() == original.kds.record_count()

    def test_exact_backend_distribution(self, populated):
        original, path = populated
        restored = load_mlds(path)
        assert restored.kds.controller.distribution() == original.kds.controller.distribution()

    def test_databases_restored(self, populated):
        original, path = populated
        restored = load_mlds(path)
        assert restored.database_names() == original.database_names()

    def test_record_contents_identical(self, populated):
        original, path = populated
        restored = load_mlds(path)
        def dump(mlds):
            return [
                sorted(tuple(r.pairs()) for r in b.store.all_records())
                for b in mlds.kds.controller.backends
            ]
        assert dump(restored) == dump(original)

    def test_sessions_work_after_restore(self, populated):
        _, path = populated
        restored = load_mlds(path)
        session = restored.open_codasyl_session("university")
        assert session.execute("FIND FIRST person WITHIN system_person").ok
        sql = restored.open_sql_session("registrar")
        assert sql.execute("SELECT COUNT(*) FROM marks").rows[0]["COUNT(*)"] == 1
        daplex = restored.open_daplex_session("university")
        assert daplex.execute("FOR EACH p IN person PRINT name(p);").rows

    def test_key_counters_survive(self, populated):
        """STORE after restore must not mint a colliding database key."""
        original, path = populated
        restored = load_mlds(path)
        session = restored.open_codasyl_session("university")
        session.execute("MOVE 'Post Restore' TO name IN person")
        session.execute("MOVE 1 TO age IN person")
        stored = session.execute("STORE person")
        # 20 persons were loaded; the next key is person$21.
        assert stored.dbkey == "person$21"
        sql = restored.open_sql_session("registrar")
        sql.execute("INSERT INTO marks VALUES (2, 2.0)")
        loader = restored.network_loader("depot")
        assert loader.create("crate", label="c-2") == "crate$2"

    def test_timing_model_restored(self, populated):
        original, path = populated
        restored = load_mlds(path)
        assert restored.kds.controller.timing == original.kds.controller.timing

    def test_load_accepts_engine_knobs(self, populated):
        original, path = populated
        restored = load_mlds(path, MLDSConfig(engine="process", workers=2))
        try:
            assert restored.kds.record_count() == original.kds.record_count()
            assert restored.kds.controller.engine.name == "process"
        finally:
            restored.kds.shutdown()

    def test_placement_counters_survive(self, populated):
        """Inserts after a restore land on the same backends as without it."""
        original, path = populated
        restored = load_mlds(path)
        sql_original = original.open_sql_session("registrar")
        sql_restored = restored.open_sql_session("registrar")
        sql_original.execute("INSERT INTO marks VALUES (7, 1.0)")
        sql_restored.execute("INSERT INTO marks VALUES (7, 1.0)")
        assert (
            restored.kds.controller.distribution()
            == original.kds.controller.distribution()
        )


class TestFormatGuards:
    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": FORMAT_VERSION + 1}))
        with pytest.raises(MLDSError):
            load_mlds(path)

    def test_backend_mismatch_rejected(self, populated, tmp_path):
        _, path = populated
        snapshot = json.loads(path.read_text())
        snapshot["backends"].append([])
        snapshot["backend_count"] = len(snapshot["backends"]) - 1
        bad = tmp_path / "mismatch.json"
        bad.write_text(json.dumps(snapshot))
        with pytest.raises(MLDSError):
            load_mlds(bad)

    def test_snapshot_is_json(self, populated):
        _, path = populated
        snapshot = json.loads(path.read_text())
        assert snapshot["format"] == FORMAT_VERSION
        assert set(snapshot) >= {"functional", "network", "relational", "backends"}


class TestHierarchicalPersistence:
    def test_hierarchical_round_trip(self, tmp_path):
        mlds = MLDS(backend_count=2)
        mlds.define_hierarchical_database(
            "DATABASE depot;\nSEGMENT bin ROOT (tag CHAR(5));\n"
            "SEGMENT part UNDER bin (pname CHAR(10));"
        )
        dl1 = mlds.open_dli_session("depot")
        dl1.run("FLD tag = 'b1'")
        dl1.execute("ISRT bin")
        dl1.run("FLD pname = 'bolt'")
        dl1.execute("ISRT bin(tag = 'b1') part")
        path = tmp_path / "hier.json"
        save_mlds(mlds, path)
        restored = load_mlds(path)
        session = restored.open_dli_session("depot")
        assert session.execute("GU bin(tag = 'b1') part").fields["pname"] == "bolt"
        # Key and sequence counters survive: a new insert extends cleanly.
        session.run("FLD pname = 'nut'")
        result = session.execute("ISRT bin(tag = 'b1') part")
        assert result.dbkey == "part$2"
        # Hierarchic order keeps the original first.
        session.execute("GU bin(tag = 'b1')")
        first = session.execute("GNP part")
        assert first.fields["pname"] == "bolt"
