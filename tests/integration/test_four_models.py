"""FIG-1.2 completed: all four data models in one kernel.

MLDS's promise is one DBMS supporting every major data model through its
own language.  This module runs a functional (DAPLEX + CODASYL-DML via
the thesis's transformer), a native network (CODASYL-DML), a relational
(SQL) and a hierarchical (DL/I + Zawis SQL) database side by side in a
single MBDS kernel and checks isolation, coexistence and the catalog.
"""

import pytest

from repro import MLDS
from repro.university import generate_university, load_university

NET_DDL = """
SCHEMA NAME IS fleet;
RECORD NAME IS ship;
    sname TYPE IS CHARACTER 20;
    hull TYPE IS INTEGER;
SET NAME IS system_ship;
    OWNER IS SYSTEM;
    MEMBER IS ship;
    INSERTION IS AUTOMATIC;
    RETENTION IS FIXED;
    SET SELECTION IS BY APPLICATION;
"""

REL_DDL = """
DATABASE payroll;
CREATE TABLE pay (pid INT, amount FLOAT, PRIMARY KEY (pid));
"""

HIE_DDL = """
DATABASE archive;
SEGMENT box ROOT (label CHAR(10));
SEGMENT folder UNDER box (topic CHAR(20));
"""


@pytest.fixture(scope="module")
def world():
    mlds = MLDS(backend_count=4)
    load_university(mlds, generate_university(persons=20, courses=8, seed=44))
    mlds.define_network_database(NET_DDL)
    mlds.network_loader("fleet").create("ship", sname="Nimitz", hull=68)
    mlds.define_relational_database(REL_DDL)
    mlds.open_sql_session("payroll").execute("INSERT INTO pay VALUES (1, 999.5)")
    mlds.define_hierarchical_database(HIE_DDL)
    dl1 = mlds.open_dli_session("archive")
    dl1.run("FLD label = 'b-1'")
    dl1.execute("ISRT box")
    dl1.run("FLD topic = 'orders'")
    dl1.execute("ISRT box(label = 'b-1') folder")
    return mlds


class TestCatalog:
    def test_four_databases(self, world):
        assert world.database_names() == ["archive", "fleet", "payroll", "university"]

    def test_kernel_catalog_models(self, world):
        models = {t.name: t.model for t in world.kds.databases()}
        assert models == {
            "university": "functional",
            "fleet": "network",
            "payroll": "relational",
            "archive": "hierarchical",
        }


class TestEachInterfaceWorks:
    def test_codasyl_over_functional(self, world):
        session = world.open_codasyl_session("university")
        assert session.execute("FIND FIRST person WITHIN system_person").ok

    def test_codasyl_over_network(self, world):
        session = world.open_codasyl_session("fleet")
        session.execute("MOVE 'Nimitz' TO sname IN ship")
        assert session.execute("FIND ANY ship USING sname IN ship").values["hull"] == 68

    def test_daplex_over_functional(self, world):
        session = world.open_daplex_session("university")
        assert session.execute("FOR EACH p IN person PRINT name(p);").rows

    def test_sql_over_relational(self, world):
        session = world.open_sql_session("payroll")
        assert session.execute("SELECT amount FROM pay").rows == [{"amount": 999.5}]

    def test_dli_over_hierarchical(self, world):
        session = world.open_dli_session("archive")
        assert session.execute("GU box(label = 'b-1') folder").fields["topic"] == "orders"

    def test_sql_over_hierarchical(self, world):
        session = world.open_sql_session("archive")
        rows = session.execute(
            "SELECT label, topic FROM box, folder WHERE box.box = folder.parent"
        ).rows
        assert rows == [{"label": "b-1", "topic": "orders"}]


class TestIsolation:
    def test_files_do_not_collide(self, world):
        files = set()
        for backend in world.kds.controller.backends:
            files |= set(backend.store.file_names())
        assert {"person", "ship", "pay", "box", "folder"} <= files

    def test_queries_scoped_by_file(self, world):
        # A SQL scan of pay never sees university or fleet records.
        session = world.open_sql_session("payroll")
        assert session.execute("SELECT COUNT(*) FROM pay").rows[0]["COUNT(*)"] == 1
