"""CH-VII.B measured: SQL-over-hierarchical vs native relational SQL.

The second cross-model pair (Zawis) should — like the thesis's first —
behave like the native interface at tolerable cost.  The same logical
data lives twice: as a native relational database and as a hierarchical
database exposed through the relational view.  The same SELECTs run
against both, comparing requests, simulated kernel time and real time.
"""

from __future__ import annotations

import pytest

from repro import MLDS

from .conftest import print_series

REL_DDL = """
DATABASE flatschool;
CREATE TABLE dept (dept CHAR(12), dname CHAR(20), budget INT, PRIMARY KEY (dept));
CREATE TABLE course (course CHAR(12), parent CHAR(12), title CHAR(40), credits INT,
                     PRIMARY KEY (course));
"""

HIE_DDL = """
DATABASE treeschool;
SEGMENT dept ROOT (dname CHAR(20), budget INT);
SEGMENT course UNDER dept (title CHAR(40), credits INT);
"""

DEPTS = [("cs", 100), ("math", 80), ("physics", 60)]
COURSES = [
    ("cs", "Databases", 4),
    ("cs", "Compilers", 3),
    ("cs", "Networks", 3),
    ("math", "Calculus", 4),
    ("math", "Algebra", 3),
    ("physics", "Mechanics", 4),
]


def build_relational():
    mlds = MLDS(backend_count=4)
    mlds.define_relational_database(REL_DDL)
    session = mlds.open_sql_session("flatschool")
    keys = {}
    for index, (dname, budget) in enumerate(DEPTS):
        key = f"dept${index + 1}"
        keys[dname] = key
        session.execute(
            f"INSERT INTO dept VALUES ('{key}', '{dname}', {budget})"
        )
    for index, (dname, title, credits) in enumerate(COURSES):
        session.execute(
            f"INSERT INTO course VALUES ('course${index + 1}', '{keys[dname]}', "
            f"'{title}', {credits})"
        )
    return mlds, "flatschool"


def build_hierarchical():
    mlds = MLDS(backend_count=4)
    mlds.define_hierarchical_database(HIE_DDL)
    dl1 = mlds.open_dli_session("treeschool")
    for dname, budget in DEPTS:
        dl1.run(f"FLD dname = '{dname}'; FLD budget = {budget}")
        dl1.execute("ISRT dept")
    for dname, title, credits in COURSES:
        dl1.run(f"FLD title = '{title}'; FLD credits = {credits}")
        dl1.execute(f"ISRT dept(dname = '{dname}') course")
    return mlds, "treeschool"


def workload(session):
    """Three SELECT shapes: filter, join, aggregate."""
    filtered = session.execute("SELECT title FROM course WHERE credits >= 4")
    joined = session.execute(
        "SELECT dname, title FROM dept, course WHERE dept.dept = course.parent"
    )
    grouped = session.execute("SELECT parent, COUNT(*) FROM course GROUP BY parent")
    return len(filtered.rows), len(joined.rows), len(grouped.rows)


@pytest.fixture(scope="module")
def zawis_series():
    rows = []
    answers = {}
    for label, builder in [
        ("native relational", build_relational),
        ("hierarchical via SQL view", build_hierarchical),
    ]:
        mlds, name = builder()
        session = mlds.open_sql_session(name)
        mlds.kds.reset_clock()
        counts = workload(session)
        rows.append(
            (
                label,
                f"{counts[0]}/{counts[1]}/{counts[2]}",
                session.kc.mark(),
                round(mlds.kds.clock.total_ms, 1),
            )
        )
        answers[label] = counts
    print_series(
        "CH-VII.B  SQL workload: native relational vs hierarchical view",
        ["target", "rows (filter/join/group)", "ABDL requests", "sim kernel ms"],
        rows,
    )
    return answers


class TestZawisShape:
    def test_same_answers(self, zawis_series):
        assert (
            zawis_series["native relational"]
            == zawis_series["hierarchical via SQL view"]
        )


class TestZawisLatency:
    def test_native_relational(self, benchmark, zawis_series):
        mlds, name = build_relational()
        session = mlds.open_sql_session(name)
        benchmark(lambda: workload(session))
        benchmark.extra_info["target"] = "native relational"

    def test_hierarchical_view(self, benchmark, zawis_series):
        mlds, name = build_hierarchical()
        session = mlds.open_sql_session(name)
        benchmark(lambda: workload(session))
        benchmark.extra_info["target"] = "hierarchical via SQL view"
