"""CLAIM-VI: translation cost per CODASYL-DML and DAPLEX statement type.

Chapter VI maps each statement into one or more ABDL requests (several
auxiliary retrieves for STORE and ERASE).  This bench measures the
end-to-end statement cost against the AB(functional) University database
and reports, per statement, the number of ABDL requests its translation
issued — the one-to-many correspondence the thesis calls out in III.A.

The DAPLEX rows run each ``FOR EACH`` shape (direct, inherited, nested,
aggregate) at 8 and at 64 result rows: the engine evaluates a path step
once for the whole candidate set, so the request count is a property of
the statement and must not move with the rows.
"""

from __future__ import annotations

import pytest

from repro import MLDS
from repro.university import generate_university, load_university

from .conftest import print_series


def fresh_session():
    mlds = MLDS(backend_count=4)
    load_university(mlds, generate_university(persons=40, courses=12, seed=5))
    return mlds.open_codasyl_session("university")


@pytest.fixture(scope="module")
def request_counts():
    """One pass over every statement type, recording its ABDL fan-out."""
    s = fresh_session()
    rows = []

    def record(label, result):
        rows.append((label, len(result.requests)))
        return result

    s.execute("MOVE 'computer science' TO major IN student")
    record("FIND ANY", s.execute("FIND ANY student USING major IN student"))
    record("FIND OWNER", s.execute("FIND OWNER WITHIN advisor"))
    record("FIND FIRST (single-valued)", s.execute("FIND FIRST student WITHIN advisor"))
    record("FIND NEXT (buffered)", s.execute("FIND NEXT student WITHIN advisor"))
    record("FIND CURRENT", s.execute("FIND CURRENT student WITHIN advisor"))
    record("FIND FIRST (one-to-many)", s.execute("FIND FIRST course WITHIN enrollment"))
    record("GET", s.execute("GET"))
    s.execute("MOVE 'Bench Person' TO name IN person")
    s.execute("MOVE 30 TO age IN person")
    record("STORE (entity)", s.execute("STORE person"))
    s.execute("MOVE 'bench major' TO major IN student")
    record("STORE (subtype)", s.execute("STORE student"))
    s.execute("MOVE 'fall' TO semester IN course")
    s.execute("FIND ANY course USING semester IN course")
    s.execute("FIND CURRENT student WITHIN person_student")
    s.execute("FIND CURRENT course WITHIN system_course")
    record("CONNECT (owner side)", s.execute("CONNECT course TO enrollment"))
    record("DISCONNECT (owner side)", s.execute("DISCONNECT course FROM enrollment"))
    s.execute("FIND CURRENT student WITHIN person_student")
    s.execute("MOVE 'changed' TO major IN student")
    record("MODIFY (one item)", s.execute("MODIFY major IN student"))
    record("ERASE (subtype)", s.execute("ERASE student"))
    print_series(
        "CLAIM-VI  ABDL requests per CODASYL-DML statement",
        ["statement", "ABDL requests"],
        rows,
    )
    return dict(rows)


DAPLEX_ROWS = (8, 64)

#: shape -> the loop body; a gpa bound in front selects the row count.
DAPLEX_SHAPES = {
    "direct": "PRINT gpa(s), major(s);",
    "inherited": "PRINT name(s), gpa(s);",
    "nested": "PRINT dname(dept(advisor(s)));",
    "aggregate": "PRINT COUNT(enrollment(s)), MAXIMUM(salary(advisor(s)));",
}


@pytest.fixture(scope="module")
def daplex():
    """One DAPLEX session for every (read-only) FOR EACH row below."""
    mlds = MLDS(backend_count=4)
    load_university(mlds, generate_university(persons=200, courses=12, seed=5))
    return mlds.open_daplex_session("university")


def daplex_statement(session, shape: str, rows: int) -> str:
    """FOR EACH over the *rows* students with the lowest gpa."""
    gpas = sorted(
        row["gpa(s)"] for row in session.execute("FOR EACH s IN student PRINT gpa(s);").rows
    )
    assert gpas[rows - 1] < gpas[rows], "a gpa tie straddles the cut; pick another seed"
    return f"FOR EACH s IN student SUCH THAT gpa(s) < {gpas[rows]!r} {DAPLEX_SHAPES[shape]}"


@pytest.fixture(scope="module")
def daplex_request_counts(daplex):
    """ABDL requests per FOR EACH shape, at each row count."""
    counts = {}
    for shape in DAPLEX_SHAPES:
        for rows in DAPLEX_ROWS:
            result = daplex.execute(daplex_statement(daplex, shape, rows))
            assert len(result.rows) == rows
            counts[shape, rows] = len(result.requests)
    print_series(
        "CLAIM-VI  ABDL requests per DAPLEX FOR EACH",
        ["shape", *(f"{rows} rows" for rows in DAPLEX_ROWS)],
        [(shape, *(counts[shape, rows] for rows in DAPLEX_ROWS)) for shape in DAPLEX_SHAPES],
    )
    return counts


class TestDaplexFanOut:
    def test_request_count_is_independent_of_rows(self, daplex_request_counts):
        for shape in DAPLEX_SHAPES:
            assert len({daplex_request_counts[shape, rows] for rows in DAPLEX_ROWS}) == 1

    def test_one_request_per_step_off_the_candidates(self, daplex_request_counts):
        rows = DAPLEX_ROWS[0]
        assert daplex_request_counts["direct", rows] == 1     # candidates carry it all
        assert daplex_request_counts["inherited", rows] == 2  # + person
        assert daplex_request_counts["nested", rows] == 3     # + faculty + department
        assert daplex_request_counts["aggregate", rows] == 2  # + employee (salary)

    @pytest.mark.parametrize("shape", DAPLEX_SHAPES)
    @pytest.mark.parametrize("rows", DAPLEX_ROWS)
    def test_for_each_latency(self, benchmark, daplex, shape, rows):
        statement = daplex_statement(daplex, shape, rows)
        benchmark(lambda: daplex.execute(statement))
        benchmark.extra_info["statement"] = f"FOR EACH ({shape}, {rows} rows)"


class TestFanOut:
    def test_find_current_issues_nothing(self, request_counts):
        assert request_counts["FIND CURRENT"] == 0

    def test_buffered_next_issues_nothing(self, request_counts):
        assert request_counts["FIND NEXT (buffered)"] == 0

    def test_one_to_many_needs_two_requests(self, request_counts):
        assert request_counts["FIND FIRST (one-to-many)"] == 2

    def test_store_and_erase_fan_out(self, request_counts):
        assert request_counts["STORE (subtype)"] >= 3  # overlap probes + insert
        assert request_counts["ERASE (subtype)"] >= 2  # constraint checks + delete


class TestStatementLatency:
    def test_find_any_latency(self, benchmark, request_counts):
        s = fresh_session()
        s.execute("MOVE 'computer science' TO major IN student")

        benchmark(lambda: s.execute("FIND ANY student USING major IN student"))
        benchmark.extra_info["statement"] = "FIND ANY"

    def test_find_next_latency(self, benchmark):
        s = fresh_session()
        s.execute("FIND FIRST person WITHIN system_person")

        def run():
            result = s.execute("FIND NEXT person WITHIN system_person")
            if not result.ok:
                s.execute("FIND FIRST person WITHIN system_person")

        benchmark(run)
        benchmark.extra_info["statement"] = "FIND NEXT"

    def test_get_latency(self, benchmark):
        s = fresh_session()
        s.execute("FIND FIRST person WITHIN system_person")
        benchmark(lambda: s.execute("GET"))
        benchmark.extra_info["statement"] = "GET"

    def test_modify_latency(self, benchmark):
        s = fresh_session()
        s.execute("FIND FIRST person WITHIN system_person")
        s.execute("MOVE 55 TO age IN person")
        benchmark(lambda: s.execute("MODIFY age IN person"))
        benchmark.extra_info["statement"] = "MODIFY"

    def test_store_latency(self, benchmark):
        s = fresh_session()
        counter = [0]

        def run():
            counter[0] += 1
            s.execute(f"MOVE 'Person {counter[0]}' TO name IN person")
            s.execute(f"MOVE {20 + counter[0] % 50} TO age IN person")
            s.execute("STORE person")

        benchmark(run)
        benchmark.extra_info["statement"] = "MOVE+MOVE+STORE"
