"""The KC request log is bounded; a statement's own requests are exact."""

from __future__ import annotations

import pytest

from repro import MLDS
from repro.abdl import parse_request
from repro.kc.controller import REQUEST_LOG_CAP, KernelController
from repro.university import generate_university, load_university

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
def mlds():
    system = MLDS(backend_count=2)
    load_university(system, generate_university(persons=12, courses=4, seed=2))
    system.define_relational_database(REL_DDL)
    system.open_sql_session("payroll").execute("INSERT INTO pay VALUES (1, 999.5)")
    system.define_hierarchical_database(HIE_DDL)
    dli = system.open_dli_session("archive")
    dli.run("FLD label = 'b-1'")
    dli.execute("ISRT box")
    dli.run("FLD topic = 'orders'")
    dli.execute("ISRT box(label = 'b-1') folder")
    return system


def test_long_lived_session_keeps_the_log_at_the_cap(mlds):
    """A served connection never clears its log: 20 000 statements leave
    at most the cap behind, and each result carries exactly its own."""
    session = mlds.open_daplex_session("university")
    one = "FOR EACH p IN person SUCH THAT age(p) = {age} PRINT age(p);"
    two = "FOR EACH s IN student SUCH THAT gpa(s) >= 0.0 PRINT name(s);"
    for number in range(20_000):
        if number % 100:
            result = session.execute(one.format(age=number % 7))
            assert len(result.requests) == 1
            assert f"(age = {number % 7})" in result.requests[0]
        else:
            result = session.execute(two)
            assert len(result.requests) == 2
            assert "FILE = 'student'" in result.requests[0]
            assert "FILE = 'person'" in result.requests[1]
        assert len(session.request_log) <= REQUEST_LOG_CAP
    assert len(session.request_log) == REQUEST_LOG_CAP
    assert session.kc.last_requests(1) == session.request_log[-1:] == result.requests
    assert session.kc.mark() == 20_000 + 200


def test_a_statement_larger_than_the_cap_is_captured_whole(mlds):
    kc = KernelController(mlds.kds)
    request = parse_request("RETRIEVE (FILE = 'department') (dname)")
    for _ in range(10):
        kc.execute(request)
    mark = kc.mark()
    for _ in range(REQUEST_LOG_CAP + 50):
        kc.execute(request)
    assert len(kc.since(mark)) == REQUEST_LOG_CAP + 50
    assert len(kc.request_log) == REQUEST_LOG_CAP
    assert kc.since(kc.mark()) == []
    assert kc.mark() == 10 + REQUEST_LOG_CAP + 50


@pytest.mark.parametrize(
    "opener, database, statement, requests",
    [
        ("open_sql_session", "payroll", "SELECT amount FROM pay", 1),
        ("open_codasyl_session", "university", "FIND FIRST person WITHIN system_person", 1),
        ("open_dli_session", "archive", "GU box(label = 'b-1') folder", 2),
        ("open_daplex_session", "university", "FOR EACH d IN department PRINT dname(d);", 1),
    ],
)
def test_every_engine_captures_per_statement_past_the_cap(
    mlds, opener, database, statement, requests
):
    session = getattr(mlds, opener)(database)
    first = session.execute(statement).requests
    assert len(first) == requests
    for _ in range(REQUEST_LOG_CAP // requests + 10):
        result = session.execute(statement)
        assert result.requests == first
    assert len(session.request_log) == REQUEST_LOG_CAP
