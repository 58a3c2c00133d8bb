"""The statement memo: one bounded LRU behind all four ``run(text)``s."""

from __future__ import annotations

import pytest

from repro import MLDS, errors
from repro.core import session as core_session
from repro.kms.daplex_engine import DaplexEngine
from repro.kms.dli_engine import DliEngine
from repro.kms.engine import DMLEngine
from repro.kms.sql_engine import SqlEngine
from repro.network import dml
from repro.qc import runtime as qc_runtime
from repro.relational import sql

DML = "FIND ANY course USING title IN course"


def test_dml_statement_memoizes():
    first = qc_runtime.parsed("codasyl", DML, dml.parse_transaction)
    second = qc_runtime.parsed("codasyl", DML, dml.parse_transaction)
    assert first is second
    assert first == tuple(dml.parse_transaction(DML))
    snap = qc_runtime.memo_snapshot()
    assert (snap["hits"], snap["misses"], snap["size"]) == (1, 1, 1)


def test_keys_are_exact_text():
    first = qc_runtime.parsed("codasyl", DML, dml.parse_transaction)
    spaced = qc_runtime.parsed("codasyl", DML + " ", dml.parse_transaction)
    assert spaced is not first
    assert spaced == first
    assert qc_runtime.memo_snapshot()["misses"] == 2


def test_dml_transaction_returns_fresh_list():
    # The parsers themselves are plain parses: every call builds a new
    # list a caller may extend or slice.  What the memo shares is a tuple.
    text = DML + "\nGET"
    first = dml.parse_transaction(text)
    second = dml.parse_transaction(text)
    assert first is not second
    assert first == second
    assert isinstance(qc_runtime.parsed("codasyl", text, dml.parse_transaction), tuple)
    assert dml.parse_statement(DML) is not dml.parse_statement(DML)


def test_same_text_in_two_languages_does_not_collide():
    as_sql = qc_runtime.parsed("sql", "x", lambda text: ["sql", text])
    as_dli = qc_runtime.parsed("dli", "x", lambda text: ["dli", text])
    assert as_sql == ("sql", "x")
    assert as_dli == ("dli", "x")
    assert qc_runtime.parsed("sql", "x", lambda text: ["reparsed"]) is as_sql


def test_a_text_that_fails_to_parse_is_never_stored():
    for _ in range(2):
        with pytest.raises(errors.ParseError):
            qc_runtime.parsed("sql", "SELECT FROM", sql.parse_script)
    snap = qc_runtime.memo_snapshot()
    assert (snap["hits"], snap["misses"], snap["size"]) == (0, 2, 0)


def test_memo_is_bounded():
    for i in range(qc_runtime.STATEMENT_MEMO_SIZE + 3):
        qc_runtime.parsed("sql", str(i), lambda text: [text])
    snap = qc_runtime.memo_snapshot()
    assert snap["size"] == snap["maxsize"] == qc_runtime.STATEMENT_MEMO_SIZE
    assert snap["evictions"] == 3


SQL_DDL = "DATABASE reg; CREATE TABLE t (id INT, PRIMARY KEY (id));"


def test_a_miss_parses_through_the_module_attribute(monkeypatch):
    """``benchmarks/fullstack/trace.py`` rebinds ``sql.parse_script`` (and
    its three siblings) on the module; ``run`` must call what is bound
    there at the time of the miss, and nothing at all on a hit."""
    calls = []
    original = sql.parse_script

    def spy(text):
        calls.append(text)
        return original(text)

    mlds = MLDS(backend_count=1)
    mlds.define_relational_database(SQL_DDL)
    session = mlds.open_sql_session("reg")
    monkeypatch.setattr(sql, "parse_script", spy)
    session.run("SELECT * FROM t")
    session.run("SELECT * FROM t")
    assert calls == ["SELECT * FROM t"]


@pytest.mark.parametrize(
    "owner",
    [
        core_session.SqlSession,
        core_session.DaplexSession,
        core_session.CodasylSession,
        core_session.DliSession,
        SqlEngine,
        DaplexEngine,
        DMLEngine,
        DliEngine,
    ],
    ids=lambda owner: owner.__name__,
)
def test_run_lives_in_each_class_body(owner):
    # trace.py wraps ``owner.__dict__["run"]``; an inherited run is a KeyError.
    assert callable(owner.__dict__["run"])
