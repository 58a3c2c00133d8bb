"""Property: a projected row built in one pass is the row the per-keyword
loop builds, and a SQL row is the record read column by column.

``project`` builds each row of a plain (non-``*``, non-aggregate) target
as one dict over the record's keyword map and seals it through
``Record.sealed``.  It must give exactly what setting the targeted
keywords one by one on an empty record gives: attribute order, repeated
targets, skipped absent attributes, an empty text, a sealed record — with
or without a BY clause.  ``SqlEngine`` rows, built from each record's
keyword map, must equal ``{c: record.get(c) for c in columns}``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.abdl.ast import RetrieveRequest, TargetItem
from repro.abdl.executor import RequestResult, project
from repro.abdm.predicate import Query
from repro.abdm.record import Record
from repro.errors import RecordSealed
from repro.kms.sql_engine import SqlEngine
from repro.obs import NULL_OBS
from repro.relational.sql import parse_relational_schema

ATTRS = ("FILE", "a", "b", "c", "d")

values = st.one_of(st.none(), st.integers(-2, 2), st.sampled_from(["", "x", "y"]), st.just(1.5))

records = st.builds(
    lambda pairs, text: Record.from_pairs(pairs.items(), text=text).seal(),
    st.dictionaries(st.sampled_from(ATTRS), values, max_size=5),
    st.sampled_from(["", "some text"]),
)

targets = st.lists(st.sampled_from(ATTRS + ("absent",)), min_size=1, max_size=6)


def per_keyword(records, request):
    """The reference: one ``set`` per target item on an empty record."""
    output = []
    for record in records:
        row = Record()
        for item in request.target:
            if item.attribute in record:
                row.set(item.attribute, record.get(item.attribute))
        output.append(row.seal())
    return output


@settings(max_examples=300, deadline=None)
@given(st.lists(records, max_size=8), targets, st.sampled_from([None, "a", "absent"]))
def test_one_pass_rows_equal_the_per_keyword_rows(rows, names, by):
    request = RetrieveRequest(Query(()), [TargetItem(name) for name in names], by=by)
    projected = project(rows, request)
    expected = per_keyword(rows, RetrieveRequest(Query(()), request.target))
    if by is not None:
        expected = project(expected, RetrieveRequest(Query(()), [TargetItem("*")], by=by))
    assert [r.pairs() for r in projected] == [r.pairs() for r in expected]
    assert [r.text for r in projected] == [""] * len(projected)
    for row, source in zip(projected, rows):
        assert row.keyword_map() is not source.keyword_map()
        with pytest.raises(RecordSealed):
            row.set("a", 0)
        with pytest.raises(RecordSealed):
            row.remove("a")


DDL = """
DATABASE props;
CREATE TABLE t (a INT, b INT, tag CHAR(8));
"""

STATEMENTS = (
    "SELECT * FROM t",
    "SELECT b, a FROM t",
    "SELECT a, a, tag FROM t",
    "SELECT tag, COUNT(*) FROM t GROUP BY tag",
    "SELECT COUNT(*), AVG(b) FROM t",
    "SELECT a FROM t GROUP BY tag",
)

kernel_rows = st.lists(
    st.dictionaries(
        st.sampled_from(("FILE", "a", "b", "tag", "COUNT(*)", "AVG(b)")), values, max_size=5
    ).map(lambda pairs: Record.from_pairs(pairs.items()).seal()),
    max_size=8,
)


class _Kernel:
    """A kernel controller that answers every RETRIEVE with *records*."""

    obs = NULL_OBS

    def __init__(self, records):
        self.records = records

    def execute(self, request):
        return RequestResult("RETRIEVE", records=list(self.records), count=len(self.records))

    def mark(self):
        return 0

    def since(self, mark):
        return []


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(STATEMENTS), kernel_rows)
def test_sql_rows_are_the_records_read_column_by_column(statement, rows):
    engine = SqlEngine(parse_relational_schema(DDL), _Kernel(rows))
    result = engine.execute(statement)
    assert result.rows == [{c: r.get(c) for c in result.columns} for r in rows]
    assert [list(row) for row in result.rows] == [result.columns] * len(rows)
