"""Property: merging per-backend folds equals one pass over the records.

A backend folds its slice of an aggregate RETRIEVE into one partial state
per group and the controller merges the folds in backend order
(:mod:`repro.abdl.aggregates`).  For every record list and every split of
it into backend chunks — empty chunks included — the merged rows must be
the one-pass oracle's rows over the concatenation, to the bit: keyword
order, value types (``True`` is not ``1``) and float images (NaN
payloads, ``-0.0``).
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.abdl.aggregates import fold, merge_folds
from repro.abdl.ast import AGGREGATE_OPERATIONS, RetrieveRequest, TargetItem
from repro.abdm.predicate import Query
from repro.abdm.record import Record
from tests.abdl.aggregate_oracle import (
    PITFALLS,
    project_aggregates,
    rows_bits,
    value_bits,
)

ATTRIBUTES = ("g", "x", "y")
QUERY = Query.single("FILE", "=", "f")


def request_for(target, by=None) -> RetrieveRequest:
    return RetrieveRequest(QUERY, target, by=by)


def merged(request, chunks):
    return merge_folds(request, [fold(chunk, request) for chunk in chunks])


def assert_merge_is_oracle(request, chunks):
    """The merge of *chunks*' folds is the oracle over their concatenation."""
    concatenation = [record for chunk in chunks for record in chunk]
    assert rows_bits(merged(request, chunks)) == rows_bits(
        project_aggregates(concatenation, request)
    )


def record_of(values: dict) -> Record:
    return Record.from_pairs([("FILE", "f"), *values.items()]).seal()


records = st.lists(
    st.dictionaries(st.sampled_from(ATTRIBUTES), st.sampled_from(PITFALLS)).map(
        record_of
    ),
    max_size=14,
)

target_items = st.one_of(
    st.builds(
        TargetItem,
        st.sampled_from(ATTRIBUTES),
        st.sampled_from(AGGREGATE_OPERATIONS),
    ),
    st.just(TargetItem("*", "COUNT")),
    st.builds(TargetItem, st.sampled_from(ATTRIBUTES + ("*",))),
)


@st.composite
def aggregate_requests(draw):
    items = draw(st.lists(target_items, min_size=1, max_size=4))
    if not any(item.aggregate for item in items):
        items.append(TargetItem("x", draw(st.sampled_from(AGGREGATE_OPERATIONS))))
    return request_for(items, by=draw(st.sampled_from((None,) + ATTRIBUTES)))


@st.composite
def splits(draw, rows):
    """*rows* cut into 1–5 contiguous chunks; a cut may repeat (empty chunk)."""
    count = draw(st.integers(1, 5))
    cuts = sorted(draw(st.integers(0, len(rows))) for _ in range(count - 1))
    bounds = [0, *cuts, len(rows)]
    return [rows[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


@settings(max_examples=400, deadline=None)
@given(data=st.data(), rows=records, request=aggregate_requests())
def test_merged_folds_equal_the_oracle(data, rows, request):
    assert_merge_is_oracle(request, data.draw(splits(rows)))


@settings(max_examples=100, deadline=None)
@given(rows=records, request=aggregate_requests(), backends=st.integers(1, 5))
def test_round_robin_striping(rows, request, backends):
    # How the kernel places records: backend i holds every backends-th one.
    assert_merge_is_oracle(request, [rows[i::backends] for i in range(backends)])


class TestPitfalls:
    def test_sum_is_not_a_sum_of_subtotals(self):
        """Float addition is not associative: subtotals answer 0.0, while
        one pass answers 0.3 where ``sum`` adds left to right and about
        1.0 where it compensates (Python 3.12 and later)."""
        values = [0.1] * 7 + [1e16, -1e16, 0.3]
        rows = [record_of({"x": value}) for value in values]
        chunks = [rows[0::2], rows[1::2]]
        for operation in ("SUM", "AVG"):
            assert_merge_is_oracle(request_for([TargetItem("x", operation)]), chunks)
        (row,) = merged(request_for([TargetItem("x", "SUM")]), chunks)
        subtotals = [sum(r.get("x") for r in chunk) for chunk in chunks]
        assert value_bits(row.get("SUM(x)")) == value_bits(sum(values))
        assert row.get("SUM(x)") != sum(subtotals)

    def test_leading_nan_wins_and_later_nans_are_skipped(self):
        nan = float("nan")
        for values in ([nan, 2, 1], [2, nan, 1], [nan], [3, nan]):
            rows = [record_of({"x": value}) for value in values]
            for cut in range(len(rows) + 1):
                for operation in ("MIN", "MAX"):
                    assert_merge_is_oracle(
                        request_for([TargetItem("x", operation)]),
                        [rows[:cut], rows[cut:]],
                    )

    def test_ties_keep_the_first_value(self):
        for values in ([1, 1.0, True], [True, 1.0, 1], [0.0, -0.0], [-0.0, 0.0]):
            rows = [record_of({"x": value, "g": value}) for value in values]
            for cut in range(len(rows) + 1):
                for operation in ("MIN", "MAX"):
                    for by in (None, "g"):
                        assert_merge_is_oracle(
                            request_for([TargetItem("x", operation)], by=by),
                            [rows[:cut], rows[cut:]],
                        )

    def test_empty_input(self):
        target = [TargetItem("*", "COUNT"), TargetItem("x", "SUM"), TargetItem("g")]
        (row,) = merged(request_for(target), [[], []])
        assert row.pairs() == [("COUNT(*)", 0), ("SUM(x)", None), ("g", None)]
        assert merged(request_for(target, by="g"), [[], [], []]) == []
        assert_merge_is_oracle(request_for(target), [[]])
        assert_merge_is_oracle(request_for(target, by="g"), [[]])

    def test_plain_attribute_comes_from_the_first_backend_with_the_group(self):
        rows = [record_of({"g": 1, "y": "first"}), record_of({"g": 1, "y": "later"})]
        request = request_for([TargetItem("y"), TargetItem("x", "COUNT")], by="g")
        assert_merge_is_oracle(request, [[], rows[:1], rows[1:]])
        (row,) = merged(request, [[], rows[:1], rows[1:]])
        assert row.get("y") == "first"
