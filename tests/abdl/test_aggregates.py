"""Aggregate evaluation and grouping semantics.

Each case is answered by merging backend folds, and checked first against
the one-pass oracle over every two-way split of its records and over a
three-backend striping (see ``test_fold_merge.py``).
"""

import pytest

from repro.abdl.aggregates import fold, group_records, merge_folds
from repro.abdl.ast import RetrieveRequest, TargetItem
from repro.abdm import Query, Record
from tests.abdl.aggregate_oracle import evaluate_aggregate, project_aggregates, rows_bits


def records_from(values, attribute="x"):
    return [Record.from_pairs([("FILE", "f"), (attribute, v)]) for v in values]


def evaluate(operation, attribute, records):
    """One aggregate's value from merged folds, after checking every split."""
    request = RetrieveRequest(
        Query.single("FILE", "=", "f"), [TargetItem(attribute, operation)]
    )
    splits = [[records[:cut], records[cut:]] for cut in range(len(records) + 1)]
    splits.append([records[i::3] for i in range(3)])
    for chunks in splits:
        rows = merge_folds(request, [fold(chunk, request) for chunk in chunks])
        concatenation = [record for chunk in chunks for record in chunk]
        assert rows_bits(rows) == rows_bits(project_aggregates(concatenation, request))
    (row,) = rows
    value = row.get(f"{operation}({attribute})")
    assert rows_bits([Record.from_pairs([("v", value)])]) == rows_bits(
        [Record.from_pairs([("v", evaluate_aggregate(operation, attribute, records))])]
    )
    return value


class TestCount:
    def test_count_star_counts_records(self):
        assert evaluate("COUNT", "*", records_from([1, None, 3])) == 3

    def test_count_attribute_skips_nulls(self):
        assert evaluate("COUNT", "x", records_from([1, None, 3])) == 2

    def test_count_empty(self):
        assert evaluate("COUNT", "x", []) == 0


class TestNumericAggregates:
    def test_sum(self):
        assert evaluate("SUM", "x", records_from([1, 2, 3.5])) == 6.5

    def test_avg(self):
        assert evaluate("AVG", "x", records_from([2, 4])) == 3

    def test_sum_ignores_strings(self):
        assert evaluate("SUM", "x", records_from([1, "two", 3])) == 4

    def test_empty_numeric_is_null(self):
        assert evaluate("SUM", "x", []) is None
        assert evaluate("AVG", "x", records_from(["a"])) is None


class TestMinMax:
    def test_numeric_min_max(self):
        records = records_from([3, 1, 2])
        assert evaluate("MIN", "x", records) == 1
        assert evaluate("MAX", "x", records) == 3

    def test_string_fallback(self):
        records = records_from(["pear", "apple"])
        assert evaluate("MIN", "x", records) == "apple"

    def test_numerics_win_over_strings(self):
        records = records_from([5, "apple"])
        assert evaluate("MIN", "x", records) == 5

    def test_empty_is_null(self):
        assert evaluate("MIN", "x", []) is None


class TestUnknown:
    def test_unknown_operation(self):
        with pytest.raises(ValueError):
            TargetItem("x", "MEDIAN")
        with pytest.raises(ValueError):
            evaluate_aggregate("MEDIAN", "x", [])


class TestGrouping:
    def test_group_order_is_first_seen(self):
        records = records_from(["b", "a", "b", "c"], attribute="g")
        groups = group_records(records, "g")
        assert [key for key, _ in groups] == ["b", "a", "c"]
        assert len(groups[0][1]) == 2

    def test_no_by_single_group(self):
        records = records_from([1, 2])
        groups = group_records(records, None)
        assert len(groups) == 1 and groups[0][0] is None

    def test_null_key_groups_together(self):
        records = records_from([None, 1, None], attribute="g")
        groups = group_records(records, "g")
        assert len(groups) == 2
        assert len(dict(groups)[None]) == 2
