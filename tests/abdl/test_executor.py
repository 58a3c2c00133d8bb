"""ABDL execution over a store: the five kernel operations."""

import pytest

from repro.abdl import Executor, parse_request
from repro.abdm import ABStore
from repro.errors import RecordSealed


@pytest.fixture()
def executor():
    store = ABStore()
    ex = Executor(store)
    rows = [
        ("course$1", "Databases", "cs", 4),
        ("course$2", "Compilers", "cs", 3),
        ("course$3", "Calculus", "math", 4),
    ]
    for key, title, dept, credits in rows:
        ex.execute(
            parse_request(
                f"INSERT (<FILE, course>, <course, {key}>, <title, '{title}'>, "
                f"<dept, '{dept}'>, <credits, {credits}>)"
            )
        )
    for key, dname in (("dept$1", "cs"), ("dept$2", "math")):
        ex.execute(
            parse_request(
                f"INSERT (<FILE, department>, <department, {key}>, <dname, '{dname}'>)"
            )
        )
    return ex


class TestInsert:
    def test_insert_counts(self, executor):
        assert executor.store.count("course") == 3

    def test_insert_copies_record(self, executor):
        request = parse_request("INSERT (<FILE, course>, <course, c$9>)")
        executor.execute(request)
        request.record.set("course", "mutated")
        found = executor.execute(parse_request("RETRIEVE ((FILE = course) AND (course = c$9)) (*)"))
        assert len(found.records) == 1


class TestRetrieve:
    def test_query_and_projection(self, executor):
        result = executor.execute(
            parse_request("RETRIEVE ((FILE = course) AND (dept = 'cs')) (title)")
        )
        assert [r.get("title") for r in result.records] == ["Databases", "Compilers"]

    def test_all_attributes(self, executor):
        result = executor.execute(parse_request("RETRIEVE (FILE = course) (*)"))
        assert all("credits" in r for r in result.records)

    def test_results_share_sealed_stored_records(self, executor):
        """A ``*`` RETRIEVE hands out the stored objects, read-only: a
        caller cannot change them, so the store stays as it was."""
        result = executor.execute(parse_request("RETRIEVE (FILE = course) (*)"))
        stored = executor.store.file("course").records()
        assert all(got is kept for got, kept in zip(result.records, stored))
        with pytest.raises(RecordSealed):
            result.records[0].set("title", "HACKED")
        again = executor.execute(parse_request("RETRIEVE (FILE = course) (title)"))
        assert "HACKED" not in [r.get("title") for r in again.records]

    def test_by_clause_orders_groups(self, executor):
        result = executor.execute(
            parse_request("RETRIEVE (FILE = course) (title, dept) BY dept")
        )
        depts = [r.get("dept") for r in result.records]
        assert depts == ["cs", "cs", "math"]

    def test_missing_attribute_projected_as_absent(self, executor):
        result = executor.execute(parse_request("RETRIEVE (FILE = department) (credits)"))
        assert all("credits" not in r for r in result.records)


class TestAggregateRetrieve:
    def test_count_star(self, executor):
        result = executor.execute(parse_request("RETRIEVE (FILE = course) (COUNT(*))"))
        assert result.records[0].get("COUNT(*)") == 3

    def test_grouped_average(self, executor):
        result = executor.execute(
            parse_request("RETRIEVE (FILE = course) (AVG(credits)) BY dept")
        )
        rows = {r.get("dept"): r.get("AVG(credits)") for r in result.records}
        assert rows == {"cs": 3.5, "math": 4.0}

    def test_min_max_sum(self, executor):
        result = executor.execute(
            parse_request("RETRIEVE (FILE = course) (MIN(credits), MAX(credits), SUM(credits))")
        )
        row = result.records[0]
        assert (row.get("MIN(credits)"), row.get("MAX(credits)"), row.get("SUM(credits)")) == (3, 4, 11)


class TestUpdate:
    def test_constant_update(self, executor):
        executor.execute(parse_request("UPDATE ((FILE = course) AND (dept = 'cs')) (credits = 5)"))
        result = executor.execute(
            parse_request("RETRIEVE ((FILE = course) AND (credits = 5)) (COUNT(*))")
        )
        assert result.records[0].get("COUNT(*)") == 2

    def test_arithmetic_update(self, executor):
        executor.execute(parse_request("UPDATE (FILE = course) (credits = credits + 1)"))
        result = executor.execute(parse_request("RETRIEVE (FILE = course) (SUM(credits))"))
        assert result.records[0].get("SUM(credits)") == 14

    def test_arithmetic_skips_non_numeric(self, executor):
        executor.execute(parse_request("UPDATE (FILE = course) (title = title + 1)"))
        result = executor.execute(parse_request("RETRIEVE (FILE = course) (title)"))
        assert "Databases" in [r.get("title") for r in result.records]

    def test_null_out(self, executor):
        executor.execute(parse_request("UPDATE (FILE = course) (dept = NULL)"))
        result = executor.execute(parse_request("RETRIEVE ((FILE = course) AND (dept = NULL)) (COUNT(*))"))
        assert result.records[0].get("COUNT(*)") == 3


class TestDelete:
    def test_delete_by_query(self, executor):
        result = executor.execute(parse_request("DELETE ((FILE = course) AND (credits = 4))"))
        assert result.count == 2
        assert executor.store.count("course") == 1


class TestRetrieveCommon:
    def test_join_on_common_attribute(self, executor):
        result = executor.execute(
            parse_request(
                "RETRIEVE-COMMON (FILE = course) COMMON (dept, dname) "
                "(FILE = department) (title, department)"
            )
        )
        assert result.count == 3
        pairs = {(r.get("title"), r.get("department")) for r in result.records}
        assert ("Databases", "dept$1") in pairs
        assert ("Calculus", "dept$2") in pairs

    def test_collision_prefixing(self, executor):
        # Both files carry a 'FILE' keyword: the right side's gets prefixed.
        result = executor.execute(
            parse_request(
                "RETRIEVE-COMMON (FILE = course) COMMON (dept, dname) "
                "(FILE = department) (*)"
            )
        )
        assert any("department.FILE" in r for r in result.records)


class TestTransactions:
    def test_sequential_execution(self, executor):
        from repro.abdl import parse_transaction

        transaction = parse_transaction(
            "INSERT (<FILE, course>, <course, c$9>, <credits, 1>)\n"
            "RETRIEVE (FILE = course) (COUNT(*))"
        )
        results = [executor.execute(request) for request in transaction]
        assert results[0].count == 1
        assert results[1].records[0].get("COUNT(*)") == 4
