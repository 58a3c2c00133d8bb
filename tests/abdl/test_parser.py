"""Parsing textual ABDL requests (thesis syntax)."""

import pytest

from repro.abdl import (
    DeleteRequest,
    InsertRequest,
    RetrieveCommonRequest,
    RetrieveRequest,
    UpdateRequest,
    parse_query,
    parse_request,
    parse_transaction,
)
from repro.abdl.ast import Modifier
from repro.errors import ExecutionError, ParseError


class TestRetrieve:
    def test_thesis_example(self):
        request = parse_request(
            "RETRIEVE ((FILE = course) AND (title = 'Advanced Database')) "
            "(title, dept, semester, credits) BY course"
        )
        assert isinstance(request, RetrieveRequest)
        assert request.by == "course"
        assert [t.attribute for t in request.target] == [
            "title",
            "dept",
            "semester",
            "credits",
        ]

    def test_all_attributes_star(self):
        request = parse_request("RETRIEVE (FILE = person) (*)")
        assert request.wants_all

    def test_all_attributes_keyword(self):
        request = parse_request("RETRIEVE (FILE = person) (ALL)")
        assert request.wants_all

    def test_aggregates(self):
        request = parse_request("RETRIEVE (FILE = course) (COUNT(*), AVG(credits))")
        assert request.has_aggregates
        assert request.target[0].aggregate == "COUNT"
        assert request.target[1].attribute == "credits"

    def test_unquoted_dbkey_value(self):
        request = parse_request("RETRIEVE ((FILE = person) AND (person = person$3)) (*)")
        predicate = list(list(request.query)[0])[1]
        assert predicate.value == "person$3"

    def test_or_query(self):
        request = parse_request(
            "RETRIEVE (((FILE = a) AND (x = 1)) OR ((FILE = b) AND (x = 2))) (*)"
        )
        assert len(request.query) == 2

    def test_negative_number(self):
        request = parse_request("RETRIEVE (balance < -5) (*)")
        predicate = list(list(request.query)[0])[0]
        assert predicate.value == -5

    def test_null_value(self):
        request = parse_request("RETRIEVE (advisor != NULL) (*)")
        predicate = list(list(request.query)[0])[0]
        assert predicate.value is None


class TestOtherRequests:
    def test_insert(self):
        request = parse_request(
            "INSERT (<FILE, course>, <course, course$17>, <title, 'DB'>, <credits, 3>)"
        )
        assert isinstance(request, InsertRequest)
        assert request.record["credits"] == 3
        assert request.record.file_name == "course"

    def test_delete(self):
        request = parse_request("DELETE ((FILE = course) AND (credits = 0))")
        assert isinstance(request, DeleteRequest)

    def test_update_constant(self):
        request = parse_request("UPDATE (FILE = course) (credits = 4)")
        assert isinstance(request, UpdateRequest)
        assert request.modifier.value == 4

    def test_update_null(self):
        request = parse_request("UPDATE (FILE = s) (advisor = NULL)")
        assert request.modifier.value is None

    def test_update_arithmetic(self):
        request = parse_request("UPDATE (FILE = e) (salary = salary + 1000)")
        assert request.modifier.arithmetic == "+"
        assert request.modifier.operand == 1000

    @pytest.mark.parametrize("zero", ["0", "0.0", "-0.0"])
    def test_update_dividing_by_zero_is_refused_at_parse(self, zero):
        # Refused before the request exists, so it can never be journaled.
        with pytest.raises(ExecutionError, match="divides by zero"):
            parse_request(f"UPDATE (FILE = e) (salary = salary / {zero})")
        assert parse_request("UPDATE (FILE = e) (salary = salary / 4)")

    def test_modifier_with_an_unknown_operator_is_refused(self):
        with pytest.raises(ExecutionError, match="unknown arithmetic operator"):
            Modifier("salary", arithmetic="%", operand=2)

    def test_retrieve_common(self):
        request = parse_request(
            "RETRIEVE-COMMON (FILE = faculty) COMMON (dept, dname) "
            "(FILE = department) (budget)"
        )
        assert isinstance(request, RetrieveCommonRequest)
        assert request.left_attribute == "dept"
        assert request.right_attribute == "dname"

    def test_retrieve_common_single_attribute(self):
        request = parse_request(
            "RETRIEVE-COMMON (FILE = a) COMMON (k) (FILE = b) (*)"
        )
        assert request.left_attribute == request.right_attribute == "k"


class TestTransactions:
    def test_multi_request(self):
        transaction = parse_transaction(
            "INSERT (<FILE, f>, <f, f$1>)\n"
            "RETRIEVE (FILE = f) (*)\n"
            "DELETE (FILE = f)"
        )
        assert len(transaction) == 3

    def test_render_joins_lines(self):
        transaction = parse_transaction("DELETE (FILE = f)\nDELETE (FILE = g)")
        assert transaction.render().count("\n") == 1


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "FROB (FILE = x) (*)",
            "RETRIEVE (FILE = x)",  # missing target list
            "RETRIEVE (FILE) (*)",
            "INSERT ()",
            "UPDATE (FILE = x)",
            "RETRIEVE (FILE = x) (*) trailing",
        ],
    )
    def test_malformed(self, text):
        with pytest.raises(ParseError):
            parse_request(text)

    def test_unterminated_string(self):
        from repro.errors import LexError

        with pytest.raises(LexError):
            parse_request("RETRIEVE (title = 'oops) (*)")


class TestRenderRoundtrip:
    @pytest.mark.parametrize(
        "text",
        [
            "RETRIEVE ((FILE = 'course') AND (credits >= 3)) (title, credits) BY dept",
            "INSERT (<FILE, 'f'>, <f, 'f$1'>, <x, 1.5>)",
            "DELETE ((a = 1) OR (b = 2))",
            "UPDATE (FILE = 'e') (salary = salary * 2)",
            "RETRIEVE (FILE = 'c') (COUNT(*), MIN(credits))",
        ],
    )
    def test_parse_render_fixpoint(self, text):
        once = parse_request(text).render()
        assert parse_request(once).render() == once

    def test_query_roundtrip(self):
        query = parse_query("((a = 1) AND (b = 'x'))")
        assert parse_query(query.render()).render() == query.render()
