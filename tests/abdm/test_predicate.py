"""Keyword predicates and DNF queries."""

import pytest

from repro.abdm import Conjunction, Predicate, Query, Record


@pytest.fixture()
def record():
    return Record.from_pairs(
        [("FILE", "course"), ("course", "course$1"), ("credits", 4), ("title", "DB")]
    )


class TestPredicate:
    def test_equality_match(self, record):
        assert Predicate("credits", "=", 4).matches(record)

    def test_inequality(self, record):
        assert Predicate("credits", "!=", 3).matches(record)
        assert not Predicate("credits", "!=", 4).matches(record)

    def test_ordering(self, record):
        assert Predicate("credits", ">=", 4).matches(record)
        assert not Predicate("credits", ">", 4).matches(record)

    def test_missing_attribute_never_matches(self, record):
        assert not Predicate("ghost", "=", 4).matches(record)
        assert not Predicate("ghost", "!=", 4).matches(record)

    def test_null_test_matches_null_keyword(self):
        record = Record.from_pairs([("FILE", "f"), ("advisor", None)])
        assert Predicate("advisor", "=", None).matches(record)
        assert not Predicate("advisor", "!=", None).matches(record)

    def test_not_null_test(self):
        record = Record.from_pairs([("FILE", "f"), ("advisor", "person$1")])
        assert Predicate("advisor", "!=", None).matches(record)

    def test_invalid_operator_rejected(self):
        with pytest.raises(ValueError):
            Predicate("a", "~", 1)

    def test_render(self):
        assert Predicate("title", "=", "DB").render() == "(title = 'DB')"
        assert Predicate("credits", ">=", 3).render() == "(credits >= 3)"


class TestConjunction:
    def test_all_must_match(self, record):
        clause = Conjunction(
            [Predicate("FILE", "=", "course"), Predicate("credits", "=", 4)]
        )
        assert clause.matches(record)

    def test_one_failure_fails(self, record):
        clause = Conjunction(
            [Predicate("FILE", "=", "course"), Predicate("credits", "=", 99)]
        )
        assert not clause.matches(record)

    def test_empty_conjunction_matches_everything(self, record):
        assert Conjunction([]).matches(record)

    def test_file_names(self):
        clause = Conjunction([Predicate("FILE", "=", "x"), Predicate("a", "=", 1)])
        assert clause.file_names() == {"x"}

    def test_render_single(self):
        assert Conjunction([Predicate("a", "=", 1)]).render() == "(a = 1)"

    def test_render_multi(self):
        clause = Conjunction([Predicate("a", "=", 1), Predicate("b", "<", 2)])
        assert clause.render() == "((a = 1) AND (b < 2))"


class TestQuery:
    def test_disjunction(self, record):
        query = Query(
            [
                Conjunction([Predicate("credits", "=", 99)]),
                Conjunction([Predicate("title", "=", "DB")]),
            ]
        )
        assert query.matches(record)

    def test_no_clause_matches(self, record):
        query = Query([Conjunction([Predicate("credits", "=", 99)])])
        assert not query.matches(record)

    def test_single_helper(self, record):
        assert Query.single("credits", "=", 4).matches(record)

    def test_file_names_all_pinned(self):
        query = Query(
            [
                Conjunction([Predicate("FILE", "=", "a")]),
                Conjunction([Predicate("FILE", "=", "b")]),
            ]
        )
        assert query.file_names() == {"a", "b"}

    def test_file_names_open_clause_clears(self):
        query = Query(
            [
                Conjunction([Predicate("FILE", "=", "a")]),
                Conjunction([Predicate("x", "=", 1)]),
            ]
        )
        assert query.file_names() == set()

    def test_render_dnf(self):
        query = Query(
            [
                Conjunction([Predicate("a", "=", 1), Predicate("b", "=", 2)]),
                Conjunction([Predicate("c", "=", 3)]),
            ]
        )
        assert query.render() == "(((a = 1) AND (b = 2)) OR (c = 3))"

    def test_iteration(self):
        query = Query.conjunction([Predicate("a", "=", 1)])
        assert len(query) == 1
        assert len(list(query)[0]) == 1


def pin(file):
    return Predicate("FILE", "=", file)


class TestWithin:
    """``Query.within(f)``: the query as it acts on the records of file f."""

    def test_a_clause_pinning_the_file_loses_exactly_its_pins(self):
        query = Query(
            [Conjunction([pin("f"), Predicate("x", "=", 1), pin("f"), Predicate("FILE", "!=", "g")])]
        )
        assert query.within("f") == Query.conjunction(
            [Predicate("x", "=", 1), Predicate("FILE", "!=", "g")]
        )

    def test_non_string_file_terms_stay(self):
        clause = Conjunction([pin("f"), Predicate("FILE", "=", 5), Predicate("FILE", "<", "z")])
        assert Query([clause]).within("f") == Query.conjunction(
            [Predicate("FILE", "=", 5), Predicate("FILE", "<", "z")]
        )
        unpinned = Query.conjunction([Predicate("FILE", "=", 5)])
        assert unpinned.within("f") == unpinned

    def test_a_clause_pinning_another_file_is_dropped(self):
        query = Query(
            [
                Conjunction([pin("g"), Predicate("x", "=", 1)]),
                Conjunction([pin("f"), pin("g")]),  # pins two files: matches nothing
                Conjunction([pin("f"), Predicate("x", "=", 2)]),
            ]
        )
        assert query.within("f") == Query.single("x", "=", 2)
        assert query.within("h") == Query(())
        assert query.within("f") == Query.single("x", "=", 2)  # not h's cached answer
        assert query.within("f") is query.within("f")  # backends share one scope

    def test_an_unpinned_clause_is_kept_whole(self):
        open_clause = Conjunction([Predicate("x", "=", 1)])
        query = Query([open_clause, Conjunction([pin("f")])])
        assert query.within("f") == Query([open_clause, Conjunction(())])
        assert query.within("g") == Query([open_clause])

    def test_within_agrees_with_matches_on_the_files_records(self, record):
        query = Query(
            [
                Conjunction([pin("course"), Predicate("credits", ">", 3)]),
                Conjunction([pin("faculty"), Predicate("credits", ">", 0)]),
            ]
        )
        scoped = query.within("course")
        assert scoped == Query.single("credits", ">", 3)
        assert scoped.matches(record) == query.matches(record) is True
