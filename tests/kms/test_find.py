"""FIND translation against the AB(functional) database (VI.B)."""

import pytest

from repro.errors import CurrencyError, TranslationError
from repro.kms import Status


class TestFindAny:
    def test_thesis_retrieve_shape(self, shared_session):
        """VI.B.1: FIND ANY maps to one RETRIEVE with (FILE = ...) first."""
        s = shared_session
        s.execute("MOVE 'fall' TO semester IN course")
        result = s.execute("FIND ANY course USING semester IN course")
        assert result.ok
        assert len(result.requests) == 1
        assert result.requests[0].startswith("RETRIEVE ((FILE = 'course') AND (semester = 'fall'))")
        assert result.requests[0].endswith("BY course")

    def test_multiple_using_items(self, shared_session):
        s = shared_session
        s.execute("MOVE 'fall' TO semester IN course")
        s.execute("MOVE 3 TO credits IN course")
        result = s.execute("FIND ANY course USING semester, credits IN course")
        if result.ok:
            assert result.values["semester"] == "fall"
            assert result.values["credits"] == 3
        assert "(semester = 'fall') AND (credits = 3)" in result.requests[0]

    def test_updates_run_unit_and_record_currency(self, shared_session):
        s = shared_session
        s.execute("MOVE 'fall' TO semester IN course")
        result = s.execute("FIND ANY course USING semester IN course")
        assert s.cit.run_unit.dbkey == result.dbkey
        assert s.cit.record("course").dbkey == result.dbkey

    def test_not_found(self, shared_session):
        s = shared_session
        s.execute("MOVE 'No Such Title' TO title IN course")
        result = s.execute("FIND ANY course USING title IN course")
        assert result.status is Status.NOT_FOUND
        assert s.cit.run_unit is None

    def test_requires_uwa_value(self, shared_session):
        from repro.errors import ExecutionError

        with pytest.raises(ExecutionError):
            shared_session.execute("FIND ANY course USING dept IN course")

    def test_unknown_item_rejected(self, shared_session):
        from repro.errors import SchemaError

        shared_session.execute("MOVE 1 TO credits IN course")
        with pytest.raises(SchemaError):
            shared_session.execute("FIND ANY course USING ghost IN course")

    def test_fills_record_type_buffer(self, shared_session):
        s = shared_session
        s.execute("MOVE 'fall' TO semester IN course")
        s.execute("FIND ANY course USING semester IN course")
        assert s.engine.buffers.has_records("course")

    def test_updates_member_set_currency_from_pairs(self, shared_session):
        s = shared_session
        s.execute("MOVE 'computer science' TO major IN student")
        result = s.execute("FIND ANY student USING major IN student")
        assert result.ok
        # Single-valued set currency comes straight off the advisor keyword.
        advisor = s.cit.set_currency("advisor")
        assert advisor.owner_dbkey is not None
        # ISA set currency: owner shares the student's database key.
        assert s.cit.set_currency("person_student").owner_dbkey == result.dbkey

    def test_request_log_keeps_the_literal_the_user_wrote(self, shared_session):
        """``3`` and ``3.0`` are equal and hash alike, but the logged ABDL
        is what shows a user their statement's translation: each FIND
        must log its own literal, not an earlier statement's."""
        s = shared_session
        logged = []
        for literal in ("3", "3.0"):
            results = s.run(
                f"MOVE {literal} TO credits IN course; "
                "FIND ANY course USING credits IN course"
            )
            logged.append(results[-1].requests[0])
            assert s.request_log[-1] == results[-1].requests[0]
        assert "(credits = 3)" in logged[0]
        assert "(credits = 3.0)" in logged[1]

    def test_find_any_query_tells_equal_values_of_different_types_apart(
        self, shared_session
    ):
        # True is not a DML literal, so reach the translation directly.
        from repro.abdm.predicate import Predicate

        adapter = shared_session.engine.adapter
        rendered = [
            adapter.find_any_query("course", [Predicate("credits", "=", value)]).render()
            for value in (1, 1.0, True)
        ]
        assert rendered == [
            "((FILE = 'course') AND (credits = 1))",
            "((FILE = 'course') AND (credits = 1.0))",
            "((FILE = 'course') AND (credits = True))",
        ]


class TestFindCurrent:
    def test_no_abdl_issued(self, shared_session):
        """VI.B.2: FIND CURRENT only updates the CIT."""
        s = shared_session
        s.execute("MOVE 'computer science' TO major IN student")
        s.execute("FIND ANY student USING major IN student")
        result = s.execute("FIND CURRENT student WITHIN person_student")
        assert result.ok
        assert result.requests == []

    def test_promotes_set_current_to_run_unit(self, shared_session):
        s = shared_session
        s.execute("MOVE 'computer science' TO major IN student")
        found = s.execute("FIND ANY student USING major IN student")
        # Disturb the run-unit with an unrelated FIND.
        s.execute("MOVE 'fall' TO semester IN course")
        s.execute("FIND ANY course USING semester IN course")
        assert s.cit.run_unit.record_type == "course"
        result = s.execute("FIND CURRENT student WITHIN person_student")
        assert s.cit.run_unit.record_type == "student"
        assert s.cit.run_unit.dbkey == found.dbkey

    def test_type_mismatch_rejected(self, shared_session):
        s = shared_session
        s.execute("MOVE 'computer science' TO major IN student")
        s.execute("FIND ANY student USING major IN student")
        with pytest.raises(CurrencyError):
            s.execute("FIND CURRENT person WITHIN person_student")

    def test_null_set_rejected(self, shared_session):
        with pytest.raises(CurrencyError):
            shared_session.execute("FIND CURRENT student WITHIN advisor")


class TestFindFirstNext:
    def _enter_cs_department(self, s):
        s.execute("MOVE 'computer_science' TO dname IN department")
        return s.execute("FIND ANY department USING dname IN department")

    def test_single_valued_set_iteration(self, shared_session):
        """VI.B.4 member-side: (FILE = member) AND (set = owner-dbkey)."""
        s = shared_session
        dept = self._enter_cs_department(s)
        result = s.execute("FIND FIRST faculty WITHIN dept")
        assert result.ok
        assert (
            f"RETRIEVE ((FILE = 'faculty') AND (dept = '{dept.dbkey}'))"
            in result.requests[0]
        )
        count = 1
        while True:
            result = s.execute("FIND NEXT faculty WITHIN dept")
            if not result.ok:
                break
            count += 1
        assert result.status is Status.END_OF_SET
        assert count >= 1

    def test_next_issues_no_abdl(self, shared_session):
        """FIND NEXT walks the request buffer (VI.B.4)."""
        s = shared_session
        self._enter_cs_department(s)
        s.execute("FIND FIRST faculty WITHIN dept")
        result = s.execute("FIND NEXT faculty WITHIN dept")
        assert result.requests == []

    def test_first_last_symmetry(self, shared_session):
        s = shared_session
        self._enter_cs_department(s)
        first = s.execute("FIND FIRST faculty WITHIN dept")
        last = s.execute("FIND LAST faculty WITHIN dept")
        assert first.ok and last.ok
        # PRIOR from the first record hits the front edge.
        s.execute("FIND FIRST faculty WITHIN dept")
        assert s.execute("FIND PRIOR faculty WITHIN dept").status is Status.END_OF_SET

    def test_isa_set_iteration(self, shared_session):
        """ISA members share the owner's database key."""
        s = shared_session
        s.execute("MOVE 'computer science' TO major IN student")
        student = s.execute("FIND ANY student USING major IN student")
        s.execute("FIND OWNER WITHIN person_student")
        result = s.execute("FIND FIRST student WITHIN person_student")
        assert result.dbkey == student.dbkey
        assert (
            f"RETRIEVE ((FILE = 'student') AND (student = '{student.dbkey}'))"
            in result.requests[0]
        )

    def test_system_set_iterates_whole_file(self, shared_session):
        s = shared_session
        result = s.execute("FIND FIRST person WITHIN system_person")
        assert result.ok
        assert "RETRIEVE (FILE = 'person') (*)" in result.requests[0]
        count = 1
        while s.execute("FIND NEXT person WITHIN system_person").ok:
            count += 1
        assert count == 30

    def test_one_to_many_needs_two_requests(self, shared_session):
        """Owner-carried sets: collect member keys, then fetch members."""
        s = shared_session
        s.execute("MOVE 'computer science' TO major IN student")
        s.execute("FIND ANY student USING major IN student")
        result = s.execute("FIND FIRST course WITHIN enrollment")
        assert result.ok
        assert len(result.requests) == 2
        assert "(FILE = 'student')" in result.requests[0]
        assert "(FILE = 'course')" in result.requests[1]
        assert " OR " in result.requests[1] or result.requests[1].count("course$") == 1

    def test_member_not_of_set_rejected(self, shared_session):
        with pytest.raises(TranslationError):
            shared_session.execute("FIND FIRST course WITHIN dept")

    def test_next_without_first_rejected(self, shared_session):
        from repro.errors import ExecutionError

        with pytest.raises(ExecutionError):
            shared_session.execute("FIND NEXT faculty WITHIN dept")

    def test_first_without_occurrence_rejected(self, shared_session):
        with pytest.raises(CurrencyError):
            shared_session.execute("FIND FIRST faculty WITHIN dept")


class TestFindOwner:
    def test_owner_of_single_valued_set(self, shared_session):
        """VI.B.5: the CIT supplies the owner key; one RETRIEVE fetches it."""
        s = shared_session
        s.execute("MOVE 'computer science' TO major IN student")
        s.execute("FIND ANY student USING major IN student")
        result = s.execute("FIND OWNER WITHIN advisor")
        assert result.ok
        assert result.record_type == "faculty"
        assert len(result.requests) == 1
        assert "(FILE = 'faculty')" in result.requests[0]

    def test_owner_becomes_run_unit(self, shared_session):
        s = shared_session
        s.execute("MOVE 'computer science' TO major IN student")
        s.execute("FIND ANY student USING major IN student")
        result = s.execute("FIND OWNER WITHIN advisor")
        assert s.cit.run_unit.dbkey == result.dbkey
        assert s.cit.run_unit.record_type == "faculty"

    def test_isa_owner(self, shared_session):
        s = shared_session
        s.execute("MOVE 'computer science' TO major IN student")
        student = s.execute("FIND ANY student USING major IN student")
        result = s.execute("FIND OWNER WITHIN person_student")
        assert result.record_type == "person"
        assert result.dbkey == student.dbkey  # shared database key
        assert result.values.get("name")

    def test_system_set_has_no_owner(self, shared_session):
        s = shared_session
        s.execute("FIND FIRST person WITHIN system_person")
        with pytest.raises(TranslationError):
            s.execute("FIND OWNER WITHIN system_person")

    def test_null_currency_rejected(self, shared_session):
        with pytest.raises(CurrencyError):
            shared_session.execute("FIND OWNER WITHIN advisor")


class TestFindDuplicate:
    def test_duplicate_within_buffer(self, shared_session):
        """VI.B.3: scan the buffered set for a matching record."""
        s = shared_session
        s.execute("FIND FIRST person WITHIN system_person")
        first = s.execute("GET person")
        # Find another person with the same age, if the population has one.
        result = s.execute("FIND DUPLICATE WITHIN system_person USING age IN person")
        assert result.requests == []  # buffer scan only
        if result.ok:
            assert result.values["age"] == first.values["age"]
            assert result.dbkey != first.dbkey

    def test_no_duplicate_is_end_of_set(self, shared_session):
        s = shared_session
        s.execute("MOVE 'computer_science' TO dname IN department")
        s.execute("FIND ANY department USING dname IN department")
        s.execute("FIND FIRST faculty WITHIN dept")
        result = s.execute("FIND DUPLICATE WITHIN dept USING faculty IN faculty")
        # The database key is unique within the buffer, so never a duplicate.
        assert result.status is Status.END_OF_SET

    def test_requires_loaded_buffer(self, shared_session):
        from repro.errors import ExecutionError

        with pytest.raises(ExecutionError):
            shared_session.execute("FIND DUPLICATE WITHIN dept USING rank IN faculty")


class TestFindWithinCurrent:
    def test_filters_by_uwa_values(self, shared_session):
        """VI.B.6: member search with UWA item predicates."""
        s = shared_session
        s.execute("MOVE 'computer_science' TO dname IN department")
        dept = s.execute("FIND ANY department USING dname IN department")
        s.execute("FIND FIRST faculty WITHIN dept")
        got = s.execute("GET faculty")
        s.execute(f"MOVE '{got.values['rank']}' TO rank IN faculty")
        result = s.execute("FIND faculty WITHIN dept CURRENT USING rank IN faculty")
        assert result.ok
        assert result.values["rank"] == got.values["rank"]
        assert f"(dept = '{dept.dbkey}') AND (rank = '{got.values['rank']}')" in result.requests[0]

    def test_no_match_not_found(self, shared_session):
        s = shared_session
        s.execute("MOVE 'computer_science' TO dname IN department")
        s.execute("FIND ANY department USING dname IN department")
        s.execute("FIND FIRST faculty WITHIN dept")
        s.execute("MOVE 'no_such_rank' TO rank IN faculty")
        result = s.execute("FIND faculty WITHIN dept CURRENT USING rank IN faculty")
        assert result.status is Status.NOT_FOUND
