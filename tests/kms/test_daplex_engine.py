"""The DAPLEX language interface engine over AB(functional)."""

import pytest

from repro import MLDS
from repro.abdm.predicate import Query
from repro.errors import ConstraintViolation, ExecutionError, SchemaError, TranslationError
from repro.kms import daplex_engine
from repro.university import generate_university, load_university


@pytest.fixture()
def mlds_small():
    mlds = MLDS(backend_count=2)
    load_university(mlds, generate_university(persons=24, courses=8, seed=13))
    return mlds


@pytest.fixture()
def daplex(mlds_small):
    return mlds_small.open_daplex_session("university")


class TestForEachQueries:
    def test_direct_scalar_condition_compiles_to_query(self, daplex):
        result = daplex.execute(
            "FOR EACH s IN student SUCH THAT major(s) = 'computer science' "
            "PRINT gpa(s);"
        )
        assert any(
            "(FILE = 'student') AND (major = 'computer science')" in r
            for r in result.requests
        )

    def test_inherited_function_print(self, daplex):
        """Value inheritance: name is declared on person, read via student."""
        result = daplex.execute("FOR EACH s IN student PRINT name(s);")
        assert result.rows
        assert all(row["name(s)"] for row in result.rows)

    def test_inherited_function_condition_post_filters(self, daplex):
        everyone = daplex.execute("FOR EACH s IN student PRINT name(s);")
        target = everyone.rows[0]["name(s)"]
        result = daplex.execute(
            f"FOR EACH s IN student SUCH THAT name(s) = '{target}' PRINT gpa(s);"
        )
        assert len(result.rows) == 1

    def test_nested_path_navigation(self, daplex):
        result = daplex.execute(
            "FOR EACH s IN student PRINT dname(dept(advisor(s)));"
        )
        assert result.rows
        assert all(row["dname(dept(advisor(s)))"] for row in result.rows)

    def test_multivalued_function_prints_joined_values(self, daplex):
        result = daplex.execute("FOR EACH f IN faculty PRINT teaching(f);")
        assert any(
            row["teaching(f)"] and "course$" in row["teaching(f)"]
            for row in result.rows
        )

    def test_disjunctive_condition(self, daplex):
        result = daplex.execute(
            "FOR EACH s IN student SUCH THAT gpa(s) >= 3.9 OR gpa(s) < 2.1 "
            "PRINT gpa(s);"
        )
        for row in result.rows:
            assert row["gpa(s)"] >= 3.9 or row["gpa(s)"] < 2.1

    def test_range_condition(self, daplex):
        result = daplex.execute(
            "FOR EACH c IN course SUCH THAT credits(c) >= 4 PRINT credits(c);"
        )
        assert all(row["credits(c)"] >= 4 for row in result.rows)

    def test_unknown_type_rejected(self, daplex):
        with pytest.raises(SchemaError):
            daplex.execute("FOR EACH x IN ghost PRINT x;")

    def test_unknown_function_rejected(self, daplex):
        with pytest.raises(SchemaError):
            daplex.execute("FOR EACH s IN student PRINT ghost(s);")

    def test_scalar_cannot_be_dereferenced(self, daplex):
        with pytest.raises(TranslationError):
            daplex.execute("FOR EACH s IN student PRINT dname(major(s));")


class TestLet:
    def test_let_updates_value(self, daplex):
        daplex.execute(
            "FOR EACH s IN student SUCH THAT gpa(s) < 2.5 BEGIN "
            "LET major(s) = 'remedial'; END;"
        )
        result = daplex.execute(
            "FOR EACH s IN student SUCH THAT major(s) = 'remedial' PRINT gpa(s);"
        )
        assert all(row["gpa(s)"] < 2.5 for row in result.rows)

    def test_let_inherited_function_updates_ancestor_file(self, daplex):
        everyone = daplex.execute("FOR EACH s IN student PRINT name(s);")
        target = everyone.rows[0]["name(s)"]
        result = daplex.execute(
            f"FOR EACH s IN student SUCH THAT name(s) = '{target}' BEGIN "
            f"LET age(s) = 99; END;"
        )
        assert result.touched == 1
        assert any("(FILE = 'person')" in r and "UPDATE" in r for r in result.requests)

    def test_let_nested_path_rejected(self, daplex):
        with pytest.raises(TranslationError):
            daplex.execute(
                "FOR EACH s IN student BEGIN LET dname(dept(s)) = 'x'; END;"
            )


class TestForNew:
    def test_new_base_entity(self, daplex):
        result = daplex.execute(
            "FOR A NEW p IN person BEGIN LET name(p) = 'Ada'; LET age(p) = 28; END;"
        )
        assert result.touched == 1
        check = daplex.execute("FOR EACH p IN person SUCH THAT name(p) = 'Ada' PRINT age(p);")
        assert check.rows == [{"age(p)": 28}]

    def test_new_subtype_extends_supertype(self, daplex):
        daplex.execute("FOR A NEW p IN person BEGIN LET name(p) = 'Ada'; END;")
        result = daplex.execute(
            "FOR A NEW s IN student OF person SUCH THAT name(person) = 'Ada' "
            "BEGIN LET major(s) = 'math'; END;"
        )
        assert result.touched == 1
        check = daplex.execute(
            "FOR EACH s IN student SUCH THAT major(s) = 'math' PRINT name(s);"
        )
        assert {"name(s)": "Ada"} in check.rows

    def test_subtype_without_selector_rejected(self, daplex):
        with pytest.raises(TranslationError):
            daplex.execute("FOR A NEW s IN student BEGIN LET major(s) = 'x'; END;")

    def test_selector_on_base_entity_rejected(self, daplex):
        with pytest.raises(TranslationError):
            daplex.execute(
                "FOR A NEW p IN person OF person SUCH THAT name(person) = 'x' "
                "BEGIN LET name(p) = 'y'; END;"
            )

    def test_ambiguous_selector_rejected(self, daplex):
        daplex.execute("FOR A NEW p IN person BEGIN LET age(p) = 7; END;")
        daplex.execute("FOR A NEW p IN person BEGIN LET age(p) = 7; END;")
        with pytest.raises(ExecutionError):
            daplex.execute(
                "FOR A NEW s IN student OF person SUCH THAT age(person) = 7 "
                "BEGIN LET major(s) = 'm'; END;"
            )

    def test_double_extension_rejected(self, daplex):
        daplex.execute("FOR A NEW p IN person BEGIN LET name(p) = 'Solo'; END;")
        statement = (
            "FOR A NEW s IN student OF person SUCH THAT name(person) = 'Solo' "
            "BEGIN LET major(s) = 'm'; END;"
        )
        daplex.execute(statement)
        with pytest.raises(ConstraintViolation):
            daplex.execute(statement)

    def test_uniqueness_enforced(self, daplex):
        daplex.execute("FOR A NEW p IN person BEGIN LET name(p) = 'Unique U'; END;")
        with pytest.raises(ConstraintViolation):
            daplex.execute("FOR A NEW p IN person BEGIN LET name(p) = 'Unique U'; END;")

    def test_unknown_function_rejected(self, daplex):
        with pytest.raises(SchemaError):
            daplex.execute("FOR A NEW p IN person BEGIN LET ghost(p) = 1; END;")


class TestDestroy:
    def test_destroy_unreferenced_entity(self, daplex):
        daplex.execute("FOR A NEW p IN person BEGIN LET name(p) = 'Doomed'; END;")
        result = daplex.execute(
            "FOR EACH p IN person SUCH THAT name(p) = 'Doomed' DESTROY p;"
        )
        assert result.touched == 1
        check = daplex.execute(
            "FOR EACH p IN person SUCH THAT name(p) = 'Doomed' PRINT p;"
        )
        assert check.rows == []

    def test_destroy_cascades_to_subtypes(self, daplex):
        daplex.execute("FOR A NEW p IN person BEGIN LET name(p) = 'Parent'; END;")
        daplex.execute(
            "FOR A NEW s IN student OF person SUCH THAT name(person) = 'Parent' "
            "BEGIN LET major(s) = 'cascade'; END;"
        )
        daplex.execute("FOR EACH p IN person SUCH THAT name(p) = 'Parent' DESTROY p;")
        check = daplex.execute(
            "FOR EACH s IN student SUCH THAT major(s) = 'cascade' PRINT s;"
        )
        assert check.rows == []

    def test_destroy_referenced_entity_aborts(self, daplex):
        # Every loaded faculty member is referenced (advisor / dept values).
        with pytest.raises(ConstraintViolation):
            daplex.execute("FOR EACH f IN faculty DESTROY f;")


class TestCrossInterfaceConsistency:
    """The thesis's whole point: both languages see one database."""

    def test_daplex_update_visible_to_codasyl(self, mlds_small, daplex):
        daplex.execute("FOR A NEW p IN person BEGIN LET name(p) = 'Shared'; LET age(p) = 1; END;")
        codasyl = mlds_small.open_codasyl_session("university")
        codasyl.execute("MOVE 'Shared' TO name IN person")
        found = codasyl.execute("FIND ANY person USING name IN person")
        assert found.ok and found.values["age"] == 1

    def test_codasyl_update_visible_to_daplex(self, mlds_small, daplex):
        codasyl = mlds_small.open_codasyl_session("university")
        codasyl.execute("MOVE 'Other Way' TO name IN person")
        codasyl.execute("MOVE 77 TO age IN person")
        codasyl.execute("STORE person")
        result = daplex.execute(
            "FOR EACH p IN person SUCH THAT name(p) = 'Other Way' PRINT age(p);"
        )
        assert result.rows == [{"age(p)": 77}]

    def test_codasyl_connect_visible_as_function_value(self, mlds_small, daplex):
        codasyl = mlds_small.open_codasyl_session("university")
        codasyl.execute("MOVE 'Wired' TO name IN person")
        codasyl.execute("MOVE 20 TO age IN person")
        codasyl.execute("STORE person")
        codasyl.execute("MOVE 'wiring' TO major IN student")
        codasyl.execute("STORE student")
        codasyl.execute("MOVE 'professor' TO rank IN faculty")
        faculty = codasyl.execute("FIND ANY faculty USING rank IN faculty")
        codasyl.execute("FIND CURRENT student WITHIN person_student")
        codasyl.execute("CONNECT student TO advisor")
        result = daplex.execute(
            "FOR EACH s IN student SUCH THAT major(s) = 'wiring' PRINT advisor(s);"
        )
        assert result.rows == [{"advisor(s)": faculty.dbkey}]


class TestAggregates:
    def test_count_multivalued_entity_function(self, daplex):
        result = daplex.execute("FOR EACH f IN faculty PRINT COUNT(teaching(f));")
        assert result.rows
        assert all(isinstance(r["COUNT(teaching(f))"], int) for r in result.rows)
        assert any(r["COUNT(teaching(f))"] > 0 for r in result.rows)

    def test_total_and_average_scalar_multivalued(self, daplex):
        result = daplex.execute(
            "FOR EACH e IN employee PRINT COUNT(phones(e)), TOTAL(phones(e)), "
            "AVERAGE(phones(e));"
        )
        for row in result.rows:
            count = row["COUNT(phones(e))"]
            if count:
                assert row["TOTAL(phones(e))"] == pytest.approx(
                    row["AVERAGE(phones(e))"] * count
                )

    def test_maximum_minimum(self, daplex):
        result = daplex.execute(
            "FOR EACH e IN employee PRINT MAXIMUM(phones(e)), MINIMUM(phones(e));"
        )
        for row in result.rows:
            if row["MAXIMUM(phones(e))"] is not None:
                assert row["MAXIMUM(phones(e))"] >= row["MINIMUM(phones(e))"]

    def test_count_single_valued_is_zero_or_one(self, daplex):
        result = daplex.execute("FOR EACH s IN student PRINT COUNT(advisor(s));")
        assert all(r["COUNT(advisor(s))"] in (0, 1) for r in result.rows)

    def test_aggregate_over_navigation(self, daplex):
        """COUNT(teaching(advisor(s))): how many courses a student's advisor teaches."""
        result = daplex.execute(
            "FOR EACH s IN student PRINT COUNT(teaching(advisor(s)));"
        )
        assert result.rows
        assert all(
            isinstance(r["COUNT(teaching(advisor(s)))"], int) for r in result.rows
        )

    def test_total_of_entity_values_is_null(self, daplex):
        """TOTAL over non-numeric (entity keys) yields NULL, not a crash."""
        result = daplex.execute("FOR EACH f IN faculty PRINT TOTAL(teaching(f));")
        assert all(r["TOTAL(teaching(f))"] is None for r in result.rows)

    def test_inner_multivalued_rejected(self, daplex):
        with pytest.raises(TranslationError):
            daplex.execute("FOR EACH f IN faculty PRINT COUNT(title(teaching(f)));")


def _students(persons: int, seed: int = 5):
    mlds = MLDS(backend_count=2)
    load_university(mlds, generate_university(persons=persons, courses=6, seed=seed))
    return mlds.open_daplex_session("university")


class TestSetAtATime:
    """A FOR EACH costs one request per distinct (declaring type, step)
    the candidates do not already cover — never one per row."""

    def test_direct_and_inherited_print_is_two_requests(self, daplex):
        # The benchmark's statement: gpa comes with the candidates, name
        # is one batched fetch from the person file.
        result = daplex.execute(
            "FOR EACH s IN student SUCH THAT gpa(s) >= 2.0 AND gpa(s) < 3.9 "
            "PRINT name(s), gpa(s);"
        )
        assert len(result.rows) >= 8
        assert len(result.requests) == 2
        assert result.requests[0].count("FILE = 'student'") == 1
        assert result.requests[1].count("FILE = 'person'") == len(result.rows)

    def test_nested_navigation_is_one_request_per_step_off_the_candidates(self, daplex):
        # advisor(s) is the candidates' own; dept is one fetch from
        # faculty, dname one from department.
        result = daplex.execute("FOR EACH s IN student PRINT dname(dept(advisor(s)));")
        assert len(result.rows) > 2
        assert len(result.requests) == 1 + 2
        filtered = daplex.execute(
            "FOR EACH s IN student SUCH THAT age(s) > 0 PRINT dname(dept(advisor(s)));"
        )
        assert filtered.rows == result.rows
        assert len(filtered.requests) == 1 + 3

    def test_repeated_steps_share_one_fetch(self, daplex):
        result = daplex.execute(
            "FOR EACH s IN student SUCH THAT name(s) != '' OR age(s) > 200 "
            "PRINT name(s), age(s), name(advisor(s)), salary(advisor(s)), "
            "COUNT(enrollment(s));"
        )
        # student (candidates), person for students + person for advisors
        # (different keys: two fetches), employee for advisors' salary.
        assert len(result.requests) == 1 + 3

    @pytest.mark.parametrize(
        "statement",
        [
            "FOR EACH s IN student PRINT gpa(s), major(s);",
            "FOR EACH s IN student PRINT name(s), gpa(s);",
            "FOR EACH s IN student PRINT dname(dept(advisor(s)));",
            "FOR EACH s IN student PRINT COUNT(enrollment(s)), MAXIMUM(salary(advisor(s)));",
        ],
    )
    def test_request_count_does_not_grow_with_rows(self, statement):
        small, large = _students(40).execute(statement), _students(80).execute(statement)
        assert 2 * len(small.rows) <= len(large.rows) + 8 < daplex_engine.FRONTIER_CHUNK
        assert len(small.requests) == len(large.requests)

    def test_frontier_is_sent_in_fixed_chunks(self, daplex, monkeypatch):
        whole = daplex.execute("FOR EACH s IN student PRINT name(s), gpa(s);")
        assert len(whole.requests) == 2
        monkeypatch.setattr(daplex_engine, "FRONTIER_CHUNK", 4)
        chunked = daplex.execute("FOR EACH s IN student PRINT name(s), gpa(s);")
        assert chunked.rows == whole.rows
        assert len(chunked.requests) == 1 + -(-len(whole.rows) // 4)
        assert all(r.count(" OR ") <= 3 for r in chunked.requests)

    def test_later_iteration_sees_an_earlier_iterations_let(self, daplex):
        # Iteration i writes salary(x); iteration j reads it through
        # supervisor(x): the write drops the cached employee records.
        staff = daplex.execute(
            "FOR EACH x IN support_staff PRINT supervisor(x), salary(supervisor(x));"
        )
        supervisors = {row["supervisor(x)"] for row in staff.rows}
        result = daplex.execute(
            "FOR EACH x IN employee BEGIN PRINT salary(x); LET salary(x) = 7.0; END;"
        )
        assert result.touched == len(result.rows) > 0
        after = daplex.execute("FOR EACH x IN support_staff PRINT salary(supervisor(x));")
        assert supervisors and all(
            row["salary(supervisor(x))"] == 7.0 for row in after.rows
        )
        looped = daplex.execute(
            "FOR EACH x IN support_staff BEGIN LET salary(x) = 9.0; "
            "PRINT salary(x), x, supervisor(x), salary(supervisor(x)); END;"
        )
        written = set()
        for row in looped.rows:
            assert row["salary(x)"] == 9.0
            expected = 9.0 if row["supervisor(x)"] in written | {row["x"]} else 7.0
            assert row["salary(supervisor(x))"] == expected
            written.add(row["x"])

    def test_frontier_counters(self):
        from repro.obs import Observability

        obs = Observability()
        mlds = MLDS(backend_count=2, obs=obs)
        load_university(mlds, generate_university(persons=24, courses=8, seed=13))
        session = mlds.open_daplex_session("university")
        result = session.execute("FOR EACH s IN student PRINT name(s), gpa(s);")
        assert obs.metrics.counter_value("kms.daplex.frontier_fetches") == 1
        assert obs.metrics.counter_value("kms.daplex.frontier_keys") == len(result.rows)
        assert obs.metrics.counter_value("qc.compile.inset_groups") >= 1


class TestLinearInCandidates:
    def test_whole_file_for_each_over_5000_entities(self):
        """The candidate dedupe and the per-row fetches used to make this
        quadratic and 10 001 requests (8.7 s); it is 1 request now."""
        import time

        session = _students(5000, seed=3)
        stored = [
            record.get("name")
            for record in session.kc.retrieve(Query.single("FILE", "=", "person"))
        ]
        started = time.perf_counter()
        people = session.execute("FOR EACH p IN person PRINT name(p), age(p);")
        students = session.execute("FOR EACH s IN student PRINT s, name(s), gpa(s);")
        elapsed = time.perf_counter() - started
        assert [row["name(p)"] for row in people.rows] == stored
        assert len(people.rows) == 5000 and len(people.requests) == 1
        chunks = -(-len(students.rows) // daplex_engine.FRONTIER_CHUNK)
        assert len(students.requests) == 1 + chunks
        # Candidate order: first appearance in the (record-multiplying) file.
        student_keys = dict.fromkeys(
            record.get("student")
            for record in session.kc.retrieve(Query.single("FILE", "=", "student"))
        )
        assert [row["s"] for row in students.rows] == list(student_keys)
        assert elapsed < 2.0
