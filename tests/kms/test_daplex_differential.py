"""Differential test: the set-at-a-time DAPLEX engine against the
tuple-at-a-time oracle it replaced (``daplex_oracle.py``).

Two kernels are loaded with the same random University population and
damaged the same way — null function values, a student whose ``person``
record is gone, advisors and departments that are NULL or dangling — and
the same random statements run through both evaluators.  Every
statement must produce the same rows in the same order (or the same
error), and the two databases must be identical afterwards.

The statement generator covers what the rewrite touched: direct,
inherited and nested paths; disjunctive SUCH THAT (the whole condition
deferred); multi-valued functions; every aggregate; paths that cannot be
evaluated (a scalar dereferenced, an unknown function); ``LET`` on a
function the deferred condition reads; ``DESTROY`` inside the loop; and
``FOR A NEW … OF … SUCH THAT``.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import MLDS
from repro.abdl import parse_request
from repro.errors import MLDSError
from repro.university import generate_university, load_university

from tests.kms.daplex_oracle import TupleAtATimeEngine

#: Loop type -> (single-valued paths, every path), innermost type first.
#: Paths past the first line of each entry are inherited or nested; the
#: last few cannot be evaluated and must fail the same way in both.
PATHS = {
    "person": ["name({v})", "age({v})", "{v}", "ghost({v})"],
    "employee": ["salary({v})", "name({v})", "age({v})", "phones({v})"],
    "student": [
        "major({v})", "gpa({v})", "advisor({v})",
        "name({v})", "age({v})",
        "name(advisor({v}))", "rank(advisor({v}))", "salary(advisor({v}))",
        "dname(dept(advisor({v})))", "budget(dept(advisor({v})))",
        "enrollment({v})", "title(enrollment({v}))", "dname(major({v}))",
    ],
    "faculty": [
        "rank({v})", "dept({v})",
        "salary({v})", "name({v})", "age({v})",
        "dname(dept({v}))", "budget(dept({v}))",
        "teaching({v})", "phones({v})", "credits(teaching({v}))",
    ],
    "support_staff": [
        "skill({v})", "supervisor({v})",
        "salary({v})", "name({v})",
        "name(supervisor({v}))", "salary(supervisor({v}))",
    ],
    "course": [
        "title({v})", "credits({v})", "semester({v})",
        "taught_by({v})", "name(taught_by({v}))",
    ],
    "department": ["dname({v})", "budget({v})"],
}

#: Loop type -> (function, a value to assign) a LET may write: direct and
#: inherited, scalar and entity-valued, a NULL among them.
LETS = {
    "person": [("age", "41"), ("name", "'Renamed'")],
    "employee": [("salary", "1.5"), ("age", "NULL")],
    "student": [
        ("gpa", "3.95"), ("major", "'physics'"), ("age", "19"),
        ("advisor", "NULL"), ("advisor", "'person$2'"),
    ],
    "faculty": [("rank", "'professor'"), ("salary", "99999.0"), ("dept", "'department$1'")],
    "support_staff": [("skill", "'admin'"), ("supervisor", "'person$1'")],
    "course": [("credits", "5")],
    "department": [("budget", "1")],
}

LITERALS = [
    "NULL", "0", "3", "30", "45", "3.0", "3.5", "2.25", "50000.0", "100000",
    "'computer science'", "'physics'", "'professor'", "'associate'", "'fall'",
    "'Computer Science'", "'person$1'", "'person$3'", "'department$1'", "''",
]
OPERATORS = ["=", "!=", "<", "<=", ">", ">="]
AGGREGATES = ["COUNT", "TOTAL", "AVERAGE", "MAXIMUM", "MINIMUM"]


@st.composite
def comparisons(draw, type_name: str, variable: str) -> str:
    path = draw(st.sampled_from(PATHS[type_name])).format(v=variable)
    return f"{path} {draw(st.sampled_from(OPERATORS))} {draw(st.sampled_from(LITERALS))}"


@st.composite
def conditions(draw, type_name: str, variable: str) -> str:
    parts = [draw(comparisons(type_name, variable))]
    for _ in range(draw(st.integers(0, 2))):
        parts.append(draw(st.sampled_from(["AND", "OR"])))
        parts.append(draw(comparisons(type_name, variable)))
    return " ".join(parts)


@st.composite
def print_actions(draw, type_name: str) -> str:
    expressions = []
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(PATHS[type_name])).format(v="x")
        if draw(st.integers(0, 3)) == 0 and path != "x":
            path = f"{draw(st.sampled_from(AGGREGATES))}({path})"
        expressions.append(path)
    return f"PRINT {', '.join(expressions)};"


@st.composite
def for_each(draw) -> str:
    type_name = draw(st.sampled_from(sorted(PATHS)))
    actions = [draw(print_actions(type_name))]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["print", "let", "let", "destroy"]))
        if kind == "print":
            actions.append(draw(print_actions(type_name)))
        elif kind == "let":
            function, value = draw(st.sampled_from(LETS[type_name]))
            actions.append(f"LET {function}(x) = {value};")
        else:
            actions.append("DESTROY x;")
    actions = draw(st.permutations(actions))
    condition = ""
    if draw(st.integers(0, 4)):
        condition = f" SUCH THAT {draw(conditions(type_name, 'x'))}"
    return f"FOR EACH x IN {type_name}{condition} BEGIN {' '.join(actions)} END;"


@st.composite
def for_new(draw) -> str:
    if draw(st.booleans()):
        number = draw(st.integers(0, 3))
        return (
            f"FOR A NEW x IN person BEGIN LET name(x) = 'New {number}'; "
            f"LET age(x) = {30 + number}; END;"
        )
    subtype, supertype, lets = draw(
        st.sampled_from(
            [
                ("student", "person", "LET major(x) = 'physics'; LET gpa(x) = 3.25;"),
                ("employee", "person", "LET salary(x) = 1000.0;"),
                ("faculty", "employee", "LET rank(x) = 'instructor';"),
            ]
        )
    )
    condition = draw(conditions(supertype, supertype))
    return f"FOR A NEW x IN {subtype} OF {supertype} SUCH THAT {condition} BEGIN {lets} END;"


statements = st.lists(st.one_of(for_each(), for_each(), for_new()), min_size=1, max_size=4)

#: Damage done to both kernels before the statements run, as ABDL over
#: person numbers the example picks: (description, request template).
DAMAGE = [
    "UPDATE ((FILE = 'person') AND (person = 'person${n}')) (age = NULL)",
    "UPDATE ((FILE = 'student') AND (student = 'person${n}')) (gpa = NULL)",
    "UPDATE ((FILE = 'student') AND (student = 'person${n}')) (advisor = NULL)",
    "UPDATE ((FILE = 'student') AND (student = 'person${n}')) (advisor = 'person$999')",
    "UPDATE ((FILE = 'faculty') AND (faculty = 'person${n}')) (dept = NULL)",
    "UPDATE ((FILE = 'faculty') AND (faculty = 'person${n}')) (teaching = NULL)",
    # A subtype entity whose supertype record is missing.
    "DELETE ((FILE = 'person') AND (person = 'person${n}'))",
    "DELETE ((FILE = 'employee') AND (employee = 'person${n}'))",
]

damage = st.lists(
    st.tuples(st.sampled_from(DAMAGE), st.integers(1, 12)), max_size=6
)


def _system(seed: int, persons: int, harm, oracle: bool):
    mlds = MLDS(backend_count=2)
    load_university(
        mlds, generate_university(persons=persons, courses=5, departments=2, seed=seed)
    )
    for template, number in harm:
        mlds.kds.execute(parse_request(template.format(n=number)))
    session = mlds.open_daplex_session("university")
    if oracle:
        session.engine = TupleAtATimeEngine(session.schema, session.kc)
    return mlds, session


def _outcome(session, statement: str):
    try:
        result = session.execute(statement)
    except MLDSError as error:
        return type(error).__name__
    return result.rows, result.touched


def _database(mlds) -> list:
    return sorted(repr(record.pairs()) for record in mlds.kds.controller.all_records())


@settings(
    max_examples=250,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(st.integers(0, 10_000), st.integers(6, 14), damage, statements)
def test_same_rows_and_same_database_as_the_tuple_at_a_time_oracle(
    seed, persons, harm, program
):
    mlds, engine = _system(seed, persons, harm, oracle=False)
    reference_mlds, reference = _system(seed, persons, harm, oracle=True)
    for statement in program:
        assert _outcome(engine, statement) == _outcome(reference, statement), statement
    assert _database(mlds) == _database(reference_mlds)
