"""Property: running a statement through the memo changes nothing.

Two identical systems receive the same script of statement texts in all
four languages — reads *and* writes, with repeats, so most texts arrive
more than once.  One runs each text with ``session.run(text)`` (the
served path, through the statement memo); the other parses it afresh
every time and executes the statements one by one.  After every text the
two must agree on results, on the ABDL each statement logged, and on the
error if there was one; at the end on stored records and simulated time.
Then the memo's own contents are checked: every text that parsed is held
as exactly what a fresh parse gives (no engine wrote into a shared AST),
and no text that failed to parse is held at all.

Literals come from the value-pitfall catalog (equal values of different
types, the signed zeros, quoting, non-ASCII text).  NaN has no literal
spelling in any of the four lexers; the nearest thing a user can type is
an exponent that overflows to infinity, so that is drawn instead.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro import MLDS, errors
from repro.functional import daplex_dml
from repro.hierarchical import dli
from repro.network import dml
from repro.qc import runtime as qc_runtime
from repro.relational import sql
from repro.university import generate_university, load_university

REL_DDL = "DATABASE reg; CREATE TABLE t (id INT, n FLOAT, s CHAR(20), PRIMARY KEY (id));"
HIE_DDL = "DATABASE archive; SEGMENT box ROOT (label CHAR(20), weight FLOAT);"

PARSERS = {
    "sql": sql.parse_script,
    "daplex": daplex_dml.parse_program,
    "codasyl": dml.parse_transaction,
    "dli": dli.parse_calls,
}

literals = st.sampled_from(
    ["3", "3.0", "1", "1.0", "0", "0.0", "-0.0", "2.5", "1e999", "-1e999",
     "'3'", "''", "'it''s'", "'Ünï©ødé ✓'", "'-- not a comment'"]
)

#: language -> statement templates; ``{a}`` / ``{b}`` take literals.  In
#: each list the first writes, the next two read, the last never parses.
TEMPLATES = {
    "sql": [
        "INSERT INTO t VALUES ({k}, {a}, {b})",
        "SELECT * FROM t WHERE n = {a}",
        "SELECT id, s FROM t WHERE s = {a} OR n >= {b}",
        "SELECT FROM t WHERE n = {a}",
    ],
    "daplex": [
        "FOR A NEW d IN department BEGIN LET dname(d) = {a}; LET budget(d) = {b}; END;",
        "FOR EACH d IN department SUCH THAT budget(d) = {a} PRINT dname(d);",
        "FOR EACH d IN department SUCH THAT dname(d) = {a} OR budget(d) >= {b} "
        "PRINT dname(d), budget(d);",
        "FOR EACH d IN department SUCH THAT budget(d) = {a} PRINT;",
    ],
    "codasyl": [
        "MOVE {a} TO dname IN department; MOVE {b} TO budget IN department; "
        "STORE department",
        "MOVE {a} TO budget IN department; "
        "FIND ANY department USING budget IN department; GET",
        "MOVE {a} TO dname IN department\nFIND ANY department USING dname IN department",
        "MOVE {a} TO budget IN department; FIND ANY USING budget",
    ],
    "dli": [
        "FLD label = {a}; FLD weight = {b}; ISRT box",
        "GU box (weight = {a})",
        "GU box (label = {a}); GN box",
        "GU box (weight {a})",
    ],
}


@st.composite
def scripts(draw):
    """(language, text) pairs drawn from a small pool, so texts repeat."""
    pool = []
    for _ in range(draw(st.integers(3, 6))):
        language = draw(st.sampled_from(sorted(TEMPLATES)))
        template = draw(st.sampled_from(TEMPLATES[language]))
        pool.append(
            (
                language,
                template.format(k=draw(st.integers(0, 3)), a=draw(literals), b=draw(literals)),
            )
        )
    return draw(st.lists(st.sampled_from(pool), min_size=4, max_size=12))


def build():
    mlds = MLDS(backend_count=2)
    load_university(mlds, generate_university(persons=6, courses=2, seed=5))
    mlds.define_relational_database(REL_DDL)
    mlds.define_hierarchical_database(HIE_DDL)
    sessions = {
        "sql": mlds.open_sql_session("reg"),
        "daplex": mlds.open_daplex_session("university"),
        "codasyl": mlds.open_codasyl_session("university"),
        "dli": mlds.open_dli_session("archive"),
    }
    return mlds, sessions


def outcome(run):
    """What a user can observe of one text: every field of every result,
    the logged ABDL among them, by ``repr`` (it tells ``3`` from ``3.0``
    and ``0.0`` from ``-0.0``, which ``==`` does not), or the error."""
    try:
        return [repr(vars(result)) for result in run()]
    except errors.MLDSError as exc:
        return (type(exc).__name__, str(exc))


def fresh(session, language, text):
    return [session.execute(statement) for statement in PARSERS[language](text)]


def parses(language, text):
    try:
        PARSERS[language](text)
    except (errors.ParseError, errors.LexError):
        return False
    return True


@settings(max_examples=60, deadline=None)
@given(scripts())
def test_memoised_run_equals_fresh_parse(script):
    qc_runtime.reset()
    memo_mlds, memo_sessions = build()
    fresh_mlds, fresh_sessions = build()
    try:
        for language, text in script:
            via_memo = outcome(lambda: memo_sessions[language].run(text))
            via_parse = outcome(lambda: fresh(fresh_sessions[language], language, text))
            assert via_memo == via_parse, (language, text)
        assert memo_mlds.kds.clock.as_dict() == fresh_mlds.kds.clock.as_dict()
        assert [b.store.snapshot() for b in memo_mlds.kds.controller.backends] == [
            b.store.snapshot() for b in fresh_mlds.kds.controller.backends
        ]
    finally:
        memo_mlds.kds.shutdown()
        fresh_mlds.kds.shutdown()

    good = {entry for entry in script if parses(*entry)}
    arrivals_good = sum(entry in good for entry in script)
    snap = qc_runtime.memo_snapshot()
    assert snap["size"] == len(good)
    assert snap["hits"] == arrivals_good - len(good)
    assert snap["misses"] == len(script) - snap["hits"]

    def must_not_parse(text):
        raise AssertionError(f"memo miss for a text already run: {text!r}")

    for language, text in good:
        held = qc_runtime.parsed(language, text, must_not_parse)
        assert repr(held) == repr(tuple(PARSERS[language](text)))
    qc_runtime.reset()
