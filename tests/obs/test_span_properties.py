"""Property tests: traced span trees are well-formed under either engine.

For any random mutating/retrieving workload, under SerialEngine and
ProcessPoolEngine alike:

* every span in every captured trace is closed;
* every child's lifetime nests within its parent's (within a small
  epsilon — parent and child stop different perf_counter calls);
* the sum of ``kds.execute`` simulated times over the traces equals the
  kernel clock's total, bit-for-bit (same floats, same accumulation
  order — the spans *copy* the engine's numbers, never recompute them).
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro import MLDS
from repro.obs import Observability

DDL = """
DATABASE registrar;
CREATE TABLE student (sid INT, sname CHAR(30), major CHAR(20), PRIMARY KEY (sid));
"""

#: Parent/child wall-clock nesting slack, in milliseconds.  finish()
#: timestamps parent and child with different perf_counter calls, so a
#: child can appear (immeasurably) longer than an instant parent.
EPSILON_MS = 0.5


@st.composite
def workloads(draw):
    """A statement mix: inserts plus point/major SELECTs and UPDATEs."""
    statements = []
    sid = 0
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["insert", "select", "update"]))
        if kind == "insert" or sid == 0:
            major = draw(st.sampled_from(["cs", "math"]))
            statements.append(
                f"INSERT INTO student VALUES ({sid}, 'u{sid}', '{major}')"
            )
            sid += 1
        elif kind == "select":
            target = draw(st.integers(0, sid - 1))
            statements.append(f"SELECT * FROM student WHERE sid = {target}")
        else:
            target = draw(st.integers(0, sid - 1))
            statements.append(
                f"UPDATE student SET major = 'ee' WHERE sid = {target}"
            )
    return statements


def run_workload(engine: str, statements: list[str]):
    obs = Observability(tracing=True, trace_capacity=256)
    mlds = MLDS(backend_count=3, engine=engine, obs=obs)
    mlds.define_relational_database(DDL)
    session = mlds.open_sql_session("registrar")
    for statement in statements:
        session.execute(statement)
    try:
        return list(obs.tracer.traces), mlds.kds.clock.total_ms
    finally:
        mlds.kds.shutdown()


@settings(max_examples=25, deadline=None)
@given(statements=workloads(), engine=st.sampled_from(["serial", "process"]))
def test_every_span_is_closed(statements, engine):
    traces, _ = run_workload(engine, statements)
    assert traces
    for root in traces:
        for span in root.walk():
            assert span.closed, f"{span.name} left open"


@settings(max_examples=25, deadline=None)
@given(statements=workloads(), engine=st.sampled_from(["serial", "process"]))
def test_children_nest_within_parents(statements, engine):
    traces, _ = run_workload(engine, statements)
    for root in traces:
        for span in root.walk():
            for child in span.children:
                assert child.parent is span
                assert child.wall_ms <= span.wall_ms + EPSILON_MS, (
                    f"{child.name} ({child.wall_ms}ms) outlives "
                    f"{span.name} ({span.wall_ms}ms)"
                )


@settings(max_examples=25, deadline=None)
@given(statements=workloads(), engine=st.sampled_from(["serial", "process"]))
def test_simulated_totals_match_engine_report(statements, engine):
    traces, clock_total = run_workload(engine, statements)
    total = 0.0
    for root in traces:
        for span in root.walk():
            if span.name == "kds.execute":
                total += span.simulated_ms
    assert total == clock_total  # bit-identical — copied, not recomputed


@settings(max_examples=10, deadline=None)
@given(statements=workloads())
def test_engines_trace_the_same_shape(statements):
    """Serial and process runs produce the same span-name multisets."""
    serial_traces, serial_total = run_workload("serial", statements)
    process_traces, process_total = run_workload("process", statements)
    assert serial_total == process_total

    def shape(traces):
        return [sorted(span.name for span in root.walk()) for root in traces]

    assert shape(serial_traces) == shape(process_traces)
