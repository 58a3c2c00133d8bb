"""E2E: cross-model access overhead — AB(functional) vs native AB(network).

The thesis's headline behaviour is that a CODASYL-DML user can work
against a functional database as if it were a network one.  This bench
runs the same logical workload — locate an owner, iterate its members,
read each one — through both targets and compares:

* the real per-transaction cost (pytest-benchmark),
* the number of ABDL requests issued,
* the simulated kernel time charged.

The functional target pays for the mapping's indirections (owner-carried
sets need an extra auxiliary retrieve; multi-valued records need
deduplication), so it issues at least as many requests; the *shape* to
reproduce is a modest constant-factor overhead, not a blow-up.
"""

from __future__ import annotations

import pytest

from repro import MLDS
from repro.university import generate_university, load_university

from .conftest import print_series

#: A native network rendition of the University core, loaded with the
#: same population so both targets answer the same queries.
NETWORK_DDL = """
SCHEMA NAME IS university_native;

RECORD NAME IS department;
    dname TYPE IS CHARACTER 20;
    budget TYPE IS INTEGER;

RECORD NAME IS faculty;
    fname TYPE IS CHARACTER 30;
    rank TYPE IS CHARACTER 10;

SET NAME IS system_department;
    OWNER IS SYSTEM;
    MEMBER IS department;
    INSERTION IS AUTOMATIC;
    RETENTION IS FIXED;
    SET SELECTION IS BY APPLICATION;

SET NAME IS dept;
    OWNER IS department;
    MEMBER IS faculty;
    INSERTION IS MANUAL;
    RETENTION IS OPTIONAL;
    SET SELECTION IS BY APPLICATION;
"""


def build_functional():
    mlds = MLDS(backend_count=4)
    data = generate_university(persons=60, courses=20, departments=4, seed=31)
    load_university(mlds, data)
    return mlds


def build_network():
    mlds = MLDS(backend_count=4)
    mlds.define_network_database(NETWORK_DDL)
    data = generate_university(persons=60, courses=20, departments=4, seed=31)
    loader = mlds.network_loader("university_native")
    dept_keys = [
        loader.create("department", dname=d.dname, budget=d.budget)
        for d in data.departments
    ]
    for person in data.persons:
        if person.is_faculty:
            loader.create(
                "faculty",
                fname=person.name,
                rank=person.rank,
                memberships={"dept": dept_keys[person.dept_index]},
            )
    return mlds


def department_scan(session, database_kind):
    """Locate the CS department and read every faculty member in it."""
    session.execute("MOVE 'computer_science' TO dname IN department")
    result = session.execute("FIND ANY department USING dname IN department")
    assert result.ok
    count = 0
    result = session.execute("FIND FIRST faculty WITHIN dept")
    while result.ok:
        session.execute("GET faculty")
        count += 1
        result = session.execute("FIND NEXT faculty WITHIN dept")
    return count


@pytest.fixture(scope="module")
def overhead_series():
    rows = []
    measurements = {}
    for kind, builder, database in [
        ("AB(network) native", build_network, "university_native"),
        ("AB(functional) transformed", build_functional, "university"),
    ]:
        mlds = builder()
        session = mlds.open_codasyl_session(database)
        mlds.kds.reset_clock()
        members = department_scan(session, kind)
        rows.append(
            (
                kind,
                members,
                session.kc.mark(),
                round(mlds.kds.clock.total_ms, 1),
            )
        )
        measurements[kind] = (session.kc.mark(), mlds.kds.clock.total_ms)
    print_series(
        "E2E  department scan: native network vs transformed functional",
        ["target", "members", "ABDL requests", "sim kernel ms"],
        rows,
    )
    return measurements


class TestOverheadShape:
    def test_same_answer_both_targets(self, overhead_series):
        assert len(overhead_series) == 2

    def test_functional_overhead_is_bounded(self, overhead_series):
        net_requests, net_ms = overhead_series["AB(network) native"]
        fun_requests, fun_ms = overhead_series["AB(functional) transformed"]
        assert fun_requests >= net_requests  # the mapping can only add work
        assert fun_requests <= net_requests * 3  # ...but modestly
        assert fun_ms <= net_ms * 5


class TestTransactionLatency:
    def test_native_network_scan(self, benchmark, overhead_series):
        mlds = build_network()
        session = mlds.open_codasyl_session("university_native")
        benchmark(lambda: department_scan(session, "net"))
        benchmark.extra_info["target"] = "AB(network) native"

    def test_transformed_functional_scan(self, benchmark, overhead_series):
        mlds = build_functional()
        session = mlds.open_codasyl_session("university")
        benchmark(lambda: department_scan(session, "fun"))
        benchmark.extra_info["target"] = "AB(functional) transformed"
