"""Ablation: the request buffer (RB) earns its place.

DESIGN.md (after thesis III.A): a single FIND can translate to several
ABDL requests, and the RB keeps the auxiliary-retrieve results so that
FIND NEXT / PRIOR / DUPLICATE walk cached records instead of re-querying
the kernel.  The ablation compares iterating one set occurrence

* **with RB** — the real engine: one members query, then buffered steps;
* **without RB** — re-running the members retrieval for every step, the
  behaviour a bufferless translation would exhibit.

Reported: ABDL request counts and simulated kernel time per full
iteration of a department's faculty set.
"""

from __future__ import annotations

import pytest

from repro import MLDS
from repro.university import generate_university, load_university

from .conftest import print_series


def build():
    mlds = MLDS(backend_count=4)
    load_university(mlds, generate_university(persons=80, courses=20, seed=17))
    return mlds


def iterate_with_buffers(session) -> tuple[int, int]:
    session.execute("MOVE 'computer_science' TO dname IN department")
    session.execute("FIND ANY department USING dname IN department")
    before = session.kc.mark()
    members = 0
    result = session.execute("FIND FIRST faculty WITHIN dept")
    while result.ok:
        members += 1
        result = session.execute("FIND NEXT faculty WITHIN dept")
    return members, session.kc.mark() - before


def iterate_without_buffers(session) -> tuple[int, int]:
    """The bufferless model: each step re-fetches the whole occurrence."""
    session.execute("MOVE 'computer_science' TO dname IN department")
    dept = session.execute("FIND ANY department USING dname IN department")
    adapter = session.engine.adapter
    before = session.kc.mark()
    # First fetch to learn the membership count, then one re-fetch per
    # step, which is what FIND NEXT would cost without an RB.
    members = len(adapter.member_records("dept", dept.dbkey))
    for _ in range(members):
        adapter.member_records("dept", dept.dbkey)
    return members, session.kc.mark() - before


@pytest.fixture(scope="module")
def buffer_series():
    mlds = build()
    with_rb = iterate_with_buffers(mlds.open_codasyl_session("university"))
    mlds.kds.reset_clock()
    session = mlds.open_codasyl_session("university")
    iterate_with_buffers(session)
    with_ms = mlds.kds.clock.total_ms

    mlds.kds.reset_clock()
    without_rb = iterate_without_buffers(mlds.open_codasyl_session("university"))
    without_ms = mlds.kds.clock.total_ms

    rows = [
        ("with request buffer", with_rb[0], with_rb[1], round(with_ms, 1)),
        ("without (re-fetch per step)", without_rb[0], without_rb[1], round(without_ms, 1)),
    ]
    print_series(
        "ABLATION  request buffer: iterate one dept set occurrence",
        ["mode", "members", "ABDL requests", "sim kernel ms"],
        rows,
    )
    return {row[0]: row for row in rows}


class TestBufferValue:
    def test_buffered_iteration_is_constant_requests(self, buffer_series):
        mode, members, requests, _ = buffer_series["with request buffer"]
        assert requests <= 2  # the members query (1-2 ARRs), never per step

    def test_bufferless_iteration_is_linear(self, buffer_series):
        _, members, requests, _ = buffer_series["without (re-fetch per step)"]
        assert requests >= members

    def test_buffer_saves_kernel_time(self, buffer_series):
        with_ms = buffer_series["with request buffer"][3]
        without_ms = buffer_series["without (re-fetch per step)"][3]
        assert without_ms > with_ms * 2


class TestBufferLatency:
    def test_buffered(self, benchmark, buffer_series):
        mlds = build()
        session = mlds.open_codasyl_session("university")
        benchmark(lambda: iterate_with_buffers(session))
        benchmark.extra_info["mode"] = "with RB"

    def test_bufferless(self, benchmark, buffer_series):
        mlds = build()
        session = mlds.open_codasyl_session("university")
        benchmark(lambda: iterate_without_buffers(session))
        benchmark.extra_info["mode"] = "without RB"
