"""Concurrent INSERTs cannot commit a duplicate key.

An INSERT's key probe and the INSERT it guards run as one unit under
the file's X lock, so the probe is a locking read of the live state:
a second session's INSERT of the same key parks on the first one's
lock and, once that commits, finds the row and raises
:class:`~repro.errors.ConstraintViolation`.  Were the probe a lock-free
snapshot read, both sessions would see no row and both would commit.
SQL's primary key is the reproduction; every other language's STORE
probe (CODASYL on the functional and the network target, DAPLEX
``FOR A NEW``) has the same shape and is held to the same rule.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import MLDS
from repro.errors import ConstraintViolation
from repro.university import load_university

from tests.kms.test_network_target import SCHEMA as FIRM_SCHEMA

DDL = "DATABASE bank;\nCREATE TABLE acct (id INT, bal INT, PRIMARY KEY (id));"


@pytest.fixture(params=["serial", "process"])
def system(request):
    mlds = MLDS(backend_count=2, engine=request.param, workers=2)
    mlds.define_relational_database(DDL)
    try:
        yield mlds
    finally:
        mlds.kds.shutdown()


@pytest.fixture()
def university(university_data):
    mlds = MLDS(backend_count=2)
    load_university(mlds, university_data)
    return mlds


def sql(mlds):
    """A SQL session bound to a kernel session of its own."""
    kernel = mlds.create_kernel_session()
    return kernel, mlds.open_sql_session("bank", kernel_session=kernel)


def sessions(mlds, opener, database):
    """Two LIL sessions, each on a kernel session of its own."""
    kernels = [mlds.create_kernel_session() for _ in range(2)]
    lil = [getattr(mlds, opener)(database, kernel_session=k) for k in kernels]
    return kernels, lil


def in_background(action):
    """Run *action* on a thread; the handle's ``outcome`` is its result
    or the exception it raised."""
    handle = threading.Thread(target=lambda: _capture(handle, action))
    handle.outcome = None
    handle.start()
    return handle


def _capture(handle, action):
    try:
        handle.outcome = action()
    except Exception as exc:  # noqa: BLE001 - the outcome under test
        handle.outcome = exc


def parked(mlds, handle):
    """Wait until *handle* waits on a lock (it must not finish first)."""
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        assert handle.is_alive(), f"did not park: {handle.outcome!r}"
        if any(mlds.kds.locks._queue.values()):
            return
        time.sleep(0.01)
    raise AssertionError("never parked on the lock")


def race(mlds, first_kernel, first, second, settle="commit"):
    """*first* writes inside an open transaction; *second* runs beside
    it and parks; the first transaction settles; *second*'s outcome."""
    mlds.kds.session_begin(first_kernel)
    first()
    handle = in_background(second)
    parked(mlds, handle)
    getattr(mlds.kds, f"session_{settle}")(first_kernel)
    handle.join(10)
    assert not handle.is_alive()
    return handle.outcome


def balances(mlds):
    _, reader = sql(mlds)
    rows = reader.execute("SELECT bal FROM acct WHERE id = 5").rows
    return sorted(row["bal"] for row in rows)


def test_explicit_transactions_refuse_the_second_key(system):
    a_kernel, a = sql(system)
    b_kernel, b = sql(system)

    def second():
        system.kds.session_begin(b_kernel)
        return b.execute("INSERT INTO acct VALUES (5, 2)")

    outcome = race(system, a_kernel, lambda: a.execute("INSERT INTO acct VALUES (5, 1)"), second)
    assert isinstance(outcome, ConstraintViolation)
    system.kds.session_abort(b_kernel)
    assert balances(system) == [1]


def test_autocommit_refuses_the_second_key(system):
    a_kernel, a = sql(system)
    _, b = sql(system)
    outcome = race(
        system,
        a_kernel,
        lambda: a.execute("INSERT INTO acct VALUES (5, 1)"),
        lambda: b.execute("INSERT INTO acct VALUES (5, 2)"),
    )
    assert isinstance(outcome, ConstraintViolation)
    assert balances(system) == [1]
    assert system.kds.locks.stats()["held"] == 0  # the refused unit released


def test_the_key_is_free_again_when_the_first_transaction_aborts(system):
    a_kernel, a = sql(system)
    b_kernel, b = sql(system)

    def second():
        system.kds.session_begin(b_kernel)
        return b.execute("INSERT INTO acct VALUES (5, 2)")

    outcome = race(
        system,
        a_kernel,
        lambda: a.execute("INSERT INTO acct VALUES (5, 1)"),
        second,
        settle="abort",
    )
    assert not isinstance(outcome, Exception), outcome
    system.kds.session_commit(b_kernel)
    assert balances(system) == [2]


def test_autocommit_duplicate_leaves_nothing_open(system):
    _, a = sql(system)
    a.execute("INSERT INTO acct VALUES (5, 1)")
    with pytest.raises(ConstraintViolation):
        a.execute("INSERT INTO acct VALUES (5, 2)")
    assert system.kds.locks.stats()["held"] == 0
    assert balances(system) == [1]


def test_codasyl_store_refuses_a_concurrent_duplicate(university):
    (a_kernel, _), (a, b) = sessions(university, "open_codasyl_session", "university")
    for session in (a, b):
        session.execute("MOVE 'Dup Name' TO name IN person")
    outcome = race(
        university, a_kernel, lambda: a.execute("STORE person"), lambda: b.execute("STORE person")
    )
    assert isinstance(outcome, ConstraintViolation)
    assert university.kds.locks.stats()["held"] == 0


def test_codasyl_subtype_store_refuses_a_concurrent_second_extension(university):
    """STORE into a subtype probes that the entity is not in it yet."""
    (a_kernel, _), (a, b) = sessions(university, "open_codasyl_session", "university")
    a.execute("MOVE 'New Person' TO name IN person")
    a.execute("STORE person")
    b.execute("MOVE 'New Person' TO name IN person")
    assert b.execute("FIND ANY person USING name IN person").ok
    for session in (a, b):
        session.execute("MOVE 'm' TO major IN student")
    outcome = race(
        university, a_kernel, lambda: a.execute("STORE student"), lambda: b.execute("STORE student")
    )
    assert isinstance(outcome, ConstraintViolation)


def test_daplex_for_a_new_refuses_a_concurrent_duplicate(university):
    (a_kernel, _), (a, b) = sessions(university, "open_daplex_session", "university")
    text = "FOR A NEW p IN person BEGIN LET name(p) = 'Dup Name'; END;"
    outcome = race(university, a_kernel, lambda: a.execute(text), lambda: b.execute(text))
    assert isinstance(outcome, ConstraintViolation)


def test_network_store_refuses_a_concurrent_duplicate():
    mlds = MLDS(backend_count=2)
    mlds.define_network_database(FIRM_SCHEMA)
    (a_kernel, _), (a, b) = sessions(mlds, "open_codasyl_session", "firm")
    for session in (a, b):
        session.execute("MOVE 'ops' TO dname IN department")
    outcome = race(
        mlds, a_kernel, lambda: a.execute("STORE department"), lambda: b.execute("STORE department")
    )
    assert isinstance(outcome, ConstraintViolation)
