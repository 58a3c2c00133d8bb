"""Property: every snapshot read equals a serial committed-prefix replay.

Hypothesis drives randomized interleavings of overlapping write
transactions (each session owns one file, so open transactions never
block each other at the file-lock granularity) punctuated by snapshot
reads from a session that never writes.  The MVCC contract under test:
a read that pinned ``snapshot_seq = W`` must return **exactly** the
records produced by replaying the committed transactions with seq <= W,
in commit order, on a fresh serial kernel — nothing from uncommitted or
later transactions, nothing missing.

The same script runs on the serial and the process engine: reconstruction
must survive the IPC hop (version chains live in the worker processes).
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.abdl import parse_request
from repro.mbds import KernelDatabaseSystem

SESSION_FILES = ("fa", "fb", "fc")
AUTO_FILE = "auto"
READ_QUERY = (
    "RETRIEVE ((FILE = fa) OR (FILE = fb) OR (FILE = fc) OR (FILE = auto)) (*)"
)


@st.composite
def scripts(draw):
    """An action list: begin/write/commit per session, reads, autocommits.

    Writes only happen inside an open transaction and each session
    writes only its own file, so the single-threaded driver can never
    self-deadlock; interleaving comes from which sessions are open at
    once and the order their commits land.
    """
    sessions = draw(st.integers(2, 3))
    actions = []
    open_sessions: set[int] = set()
    serial = 0
    for _ in range(draw(st.integers(8, 18))):
        kind = draw(st.sampled_from(["begin", "write", "commit", "read", "auto"]))
        if kind == "begin":
            closed = sorted(set(range(sessions)) - open_sessions)
            if not closed:
                continue
            chosen = draw(st.sampled_from(closed))
            open_sessions.add(chosen)
            actions.append(("begin", chosen))
        elif kind in ("write", "commit"):
            if not open_sessions:
                continue
            chosen = draw(st.sampled_from(sorted(open_sessions)))
            if kind == "write":
                value = draw(st.integers(0, 5))
                actions.append(("write", chosen, serial, value))
                serial += 1
            else:
                open_sessions.discard(chosen)
                actions.append(("commit", chosen))
        elif kind == "auto":
            value = draw(st.integers(0, 5))
            actions.append(("auto", serial, value))
            serial += 1
        else:
            actions.append(("read",))
    for chosen in sorted(open_sessions):  # settle every open transaction
        actions.append(("commit", chosen))
    actions.append(("read",))
    return actions


def run_script(actions, engine, workers=None):
    """Execute *actions*; return (committed history, observed reads)."""
    kds = KernelDatabaseSystem(backend_count=2, engine=engine, workers=workers)
    try:
        sessions = {i: kds.create_session(f"s{i}") for i in range(3)}
        reader = kds.create_session("reader")
        auto = kds.create_session("auto")
        pending: dict[int, list[str]] = {}
        committed: list[tuple[int, list[str]]] = []
        reads: list[tuple[int, list]] = []
        for action in actions:
            if action[0] == "begin":
                kds.session_begin(sessions[action[1]])
                pending[action[1]] = []
            elif action[0] == "write":
                _, who, serial, value = action
                text = (
                    f"INSERT (<FILE, {SESSION_FILES[who]}>, "
                    f"<{SESSION_FILES[who]}, r${serial}>, <x, {value}>)"
                )
                kds.execute(parse_request(text), session=sessions[who])
                pending[who].append(text)
            elif action[0] == "commit":
                seq = kds.session_commit(sessions[action[1]])
                committed.append((seq, pending.pop(action[1], [])))
            elif action[0] == "auto":
                _, serial, value = action
                text = (
                    f"INSERT (<FILE, {AUTO_FILE}>, <{AUTO_FILE}, r${serial}>, "
                    f"<x, {value}>)"
                )
                trace = kds.execute(parse_request(text), session=auto)
                committed.append((trace.commit_seq, [text]))
            else:
                trace = kds.execute(parse_request(READ_QUERY), session=reader)
                assert trace.snapshot_seq is not None  # really lock-free
                reads.append((trace.snapshot_seq, fingerprint(trace)))
        return committed, reads
    finally:
        kds.shutdown()


def fingerprint(trace):
    """Order-independent record image (placement order may differ
    between a concurrent run and its commit-order replay)."""
    return sorted((tuple(r.pairs()), r.text) for r in trace.result.records)


def replay_prefix(committed, upto_seq):
    """The read image after replaying commits with seq <= *upto_seq*."""
    kds = KernelDatabaseSystem(backend_count=2)
    try:
        for seq, texts in sorted(committed):
            if seq > upto_seq:
                break
            for text in texts:
                kds.execute(parse_request(text))
        return fingerprint(kds.execute(parse_request(READ_QUERY)))
    finally:
        kds.shutdown()


def check_engine(actions, engine, workers=None):
    committed, reads = run_script(actions, engine, workers)
    seqs = [seq for seq, _ in committed]
    assert len(seqs) == len(set(seqs))  # commit seqs are unique
    for snapshot_seq, image in reads:
        assert image == replay_prefix(committed, snapshot_seq)


@settings(max_examples=12, deadline=None)
@given(scripts())
def test_snapshot_reads_equal_committed_prefix_serial(actions):
    check_engine(actions, "serial")


@settings(max_examples=5, deadline=None)
@given(scripts())
def test_snapshot_reads_equal_committed_prefix_process(actions):
    check_engine(actions, "process", workers=2)


# -- deltas on an indexed file -----------------------------------------------------
#
# One writer session runs units one after another on file ``f``, whose
# attribute ``x`` is indexed, so UPDATE and DELETE overwrite indexed
# records and an abort has to put them back.  A reader pins snapshots
# between the units and reads them again after later units, so a read
# composes the deltas of every commit since its pin.  With one writer,
# placement is the commit-order replay's, so the check is on record
# order too, not only on the record set.

INDEXED_READS = (
    "RETRIEVE ((FILE = f) AND (x = {v})) (*)",
    "RETRIEVE ((FILE = f) AND (x >= {v})) (*)",
    "RETRIEVE (FILE = f) (*)",
)
VALUES = st.integers(0, 5)


@st.composite
def indexed_ops(draw):
    kind = draw(st.sampled_from(["insert", "update", "update", "delete", "read"]))
    if kind == "insert":
        return ("write", f"INSERT (<FILE, f>, <x, {draw(VALUES)}>)")
    if kind == "update":
        return ("write", f"UPDATE ((FILE = f) AND (x = {draw(VALUES)})) (x = {draw(VALUES)})")
    if kind == "delete":
        return ("write", f"DELETE ((FILE = f) AND (x = {draw(VALUES)}))")
    query = draw(st.sampled_from(INDEXED_READS)).format(v=draw(VALUES))
    return ("read", draw(st.integers(0, 9)), query)


@st.composite
def indexed_histories(draw):
    """Units (auto / commit / abort) with pins between them; the first
    two units commit, so the first pin outlives at least two commits."""
    steps = [("pin",)]
    for index in range(draw(st.integers(3, 6))):
        ends = ["auto", "commit"] if index < 2 else ["auto", "commit", "abort"]
        end = draw(st.sampled_from(ends))
        ops = draw(st.lists(indexed_ops(), min_size=1, max_size=1 if end == "auto" else 4))
        if end == "auto":  # one write, read by nobody inside its unit
            ops = [op for op in ops if op[0] == "write"][:1] or [
                ("write", "INSERT (<FILE, f>, <x, 0>)")
            ]
        steps.append(("unit", end, ops))
        if draw(st.booleans()):
            steps.append(("pin",))
    return steps


def indexed_kernel(engine, workers=None):
    kds = KernelDatabaseSystem(backend_count=2, engine=engine, workers=workers)
    kds.controller.add_index("x")
    for value in (0, 1, 2, 3, 4, 5, 2, 4):
        kds.execute(parse_request(f"INSERT (<FILE, f>, <x, {value}>)"))
    return kds


def ordered_image(trace):
    return [(tuple(r.pairs()), r.text) for r in trace.result.records]


def run_indexed(steps, engine, workers=None):
    """Execute *steps*; return (committed units, reads as (seq, query, image))."""
    kds = indexed_kernel(engine, workers)
    try:
        writer = kds.create_session("writer")
        committed: list[tuple[int, list[str]]] = []
        pins: list[int] = []
        reads: list[tuple[int, str, list]] = []

        def read(pin, query):
            seq = pins[pin % len(pins)]
            trace = kds.controller.execute(parse_request(query), snapshot=seq)
            reads.append((seq, query, ordered_image(trace)))

        for step in steps:
            if step[0] == "pin":
                pins.append(kds._open_snapshot()[1])
                continue
            _, end, ops = step
            texts = [op[1] for op in ops if op[0] == "write"]
            if end == "auto":
                trace = kds.execute(parse_request(texts[0]), session=writer)
                committed.append((trace.commit_seq, texts))
                continue
            kds.session_begin(writer)
            for op in ops:
                if op[0] == "write":
                    kds.execute(parse_request(op[1]), session=writer)
                else:
                    read(op[1], op[2])
            if end == "commit":
                committed.append((kds.session_commit(writer), texts))
            else:
                kds.session_abort(writer)
        for pin in range(len(pins)):
            for query in INDEXED_READS:
                read(pin, query.format(v=2))
        return committed, reads
    finally:
        kds.shutdown()


def check_indexed(steps, engine, workers=None):
    committed, reads = run_indexed(steps, engine, workers)
    for seq, query, image in reads:
        replay = indexed_kernel("serial")
        try:
            for unit_seq, texts in sorted(committed):
                if unit_seq > seq:
                    break
                for text in texts:
                    replay.execute(parse_request(text))
            assert image == ordered_image(replay.execute(parse_request(query)))
        finally:
            replay.shutdown()


@settings(max_examples=15, deadline=None)
@given(indexed_histories())
def test_indexed_snapshot_reads_equal_committed_prefix_in_order_serial(steps):
    check_indexed(steps, "serial")


@settings(max_examples=5, deadline=None)
@given(indexed_histories())
def test_indexed_snapshot_reads_equal_committed_prefix_in_order_process(steps):
    check_indexed(steps, "process", workers=2)
