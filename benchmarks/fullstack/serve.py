"""The system under test, in a process of its own.

Builds ``MLDS`` + ``MLDSServer`` through their public constructors the
way ``repro.cli --serve`` does — ``obs=None``, round-robin placement,
snapshot reads on, ``max_inflight=8`` — with the deployment the workload
names (sizes, engine), loads it, serves it, and then obeys one-line JSON
commands on stdin: the generator stays outside and sees only the wire
and this control pipe.

The WAL is ``WalManager(dir, backends, sync=True)`` with no group
window: every acknowledged commit has been fsynced.

stdin reaching EOF means the generator is gone (however it died); the
launcher then kills its whole process group, workers included.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parents[1] / "src")]

import model  # noqa: E402
import trace  # noqa: E402

BACKENDS = 4
BATCH = 10_000


def _emit(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def _relational_records(table: str, columns: tuple, rows):
    """AB(relational) records as ABRelationalMapping.build_record lays
    them out — ``(FILE, table)``, ``(table, dbkey)``, one keyword a column."""
    from repro.abdm.record import Record

    for row in rows:
        yield Record.from_pairs(
            [("FILE", table), (table, f"{table}#{row[0]}"), *zip(columns, row)]
        )


def _renamed(records, prefix: str):
    """Move *records* to files of their own: the stream's file names are
    the University database's, and it must not grow that database."""
    for record in records:
        record.set("FILE", prefix + record.get("FILE"))
        yield record


def _counted(records, tally: list):
    """Pass *records* through, adding their user bytes to ``tally[0]``."""
    for record in records:
        tally[0] += model.value_bytes([value for _, value in record.pairs()][2:])
        yield record


def load(mlds, sizes: model.Sizes, seed: int) -> dict:
    """Populate every database of the deployment; returns load figures."""
    from repro.ingest import bulk_load, stream_university_records
    from repro.university import generate_university, load_university

    user_bytes = [0]
    reports = []
    # The two navigational databases load through their own interfaces,
    # each as one kernel transaction (one commit fsync, not one per row),
    # and first: a legacy transaction captures a pre-image of the whole
    # farm at begin, which should not be the bulk-loaded tables.
    data = generate_university(persons=sizes.persons, courses=sizes.courses, seed=seed)
    with mlds.kds.transaction():
        load_university(mlds, data)
    user_bytes[0] += sum(
        model.value_bytes(list(vars(spec).values()))
        for spec in (*data.departments, *data.persons, *data.courses)
    )
    mlds.define_hierarchical_database(model.SCHOOL_DDL)
    dli = mlds.open_dli_session("school")
    with mlds.kds.transaction():
        for dname, budget, courses in model.school_tree(sizes.school_depts):
            dli.run(f"FLD dname = '{dname}'; FLD budget = {budget}")
            dli.execute("ISRT dept")
            user_bytes[0] += model.value_bytes((dname, budget))
            for title, credits, offerings in courses:
                dli.run(f"FLD title = '{title}'; FLD credits = {credits}")
                dli.execute(f"ISRT dept(dname = '{dname}') course")
                user_bytes[0] += model.value_bytes((title, credits))
                for semester, instructor in offerings:
                    dli.run(f"FLD semester = '{semester}'; FLD instructor = '{instructor}'")
                    dli.execute(
                        f"ISRT dept(dname = '{dname}') course(title = '{title}') offering"
                    )
                    user_bytes[0] += model.value_bytes((semester, instructor))
    mlds.define_relational_database(model.BANK_DDL)
    for table, columns, rows in (
        ("acct", ("id", "branch", "bal", "note"), model.acct_rows(seed, sizes.acct)),
        ("led", ("lid", "lbranch", "lbal", "lnote"), model.led_rows(seed, sizes.led)),
        ("br", ("branch", "region"), model.br_rows()),
    ):
        records = _counted(_relational_records(table, columns, rows), user_bytes)
        reports.append(bulk_load(mlds.kds, records, batch_size=BATCH))
    if sizes.stream:
        stream = _renamed(stream_university_records(sizes.stream, seed), "ingest_")
        records = _counted(stream, user_bytes)
        reports.append(bulk_load(mlds.kds, records, batch_size=BATCH))
    mlds.kds.controller.add_index(*model.INDEXED)

    records = sum(r.records for r in reports)
    wall_s = sum(r.wall_ms for r in reports) / 1000.0
    return {
        "user_bytes": user_bytes[0],
        "bulk_records": records,
        "bulk_wall_s": wall_s,
        "generate_s": sum(r.generate_ms for r in reports) / 1000.0,
        "submit_s": sum(r.submit_ms for r in reports) / 1000.0,
    }


def build(args) -> tuple:
    """The MLDS of this deployment, fresh or recovered, and its report."""
    from repro.core.mlds import MLDS
    from repro.wal.log import WalManager

    workload = model.WORKLOADS[args.workload]
    sizes = workload.sizes.shrunk(args.shrink)
    obs = None
    if args.traced:
        from repro.obs import Observability

        # Counters only: the registry the public metrics op exposes.
        obs = Observability(tracing=False)
    engine = dict(engine="process", workers=2) if workload.engine == "process" else {}
    started = time.perf_counter()
    if args.recover:
        from repro.wal.recovery import recover_mlds

        mlds = recover_mlds(args.wal_dir, attach_wal=False, obs=obs, **engine)
        mlds.attach_wal(WalManager(args.wal_dir, BACKENDS, sync=True))
        mlds.kds.controller.add_index(*model.INDEXED)
        report = {}
    else:
        mlds = MLDS(
            backend_count=BACKENDS,
            wal=WalManager(args.wal_dir, BACKENDS, sync=True),
            obs=obs,
            **engine,
        )
        report = load(mlds, sizes, args.seed)
    report["build_s"] = time.perf_counter() - started
    report["record_count"] = mlds.kds.record_count()
    return mlds, report


def control(mlds, server, loop: asyncio.AbstractEventLoop) -> None:
    """Obey the generator's commands until it says exit or disappears."""
    from repro.wal.recovery import checkpoint_mlds

    for line in sys.stdin:
        command = json.loads(line)
        name = command["cmd"]
        reply: dict = {"cmd": name}
        if name == "checkpoint":
            started = time.perf_counter()
            path = checkpoint_mlds(mlds)
            reply["seconds"] = time.perf_counter() - started
            reply["snapshot_bytes"] = path.stat().st_size
        elif name == "record_count":
            reply["record_count"] = mlds.kds.record_count()
        elif name == "trace":
            if command["on"]:
                trace.RECORDER.clear()
            trace.RECORDER.on = bool(command["on"])
        elif name == "spans":
            reply["summary"] = trace.RECORDER.summary()
            if command.get("path"):
                reply["written"] = trace.RECORDER.dump(command["path"], command["process"])
        elif name == "exit":
            _emit(reply)
            asyncio.run_coroutine_threadsafe(server.shutdown(), loop).result(10)
            loop.call_soon_threadsafe(loop.stop)
            return
        _emit(reply)
    # EOF without an exit: the generator died.  Take the workers along.
    os.killpg(0, signal.SIGKILL)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(model.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--wal-dir", required=True)
    parser.add_argument("--shrink", type=int, default=1)
    parser.add_argument("--cores", help="comma-separated cores to run on")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--recover", action="store_true")
    args = parser.parse_args()

    if args.cores:
        os.sched_setaffinity(0, {int(core) for core in args.cores.split(",")})
    if args.traced:
        trace.install_server()
        # A restart is read off spans (persistence.load, wal.recovery.replay);
        # a fresh load is not, and recording it would only slow it down.
        trace.RECORDER.on = args.recover
    from repro.server import Authenticator, Credential, MLDSServer

    mlds, report = build(args)
    authenticator = Authenticator()
    # The benchmark must never measure its own rate limit or quota.
    authenticator.register(
        Credential(token=model.TOKEN, user="bench", rate=0, max_requests=None, max_sessions=8)
    )
    server = MLDSServer(mlds, authenticator, host="127.0.0.1", port=0, max_inflight=8)
    loop = asyncio.new_event_loop()
    asyncio.set_event_loop(loop)
    loop.run_until_complete(server.start())
    trace.RECORDER.on = False
    report.update(event="ready", port=server.port, pid=os.getpid())
    if args.traced:
        report["summary"] = trace.RECORDER.summary()
    _emit(report)
    threading.Thread(
        target=control, args=(mlds, server, loop), daemon=True, name="control"
    ).start()
    try:
        loop.run_forever()
    finally:
        mlds.kds.shutdown()
        loop.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
