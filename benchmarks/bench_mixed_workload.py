"""MIXED: snapshot reads vs locking reads under a concurrent read/write mix.

The MVCC claim this benchmark gates: RETRIEVEs executed at a pinned
snapshot acquire **no S locks at all**, so readers never queue behind a
write transaction's X lock — while with ``snapshot_reads`` off every
read parks until the writer commits.  N concurrent kernel sessions run
the shared mixed plan from :mod:`benchmarks.workloads` against one hot
file; writes run as short transactions that hold their X lock for a
configurable think time (the classic transactional-writer model), reads
auto-commit.  The identical plan runs twice in a fixed time window —
snapshot reads on, then off — and the snapshot run must clear
``--min-speedup`` (default 2x) in completed statements, with the lock
manager's S-mode wait histogram empty (readers waited on nothing).  The
window matters: writers serialize with each other identically in both
modes, so a fixed-op-count run would only measure the writer convoy;
counting what *completes* while writers hold the hot file is what
exposes the readers' blocked time.

A fidelity phase then re-runs the plan (no think time) on the serial
and process engines: the final farm contents must be
bit-identical across engines and bit-identical to replaying each run's
own writes in commit_seq order on a fresh serial kernel — the
conflict-equivalence guarantee, measured rather than assumed.

Run standalone (writes ``BENCH_mixed.json``)::

    PYTHONPATH=src python benchmarks/bench_mixed_workload.py

Exit status is non-zero when the speedup gate or any fidelity check
fails.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path

if __package__ in (None, ""):  # runnable as a plain script, too
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from workloads import MIXED_KEYSPACE, mixed_abdl, mixed_op_plan
else:
    from benchmarks.workloads import MIXED_KEYSPACE, mixed_abdl, mixed_op_plan

from repro.abdl import parse_request
from repro.mbds import KernelDatabaseSystem
from repro.obs import Histogram, Observability

HOT_FILE = "hot"


def build_kds(
    rows: int,
    snapshot_reads: bool,
    engine: str = "serial",
    workers: int | None = None,
    backends: int = 3,
) -> KernelDatabaseSystem:
    """A farm with one seeded hot file and live metrics."""
    kds = KernelDatabaseSystem(
        backend_count=backends,
        engine=engine,
        workers=workers,
        obs=Observability(),
        snapshot_reads=snapshot_reads,
    )
    for i in range(rows):
        kds.execute(
            parse_request(
                f"INSERT (<FILE, {HOT_FILE}>, <data, seed{i}>, "
                f"<x, {i % MIXED_KEYSPACE}>)"
            )
        )
    kds.reset_clock()
    return kds


def run_plan(
    kds,
    plan,
    write_hold_ms: float,
    duration_s: float = 0.0,
    read_hist: Histogram | None = None,
):
    """Drive one session thread per plan entry; return (wall_s, writes).

    *writes* is every write's ``(commit_seq, request)`` so callers can
    replay the committed history in commit order.  Write transactions
    sleep *write_hold_ms* between apply and commit — the window in
    which their X lock excludes locking readers.

    With *duration_s* set, each session cycles its op list until the
    deadline (a closed loop) instead of running it once; per-read
    client-side latency — lock wait included, which the kernel's own
    request histogram cannot see — lands in *read_hist*.
    """
    sessions = [kds.create_session(f"mixed-{i}") for i in range(len(plan))]
    writes: list = []
    shared_lock = threading.Lock()
    errors: list = []
    deadline = time.perf_counter() + duration_s if duration_s else None

    def run_session(index: int) -> None:
        session = sessions[index]
        ops = plan[index]
        op_index = 0
        try:
            while True:
                if deadline is None:
                    if op_index >= len(ops):
                        return
                elif time.perf_counter() >= deadline or not ops:
                    return
                op = ops[op_index % len(ops)]
                request = mixed_abdl(op, index, op_index, HOT_FILE)
                op_index += 1
                if op[0] == "read":
                    op_start = time.perf_counter()
                    kds.execute(request, session=session)
                    if read_hist is not None:
                        elapsed_ms = (time.perf_counter() - op_start) * 1000.0
                        with shared_lock:
                            read_hist.observe(elapsed_ms)
                    continue
                kds.session_begin(session)
                try:
                    kds.execute(request, session=session)
                    if write_hold_ms:
                        time.sleep(write_hold_ms / 1000.0)
                except BaseException:
                    kds.session_abort(session)
                    raise
                seq = kds.session_commit(session)
                with shared_lock:
                    writes.append((seq, request))
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=run_session, args=(i,)) for i in range(len(plan))
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - start
    if errors:
        raise errors[0]
    writes.sort(key=lambda pair: pair[0])
    return wall_s, writes


def farm_contents(kds) -> list:
    """The farm's logical contents: every record, order-independent.

    Placement order differs between a concurrent run and its serial
    replay (round-robin counts advance in arrival order), so the
    comparison is over the sorted multiset of records, not per-backend
    images.
    """
    rows = []
    for backend in kds.controller.backends:
        for record in backend.store.all_records():
            rows.append(tuple(sorted((str(a), str(v)) for a, v in record.pairs())))
    return sorted(rows)


def quantiles(hist: Histogram) -> dict:
    return {
        "read_p50_ms": round(hist.quantile(0.50), 3),
        "read_p95_ms": round(hist.quantile(0.95), 3),
        "read_p99_ms": round(hist.quantile(0.99), 3),
    }


def s_wait_count(kds) -> int:
    """Observed S-lock waits (the histogram exists only if one happened)."""
    s_hist = kds.locks.wait_histograms().get("S")
    return int(s_hist["count"]) if s_hist else 0


def bench_mode(
    plan, rows: int, write_hold_ms: float, duration_s: float, snapshot_reads: bool
) -> dict:
    kds = build_kds(rows, snapshot_reads)
    read_hist = Histogram("read_latency_ms")
    try:
        _, committed = run_plan(kds, plan, write_hold_ms, duration_s, read_hist)
        # Count what actually finished inside the window: the closed
        # loop makes completed statements the throughput signal.  (The
        # insert counter would also include the seed rows.)
        metrics = kds.obs.metrics
        reads = int(read_hist.as_dict()["count"])
        writes = len(committed)
        total = reads + writes
        return {
            "snapshot_reads": snapshot_reads,
            "duration_s": duration_s,
            "reads_completed": reads,
            "writes_completed": writes,
            "total_statements": total,
            "throughput_stmt_s": round(total / duration_s, 2),
            **quantiles(read_hist),
            "s_lock_waits": s_wait_count(kds),
            "snapshot_read_count": int(metrics.counter_value("kds.snapshot_reads")),
            "snapshot_fallbacks": int(metrics.counter_value("kds.snapshot_fallbacks")),
            "deadlocks": kds.locks.deadlock_total,
        }
    finally:
        kds.shutdown()


def fidelity_run(plan, rows: int, engine: str, workers: int | None) -> tuple:
    """Run the plan on *engine*; return (contents, replay contents)."""
    kds = build_kds(rows, snapshot_reads=True, engine=engine, workers=workers)
    try:
        _, writes = run_plan(kds, plan, write_hold_ms=0.0)
        contents = farm_contents(kds)
        reads = int(kds.obs.metrics.counter_value("kds.snapshot_reads"))
    finally:
        kds.shutdown()

    replay = build_kds(rows, snapshot_reads=True, engine="serial", workers=None)
    try:
        for _, request in writes:  # already sorted by commit_seq
            replay.execute(request)
        replay_contents = farm_contents(replay)
    finally:
        replay.shutdown()
    return contents, replay_contents, reads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sessions", type=int, default=6)
    parser.add_argument("--requests", type=int, default=24, help="ops per session")
    parser.add_argument(
        "--read-fraction", type=float, default=0.9, help="share of ops that read"
    )
    parser.add_argument("--rows", type=int, default=60, help="seed rows in the hot file")
    parser.add_argument(
        "--write-hold-ms",
        type=float,
        default=12.0,
        help="think time a write transaction holds its X lock",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=1.0,
        help="seconds each throughput mode runs its closed loop",
    )
    parser.add_argument("--min-speedup", type=float, default=2.0)
    parser.add_argument(
        "--skip-fidelity", action="store_true", help="throughput phase only"
    )
    parser.add_argument("--out", default="BENCH_mixed.json")
    args = parser.parse_args(argv)

    plan = mixed_op_plan(args.sessions, args.requests, args.read_fraction)

    print(
        f"mixed workload: {args.sessions} sessions x {args.requests} ops, "
        f"{int(args.read_fraction * 100)}% reads, "
        f"write hold {args.write_hold_ms}ms"
    )
    modes = {}
    for snapshot_reads in (True, False):
        row = bench_mode(
            plan, args.rows, args.write_hold_ms, args.duration, snapshot_reads
        )
        modes["snapshot" if snapshot_reads else "locking"] = row
        name = "snapshot" if snapshot_reads else "locking "
        print(
            f"{name}: {row['total_statements']} stmts in {args.duration:.1f}s "
            f"({row['reads_completed']} reads / {row['writes_completed']} writes)  "
            f"throughput={row['throughput_stmt_s']:.1f} stmt/s "
            f"read p50={row['read_p50_ms']}ms p95={row['read_p95_ms']}ms "
            f"p99={row['read_p99_ms']}ms s_waits={row['s_lock_waits']}"
        )

    speedup = (
        modes["snapshot"]["throughput_stmt_s"] / modes["locking"]["throughput_stmt_s"]
        if modes["locking"]["throughput_stmt_s"]
        else 0.0
    )
    checks = {
        "speedup_ok": speedup >= args.min_speedup,
        # The whole point: the snapshot run's readers waited on no S lock
        # and every completed read really took the snapshot path.
        "zero_s_waits": modes["snapshot"]["s_lock_waits"] == 0,
        "all_reads_snapshot": modes["snapshot"]["snapshot_read_count"]
        == modes["snapshot"]["reads_completed"],
    }

    fidelity = {}
    if not args.skip_fidelity:
        engines = [("serial", None), ("process", 2)]
        outcomes = {}
        for engine, workers in engines:
            contents, replay_contents, reads = fidelity_run(
                plan, args.rows, engine, workers
            )
            outcomes[engine] = contents
            fidelity[f"{engine}_replay_identical"] = contents == replay_contents
            fidelity[f"{engine}_snapshot_reads"] = reads
        fidelity["engines_identical"] = (
            outcomes["serial"] == outcomes["process"]
        )
        checks["fidelity_ok"] = fidelity["engines_identical"] and all(
            fidelity[f"{engine}_replay_identical"] for engine, _ in engines
        )
        print(
            "fidelity: engines identical="
            f"{fidelity['engines_identical']} replay identical="
            f"{[fidelity[f'{e}_replay_identical'] for e, _ in engines]}"
        )

    passed = all(checks.values())
    report = {
        "benchmark": "mixed_workload_snapshot_vs_locking",
        "sessions": args.sessions,
        "requests_per_session": args.requests,
        "read_fraction": args.read_fraction,
        "write_hold_ms": args.write_hold_ms,
        "rows": args.rows,
        "modes": modes,
        "speedup_snapshot_vs_locking": round(speedup, 3),
        "min_speedup": args.min_speedup,
        "checks": checks,
        "fidelity": fidelity,
        "passed": passed,
    }
    Path(args.out).write_text(json.dumps(report, indent=1))
    print(
        f"snapshot vs locking speedup: {speedup:.2f}x "
        f"(gate {args.min_speedup}x) {'PASS' if passed else 'FAIL'} "
        f"checks={checks}"
    )
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
