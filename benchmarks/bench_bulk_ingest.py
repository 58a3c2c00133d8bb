"""Bulk ingest: the million-record path, gated against the one-at-a-time path.

The streaming ingest pipeline (``repro.ingest``) batches a record stream
into BULK-INSERT requests: one journal record per backend shard, one
commit per batch, deferred sort-once index maintenance.  This benchmark
holds that path to three promises:

* **throughput** — bulk loading must beat one-INSERT-per-transaction by
  at least ``--min-speedup`` (default 3x) on the same record stream;
* **flat queries at scale** — an indexed point query after loading
  ``--scale-records`` (default 1M) records must stay within
  ``--max-latency-ratio`` (default 1.5x) of the same query at
  ``--base-records`` (default 100k): ingest volume must not bend query
  latency;
* **flat writes at scale** — a single-record session ``UPDATE`` and a
  ``BEGIN; INSERT; COMMIT`` at 100 000 records must each stay within
  2x of the same statement at 10 000, journaled with ``sync=True`` as a
  served system runs them (ROADMAP item 2: a write costs what it
  touches, not what the file holds).  The bound is not the 1.5x of the
  query row because one O(file) term is left by design — the pending
  version's pointer copy, ~0.1-0.3 ms at the 12 500 records a backend
  holds of the written file — which puts the transaction at 1.6x of its
  0.3 ms (1.4x of 0.45 ms before the one-fsync commit: the term stayed,
  the base fell); a per-UPDATE index rebuild or deep copy reads 10x and
  more.
  The same pair without a WAL is reported ungated and shows that term
  alone;
* **equivalence** — the post-load farm (stores, placement counters,
  index report) must be bit-identical to the incremental path under the
  serial and process engines.

It also measures the durability ledger with ``sync=True``: fsyncs per
commit for the one-at-a-time path (every record a transaction) against
the pipeline's group-commit batches.

Run standalone (writes a JSON report, default ``BENCH_ingest.json``)::

    PYTHONPATH=src python benchmarks/bench_bulk_ingest.py

Exit status is non-zero when any gate fails.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
import time
from itertools import islice
from pathlib import Path

if __package__ in (None, ""):  # runnable as a plain script, too
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.abdl.ast import (
    InsertRequest,
    Modifier,
    RetrieveRequest,
    TargetItem,
    UpdateRequest,
)
from repro.abdm.predicate import Conjunction, Predicate, Query
from repro.abdm.record import Record
from repro.core.mlds import MLDS
from repro.ingest import bulk_load, stream_university_records
from repro.obs import Observability
from repro.wal.log import WalManager

ENGINES = [("serial", None), ("process", 2)]

#: Record counts and bound of the write-flatness row (ROADMAP item 2).
WRITE_BASE_RECORDS = 10_000
WRITE_SCALE_RECORDS = 100_000
WRITE_MAX_RATIO = 2.0


def farm_fingerprint(mlds: MLDS) -> dict:
    controller = mlds.kds.controller
    return {
        "snapshots": [b.store.snapshot() for b in controller.backends],
        "distribution": controller.distribution(),
        "indexes": controller.index_report(),
    }


def wal_deltas(obs: Observability) -> dict[str, float]:
    registry = obs.metrics.as_dict()
    return {
        name: registry.get(f"wal.{name}", {}).get("value", 0.0)
        for name in ("fsyncs", "commits", "group_commits")
    }


def run_incremental(
    records: int, backends: int, wal_dir: Path, *, sync: bool = False
) -> dict:
    """One INSERT request — one WAL transaction — per record."""
    obs = Observability()
    wal = WalManager(wal_dir, backends, sync=sync)
    mlds = MLDS(backend_count=backends, wal=wal, obs=obs)
    start = time.perf_counter()
    for record in stream_university_records(records):
        mlds.kds.execute(InsertRequest(record))
    wall_s = time.perf_counter() - start
    counters = wal_deltas(obs)
    mlds.kds.shutdown()
    commits = counters["commits"]
    return {
        "mode": "incremental" + ("-sync" if sync else ""),
        "records": records,
        "wall_s": wall_s,
        "records_per_s": records / max(wall_s, 1e-9),
        "commits": commits,
        "fsyncs": counters["fsyncs"],
        "fsyncs_per_commit": counters["fsyncs"] / max(commits, 1.0),
    }


def run_bulk(
    records: int,
    backends: int,
    wal_dir: Path,
    batch: int,
    *,
    sync: bool = False,
    group_window_ms: float | None = None,
) -> dict:
    """The streaming pipeline: shard, journal, apply, index per batch."""
    obs = Observability()
    wal = WalManager(wal_dir, backends, sync=sync, group_window_ms=group_window_ms)
    mlds = MLDS(backend_count=backends, wal=wal, obs=obs)
    start = time.perf_counter()
    report = bulk_load(
        mlds.kds,
        stream_university_records(records),
        batch_size=batch,
    )
    wall_s = time.perf_counter() - start
    mlds.kds.shutdown()
    return {
        "mode": "bulk" + ("-sync" if sync else ""),
        "records": records,
        "batch_size": batch,
        "batches": report.batches,
        "wall_s": wall_s,
        "records_per_s": records / max(wall_s, 1e-9),
        "commits": report.commits,
        "fsyncs": report.fsyncs,
        "fsyncs_per_commit": report.fsyncs_per_commit,
        "group_commits": report.group_commits,
        "generate_ms": report.generate_ms,
    }


def student_with(record_id: int) -> Query:
    return Query(
        [Conjunction([Predicate("FILE", "=", "student"), Predicate("ID", "=", record_id)])]
    )


def point_query(record_id: int) -> RetrieveRequest:
    return RetrieveRequest(student_with(record_id), (TargetItem("ID"),))


def measure_latency(mlds: MLDS, ids: list[int]) -> dict:
    samples = []
    for record_id in ids:
        start = time.perf_counter()
        trace = mlds.kds.execute(point_query(record_id))
        samples.append((time.perf_counter() - start) * 1000.0)
        assert trace.result.count == 1, f"point query missed ID {record_id}"
    return {
        "queries": len(samples),
        "p50_ms": statistics.median(samples),
        "max_ms": max(samples),
    }


def run_latency_flatness(
    base: int, scale: int, backends: int, batch: int, queries: int
) -> dict:
    """Load to *base*, measure, keep loading to *scale*, measure again."""
    mlds = MLDS(backend_count=backends)
    mlds.kds.controller.add_index("ID")
    # Student IDs are the 0..9 residues of each 20-record cycle; sample
    # inside the base prefix so both measurements run identical queries.
    ids = [(i * (base // (queries * 20)) * 20) % base for i in range(queries)]
    stream = stream_university_records(scale)
    try:
        bulk_load(mlds.kds, islice(stream, base), batch_size=batch)
        at_base = measure_latency(mlds, ids)
        bulk_load(mlds.kds, stream, batch_size=batch)
        at_scale = measure_latency(mlds, ids)
    finally:
        mlds.kds.shutdown()
    return {
        "base_records": base,
        "scale_records": scale,
        "base_p50_ms": at_base["p50_ms"],
        "scale_p50_ms": at_scale["p50_ms"],
        "latency_ratio": at_scale["p50_ms"] / max(at_base["p50_ms"], 1e-9),
    }


def timed_writes(mlds: MLDS, session, record_id: int, fresh_id: int, n: int) -> tuple:
    """Milliseconds of one single-record session UPDATE and of one
    BEGIN; INSERT; COMMIT.

    The UPDATE rewrites an indexed attribute, so it pays the index patch
    as well as the copy-on-write swap; the transaction pays the pending
    pre-image and the write-set bookkeeping.
    """
    kds = mlds.kds
    update = UpdateRequest(student_with(record_id), Modifier("gpa", 2.0 + n % 200 / 100))
    start = time.perf_counter()
    trace = kds.execute(update, session=session)
    update_ms = (time.perf_counter() - start) * 1000.0
    assert trace.result.count == 1, f"UPDATE missed ID {record_id}"
    record = Record.from_pairs(
        [("FILE", "student"), ("ID", fresh_id), ("name", f"late {n}"), ("gpa", 3.0)]
    )
    start = time.perf_counter()
    kds.session_begin(session)
    kds.execute(InsertRequest(record), session=session)
    kds.session_commit(session)
    return update_ms, (time.perf_counter() - start) * 1000.0


def run_write_flatness(
    backends: int, batch: int, samples: int, wal_dir: Path | None = None
) -> dict:
    """The same writes against a 10 000- and a 100 000-record system.

    The two systems take turns statement by statement, so a drift in the
    box's speed (or its fsync) lands on both.  With *wal_dir* every write
    is journaled and fsynced — what a served system pays — into a fresh
    log segment, as after a checkpoint; without, the figures are the
    kernel's alone.
    """
    sizes = (WRITE_BASE_RECORDS, WRITE_SCALE_RECORDS)
    ids = [(i * (sizes[0] // (samples * 20)) * 20) % sizes[0] for i in range(samples)]
    systems = []
    timings: dict = {size: ([], []) for size in sizes}
    try:
        for size in sizes:
            wal = WalManager(wal_dir / str(size), backends, sync=True) if wal_dir else None
            mlds = MLDS(backend_count=backends, wal=wal)
            systems.append((size, mlds, mlds.kds.create_session("bench-writer")))
            mlds.kds.controller.add_index("ID", "gpa")
            bulk_load(mlds.kds, stream_university_records(size), batch_size=batch)
            if wal is not None:
                wal.start_new_segment()
        for n, record_id in enumerate(ids):
            for size, mlds, session in systems:
                update_ms, txn_ms = timed_writes(mlds, session, record_id, size + n, n)
                timings[size][0].append(update_ms)
                timings[size][1].append(txn_ms)
    finally:
        for _, mlds, _ in systems:
            mlds.kds.shutdown()
    p50 = {
        size: {
            "update_p50_ms": statistics.median(updates),
            "txn_p50_ms": statistics.median(txns),
        }
        for size, (updates, txns) in timings.items()
    }
    base, scale = p50[sizes[0]], p50[sizes[1]]
    return {
        "base_records": sizes[0],
        "scale_records": sizes[1],
        "base": base,
        "scale": scale,
        "update_ratio": scale["update_p50_ms"] / max(base["update_p50_ms"], 1e-9),
        "txn_ratio": scale["txn_p50_ms"] / max(base["txn_p50_ms"], 1e-9),
    }


def run_equivalence(records: int, backends: int, batch: int) -> list[dict]:
    """Bulk == incremental post-load state under every engine."""
    rows = []
    for engine, workers in ENGINES:
        fingerprints = {}
        for mode in ("bulk", "incremental"):
            mlds = MLDS(backend_count=backends, engine=engine, workers=workers)
            mlds.kds.controller.add_index("ID")
            if mode == "bulk":
                bulk_load(
                    mlds.kds, stream_university_records(records), batch_size=batch
                )
            else:
                for record in stream_university_records(records):
                    mlds.kds.execute(InsertRequest(record))
            fingerprints[mode] = farm_fingerprint(mlds)
            mlds.kds.shutdown()
        rows.append(
            {
                "engine": engine,
                "records": records,
                "identical": fingerprints["bulk"] == fingerprints["incremental"],
            }
        )
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--backends", type=int, default=4)
    parser.add_argument("--records", type=int, default=100_000,
                        help="record count for the throughput comparison")
    parser.add_argument("--batch", type=int, default=10_000)
    parser.add_argument("--base-records", type=int, default=100_000,
                        help="small scale for the latency-flatness check")
    parser.add_argument("--scale-records", type=int, default=1_000_000,
                        help="large scale for the latency-flatness check")
    parser.add_argument("--queries", type=int, default=40)
    parser.add_argument("--sync-records", type=int, default=2_000,
                        help="record count for the fsync-per-commit ledger")
    parser.add_argument("--equivalence-records", type=int, default=1_500)
    parser.add_argument("--min-speedup", type=float, default=3.0,
                        help="required bulk/incremental throughput ratio (0 disables)")
    parser.add_argument("--max-latency-ratio", type=float, default=1.5,
                        help="max tolerated query-latency growth at scale "
                        "(0 disables it and the write-flatness gate)")
    parser.add_argument("--skip-scale", action="store_true",
                        help="skip the latency-flatness sections")
    parser.add_argument("--out", default="BENCH_ingest.json")
    args = parser.parse_args(argv)

    scratch = Path(tempfile.mkdtemp(prefix="bench-ingest-"))
    try:
        rows = [
            run_incremental(args.records, args.backends, scratch / "incr"),
            run_bulk(args.records, args.backends, scratch / "bulk", args.batch),
            run_incremental(
                args.sync_records, args.backends, scratch / "incr-sync", sync=True
            ),
            run_bulk(
                args.sync_records,
                args.backends,
                scratch / "bulk-sync",
                args.batch,
                sync=True,
                group_window_ms=0.0,
            ),
        ]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    speedup = rows[1]["records_per_s"] / max(rows[0]["records_per_s"], 1e-9)

    latency = writes = None
    if not args.skip_scale:
        latency = run_latency_flatness(
            args.base_records,
            args.scale_records,
            args.backends,
            args.batch,
            args.queries,
        )
        with tempfile.TemporaryDirectory(prefix="bench-ingest-") as wal_dir:
            writes = run_write_flatness(
                args.backends, args.batch, args.queries, Path(wal_dir)
            )
        writes["kernel_only"] = run_write_flatness(
            args.backends, args.batch, args.queries
        )

    equivalence = run_equivalence(
        args.equivalence_records, args.backends, args.batch
    )

    print("=== Bulk ingest vs one-INSERT-per-transaction ===")
    header = (
        f"{'mode':>16}  {'records':>9}  {'wall s':>8}  {'rec/s':>9}  "
        f"{'commits':>7}  {'fsync/commit':>12}"
    )
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['mode']:>16}  {row['records']:>9}  {row['wall_s']:>8.3f}  "
            f"{row['records_per_s']:>9.0f}  {row['commits']:>7.0f}  "
            f"{row['fsyncs_per_commit']:>12.1f}"
        )
    print(f"bulk speedup: {speedup:.2f}x (gate >= {args.min_speedup}x)")
    if latency is not None:
        print(
            f"point query p50: {latency['base_p50_ms']:.3f} ms at "
            f"{latency['base_records']:,} -> {latency['scale_p50_ms']:.3f} ms at "
            f"{latency['scale_records']:,} ({latency['latency_ratio']:.2f}x, "
            f"gate <= {args.max_latency_ratio}x)"
        )
    if writes is not None:
        for kind, label in (("update", "single-record UPDATE"), ("txn", "BEGIN; INSERT; COMMIT")):
            print(
                f"{label} p50: {writes['base'][f'{kind}_p50_ms']:.3f} ms at "
                f"{writes['base_records']:,} -> "
                f"{writes['scale'][f'{kind}_p50_ms']:.3f} ms at "
                f"{writes['scale_records']:,} ({writes[f'{kind}_ratio']:.2f}x, "
                f"gate <= {WRITE_MAX_RATIO}x; without a WAL "
                f"{writes['kernel_only'][f'{kind}_ratio']:.2f}x)"
            )
    for row in equivalence:
        print(f"engine {row['engine']}: bulk == incremental: {row['identical']}")

    report = {
        "benchmark": "bulk_ingest",
        "backends": args.backends,
        "speedup": speedup,
        "rows": rows,
        "latency": latency,
        "write_latency": writes,
        "equivalence": equivalence,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")

    failed = False
    if args.min_speedup > 0 and speedup < args.min_speedup:
        print(
            f"FAIL: bulk speedup {speedup:.2f}x below --min-speedup "
            f"{args.min_speedup}",
            file=sys.stderr,
        )
        failed = True
    if (
        latency is not None
        and args.max_latency_ratio > 0
        and latency["latency_ratio"] > args.max_latency_ratio
    ):
        print(
            f"FAIL: query latency grew {latency['latency_ratio']:.2f}x at scale, "
            f"above --max-latency-ratio {args.max_latency_ratio}",
            file=sys.stderr,
        )
        failed = True
    if writes is not None and args.max_latency_ratio > 0:
        for kind in ("update", "txn"):
            if writes[f"{kind}_ratio"] > WRITE_MAX_RATIO:
                print(
                    f"FAIL: {kind} latency grew {writes[f'{kind}_ratio']:.2f}x from "
                    f"{writes['base_records']:,} to {writes['scale_records']:,} "
                    f"records, above {WRITE_MAX_RATIO}x",
                    file=sys.stderr,
                )
                failed = True
    for row in equivalence:
        if not row["identical"]:
            print(
                f"FAIL: {row['engine']} engine bulk load differs from the "
                "incremental farm",
                file=sys.stderr,
            )
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
