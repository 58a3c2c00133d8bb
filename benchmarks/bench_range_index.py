"""Range indexes: sorted-index access planning vs full scans at 50k records.

PR 5's tentpole claim: per-file sorted attribute indexes plus the
selectivity-based access planner answer equality *and* range predicates
from bisected index slices instead of full scans, while staying
**record-identical** to the interpreted path.  This benchmark holds two
claims at once:

* **fidelity** — every request is executed once with planning disabled
  (``plan_enabled=False``: the compiled full-scan baseline) and once
  with it on; the record
  lists (pairs + text, in order) must match exactly.  Simulated times are
  *expected* to differ — fewer records examined is the whole point — so
  the report carries both figures instead of comparing them.  A second
  pass re-runs the planned set on the process engine and demands **full**
  bit-identity (records and simulated times) against the serial engine.
* **speed** — the same retrieval set is timed interleaved (min-of-N,
  round-robin across modes); the gate requires
  ``scan wall / indexed wall >= --min-speedup`` (default 3, the ISSUE's
  line).

An ungated context row times the MIN/MAX/COUNT digest fast path (whole-
file aggregates answered from index statistics without a scan).

Run standalone (writes ``BENCH_range.json``)::

    PYTHONPATH=src python benchmarks/bench_range_index.py
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # runnable as a plain script, too
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.abdl.ast import (
    ALL_ATTRIBUTES,
    InsertRequest,
    RetrieveRequest,
    TargetItem,
)
from repro.abdm.predicate import Conjunction, Predicate, Query
from repro.abdm.record import Record
from repro.mbds import KernelDatabaseSystem, RoundRobinPlacement
from repro.qc import runtime as qc_runtime
from repro.university.generator import _MAJORS, generate_university


class GpaBandPlacement(RoundRobinPlacement):
    """Places student records on the backend owning their gpa band.

    gpa spans [2.0, 4.0]; backend ``i`` of ``n`` owns the i-th equal
    slice.  Records without a gpa keep the inherited per-file round-robin,
    so every backend still holds a share of the other files.
    """

    def place(self, record: Record, backend_count: int) -> int:
        gpa = record.get("gpa")
        if isinstance(gpa, (int, float)):
            band = int((float(gpa) - 2.0) / 2.0 * backend_count)
            return min(max(band, 0), backend_count - 1)
        return super().place(record, backend_count)


def build_system(backends: int, records: int) -> KernelDatabaseSystem:
    """A University-shaped population of *records* records, gpa-banded.

    Students (with name/age/major/gpa) dominate the population the way
    the University schema's queries do; a course file rides along so the
    workload is not single-file.
    """
    data = generate_university(
        persons=max(records * 4 // 5, 1),
        courses=max(records // 5, 1),
        departments=4,
        seed=7,
    )
    kds = KernelDatabaseSystem(backend_count=backends, placement=GpaBandPlacement())
    kds.controller.add_index("gpa", "age", "major", "credits", "semester")
    for index, person in enumerate(data.persons):
        pairs = [
            ("FILE", "student"),
            ("name", person.name),
            ("age", person.age),
            ("major", person.major or _MAJORS[index % len(_MAJORS)]),
            ("gpa", person.gpa if person.is_student else round(2.0 + (index % 200) / 100.0, 2)),
        ]
        kds.execute(InsertRequest(Record.from_pairs(pairs)))
    for course in data.courses:
        pairs = [
            ("FILE", "course"),
            ("title", course.title),
            ("dept", course.dept),
            ("semester", course.semester),
            ("credits", course.credits),
        ]
        kds.execute(InsertRequest(Record.from_pairs(pairs)))
    return kds


def build_requests() -> list[RetrieveRequest]:
    """Equality, range, and range-conjunction shapes over indexed attributes."""

    def q(*predicates: Predicate) -> Query:
        return Query.conjunction(list(predicates))

    queries: list[Query] = []
    for lo in (2.0, 2.6, 3.2, 3.8):
        queries.append(
            q(
                Predicate("FILE", "=", "student"),
                Predicate("gpa", ">=", lo),
                Predicate("gpa", "<", lo + 0.02),
            )
        )
    for age in (19, 27, 36, 45, 63):
        queries.append(
            q(
                Predicate("FILE", "=", "student"),
                Predicate("age", "=", age),
                Predicate("gpa", "<", 2.3),
            )
        )
        queries.append(
            q(
                Predicate("FILE", "=", "student"),
                Predicate("age", ">", age),
                Predicate("age", "<=", age + 1),
                Predicate("gpa", ">=", 3.7),
            )
        )
    for major in _MAJORS:
        queries.append(
            q(
                Predicate("FILE", "=", "student"),
                Predicate("major", "=", major),
                Predicate("gpa", ">=", 3.95),
            )
        )
    for credits in (1, 5):
        queries.append(
            q(
                Predicate("FILE", "=", "course"),
                Predicate("credits", "=", credits),
                Predicate("semester", "=", "fall"),
            )
        )
        queries.append(
            q(
                Predicate("FILE", "=", "course"),
                Predicate("credits", ">", credits),
                Predicate("semester", "=", "winter"),
            )
        )
    # A disjunction: each conjunction plans independently.
    queries.append(
        Query(
            (
                Conjunction(
                    [Predicate("FILE", "=", "student"), Predicate("gpa", ">=", 3.99)]
                ),
                Conjunction(
                    [Predicate("FILE", "=", "student"), Predicate("gpa", "<", 2.01)]
                ),
            )
        )
    )
    return [RetrieveRequest(query, [ALL_ATTRIBUTES]) for query in queries]


def build_aggregate_requests() -> list[RetrieveRequest]:
    """Whole-file MIN/MAX/COUNT shapes — the digest fast path's domain."""
    query = Query.single("FILE", "=", "student")
    return [
        RetrieveRequest(query, [TargetItem("*", "COUNT")]),
        RetrieveRequest(query, [TargetItem("gpa", "MIN"), TargetItem("gpa", "MAX")]),
        RetrieveRequest(query, [TargetItem("age", "MAX"), TargetItem("age", "COUNT")]),
    ]


def run_once(kds: KernelDatabaseSystem, requests: list[RetrieveRequest]) -> list[dict]:
    """Execute the set once, returning per-request fidelity fingerprints."""
    out = []
    for request in requests:
        trace = kds.execute(request)
        out.append(
            {
                "request": request.render(),
                "simulated_ms": trace.response.total_ms,
                "records": [
                    (tuple(r.pairs()), r.text) for r in trace.result.records
                ],
            }
        )
    return out


def check_fidelity(
    kds: KernelDatabaseSystem, requests: list[RetrieveRequest]
) -> dict:
    """Planned vs full-scan record identity, plus simulated-time totals."""
    config = qc_runtime.config
    config.plan_enabled = False
    scanned = run_once(kds, requests)
    config.plan_enabled = True
    planned = run_once(kds, requests)
    mismatches = [
        left["request"]
        for left, right in zip(scanned, planned)
        if left["records"] != right["records"]
    ]
    return {
        "requests": len(requests),
        "records_identical": not mismatches,
        "mismatches": mismatches[:5],
        "scan_simulated_ms": sum(r["simulated_ms"] for r in scanned),
        "indexed_simulated_ms": sum(r["simulated_ms"] for r in planned),
    }


def check_engine_fidelity(
    backends: int, records: int, requests: list[RetrieveRequest]
) -> dict:
    """Serial vs process with planning on: full bit-identity."""
    serial = build_system(backends, records)
    process_kds = KernelDatabaseSystem(
        backend_count=backends, placement=GpaBandPlacement(), engine="process"
    )
    process_kds.controller.add_index("gpa", "age", "major", "credits", "semester")
    # Copy the serial farm's exact contents into the process farm.
    for backend, source in zip(process_kds.controller.backends, serial.controller.backends):
        backend.store.bulk_insert(list(source.store.all_records()))
    left = run_once(serial, requests)
    right = run_once(process_kds, requests)
    identical = all(
        a["simulated_ms"] == b["simulated_ms"] and a["records"] == b["records"]
        for a, b in zip(left, right)
    )
    serial.shutdown()
    process_kds.shutdown()
    return {"bit_identical": identical}


def time_modes(
    kds: KernelDatabaseSystem,
    requests: list[RetrieveRequest],
    aggregates: list[RetrieveRequest],
    rounds: int,
    repeat: int,
) -> dict[str, float]:
    """Min-of-N interleaved wall times: scan vs indexed vs digest aggregates."""
    config = qc_runtime.config
    best = {"scan": float("inf"), "indexed": float("inf"), "aggregate_digest": float("inf")}
    # Warm-up: compile caches and index structures.
    for request in requests + aggregates:
        kds.execute(request)
    for _ in range(repeat):
        for mode in ("scan", "indexed"):
            config.plan_enabled = mode == "indexed"
            start = time.perf_counter()
            for _ in range(rounds):
                for request in requests:
                    kds.execute(request)
            best[mode] = min(best[mode], time.perf_counter() - start)
        config.plan_enabled = True
        start = time.perf_counter()
        for _ in range(rounds):
            for request in aggregates:
                kds.execute(request)
        best["aggregate_digest"] = min(
            best["aggregate_digest"], time.perf_counter() - start
        )
    return best


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--backends", type=int, default=4)
    parser.add_argument(
        "--records",
        type=int,
        default=50_000,
        help="total population size (students + courses)",
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=1,
        help="passes over the request set per timed sample",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=3,
        help="timed samples per mode; the minimum is reported",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=3.0,
        help="required scan/indexed wall-time ratio (0 disables)",
    )
    parser.add_argument("--out", default="BENCH_range.json")
    args = parser.parse_args(argv)

    qc_runtime.reset()
    # Result caching off: it would short-circuit the very scans under test.
    qc_runtime.config.result_cache_enabled = False

    print(
        f"loading gpa-banded University population (records={args.records}, "
        f"backends={args.backends})..."
    )
    kds = build_system(args.backends, args.records)
    requests = build_requests()
    aggregates = build_aggregate_requests()

    fidelity = check_fidelity(kds, requests)
    print(
        f"fidelity over {fidelity['requests']} requests: "
        f"records_identical={fidelity['records_identical']} "
        f"(simulated ms: scan={fidelity['scan_simulated_ms']:.1f} "
        f"indexed={fidelity['indexed_simulated_ms']:.1f})"
    )
    engines = check_engine_fidelity(args.backends, min(args.records, 5_000), requests)
    print(f"serial vs process (planned): bit_identical={engines['bit_identical']}")

    best = time_modes(kds, requests, aggregates, args.rounds, args.repeat)
    speedup = best["scan"] / max(best["indexed"], 1e-9)
    n = len(requests) * args.rounds

    print("=== range indexes (gpa-banded University workload) ===")
    header = f"{'mode':>17}  {'wall s':>9}  {'req/s':>9}  {'speedup':>8}"
    print(header)
    print("-" * len(header))
    for mode in ("scan", "indexed"):
        ratio = best["scan"] / max(best[mode], 1e-9)
        print(
            f"{mode:>17}  {best[mode]:>9.4f}  {n / max(best[mode], 1e-9):>9.0f}  "
            f"{ratio:>7.2f}x"
        )
    agg_n = len(aggregates) * args.rounds
    print(
        f"{'aggregate_digest':>17}  {best['aggregate_digest']:>9.4f}  "
        f"{agg_n / max(best['aggregate_digest'], 1e-9):>9.0f}  {'(context)':>8}"
    )

    kds.shutdown()
    report = {
        "benchmark": "range_index",
        "backends": args.backends,
        "records": args.records,
        "requests": len(requests),
        "rounds": args.rounds,
        "repeat": args.repeat,
        "min_speedup": args.min_speedup,
        "fidelity": fidelity,
        "engine_fidelity": engines,
        "wall_s": best,
        "indexed_speedup_x": speedup,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")

    failed = False
    if not fidelity["records_identical"]:
        print(
            f"FAIL: indexed results diverge from scan: {fidelity['mismatches']}",
            file=sys.stderr,
        )
        failed = True
    if not engines["bit_identical"]:
        print("FAIL: process-engine results diverge from serial", file=sys.stderr)
        failed = True
    if args.min_speedup > 0 and speedup < args.min_speedup:
        print(
            f"FAIL: indexed speedup {speedup:.2f}x is below "
            f"--min-speedup {args.min_speedup}",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
