"""Query compilation: compiled vs interpreted scans on the University workload.

PR 4's tentpole claim: flattening DNF queries into matcher closures
(:mod:`repro.qc.compile`) makes the kernel scan loop meaningfully faster
while staying **bit-identical** — same records, same order, same
simulated timing-model figures.  This benchmark holds both halves:

* **fidelity** — every request is executed once with compilation off and
  once with it on; the simulated ``ResponseTime`` totals and the full
  record lists (pairs + text, in order) must match exactly, else the run
  fails immediately;
* **speed** — the same retrieval set is timed interleaved (min-of-N,
  round-robin across modes so CPU drift hits both alike); the gate
  requires ``interpreted wall / compiled wall >= --min-speedup``
  (default 1.5, the ISSUE's line).

A third, ungated row times the epoch-guarded backend result cache on the
same workload for context (it short-circuits the scan entirely, so its
speedup is workload-dependent and usually much larger).

**Key lists.**  A batched fetch — DAPLEX's frontier, DL/I's child
lookup, a CODASYL one-to-many set — is a DNF of ``(FILE = t AND t = k)``
clauses, which the compiler folds into one set probe.  Three more rows
(8 / 64 / 256 clauses over a 400-record file) time that shape compiled
against interpreted, check the selections are identical, and sit under
the same ``--min-speedup`` gate.

Run standalone (writes ``BENCH_compile.json``)::

    PYTHONPATH=src python benchmarks/bench_query_compile.py
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # runnable as a plain script, too
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.abdl.ast import ALL_ATTRIBUTES, RetrieveRequest
from repro.abdm.predicate import Conjunction, Predicate, Query
from repro.abdm.record import Record
from repro.abdm.store import ABStore
from repro.core.mlds import MLDS
from repro.qc import runtime as qc_runtime
from repro.university import generate_university, load_university


def build_system(backends: int, persons: int, courses: int) -> MLDS:
    mlds = MLDS(backend_count=backends)
    data = generate_university(persons=persons, courses=courses, departments=4, seed=7)
    load_university(mlds, data)
    return mlds


def build_requests() -> list[RetrieveRequest]:
    """A mixed retrieval set over the University files.

    Equality, range, negation, and multi-clause (OR) shapes, all pinned
    to real files so the scans they cost are the scans a session issues.
    """

    def q(*predicates: Predicate) -> Query:
        return Query.conjunction(list(predicates))

    requests: list[Query] = []
    for major in ("computer science", "mathematics", "physics", "engineering"):
        requests.append(
            q(
                Predicate("FILE", "=", "student"),
                Predicate("major", "=", major),
                Predicate("gpa", ">=", 3.8),
            )
        )
        requests.append(
            q(
                Predicate("FILE", "=", "student"),
                Predicate("major", "=", major),
                Predicate("gpa", ">=", 2.0),
                Predicate("gpa", "<", 2.4),
            )
        )
    for age in (22, 30, 41, 57):
        requests.append(q(Predicate("FILE", "=", "person"), Predicate("age", "=", age)))
        requests.append(
            q(
                Predicate("FILE", "=", "person"),
                Predicate("age", ">=", age),
                Predicate("age", "<", age + 3),
            )
        )
    for semester in ("fall", "winter", "spring", "summer"):
        requests.append(
            q(
                Predicate("FILE", "=", "course"),
                Predicate("semester", "=", semester),
                Predicate("credits", ">", 3),
            )
        )
        requests.append(
            q(
                Predicate("FILE", "=", "course"),
                Predicate("semester", "!=", semester),
                Predicate("credits", ">", 2),
                Predicate("dept", "=", "computer_science"),
            )
        )
    # Multi-clause disjunctions (one per file pair).
    requests.append(
        Query(
            (
                Conjunction(
                    [Predicate("FILE", "=", "student"), Predicate("gpa", ">", 3.5)]
                ),
                Conjunction(
                    [Predicate("FILE", "=", "person"), Predicate("age", ">", 60)]
                ),
            )
        )
    )
    requests.append(
        Query(
            (
                Conjunction(
                    [Predicate("FILE", "=", "course"), Predicate("credits", "=", 4)]
                ),
                Conjunction(
                    [Predicate("FILE", "=", "course"), Predicate("credits", "=", 1)]
                ),
            )
        )
    )
    return [RetrieveRequest(query, [ALL_ATTRIBUTES]) for query in requests]


def run_once(mlds: MLDS, requests: list[RetrieveRequest]) -> list[dict]:
    """Execute the set once, returning per-request fidelity fingerprints."""
    out = []
    for request in requests:
        trace = mlds.kds.execute(request)
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


def check_fidelity(mlds: MLDS, requests: list[RetrieveRequest]) -> dict:
    """Interpreted vs compiled: simulated times and records bit-identical."""
    config = qc_runtime.config
    config.compile_enabled = False
    interpreted = run_once(mlds, requests)
    config.compile_enabled = True
    compiled = run_once(mlds, requests)
    mismatches = []
    for left, right in zip(interpreted, compiled):
        if left["simulated_ms"] != right["simulated_ms"]:
            mismatches.append(("simulated_ms", left["request"]))
        if left["records"] != right["records"]:
            mismatches.append(("records", left["request"]))
    return {
        "requests": len(requests),
        "simulated_identical": not any(kind == "simulated_ms" for kind, _ in mismatches),
        "records_identical": not any(kind == "records" for kind, _ in mismatches),
        "mismatches": [f"{kind}: {req}" for kind, req in mismatches[:5]],
    }


def time_modes(
    mlds: MLDS, requests: list[RetrieveRequest], rounds: int, repeat: int
) -> dict[str, float]:
    """Min-of-N interleaved wall times for the three modes."""
    config = qc_runtime.config
    modes = ("interpreted", "compiled", "result_cache")
    best = {mode: float("inf") for mode in modes}

    def configure(mode: str) -> None:
        config.compile_enabled = mode != "interpreted"
        config.result_cache_enabled = mode == "result_cache"

    # Warm-up: populate compile and result caches so steady-state is
    # measured for every mode (the first compile/fill is one-off cost).
    for mode in modes:
        configure(mode)
        for request in requests:
            mlds.kds.execute(request)
    for _ in range(repeat):
        for mode in modes:
            configure(mode)
            start = time.perf_counter()
            for _ in range(rounds):
                for request in requests:
                    mlds.kds.execute(request)
            best[mode] = min(best[mode], time.perf_counter() - start)
    config.compile_enabled = True
    config.result_cache_enabled = True
    return best


KEY_LIST_FILE_RECORDS = 400
KEY_LIST_CLAUSES = (8, 64, 256)


def time_key_lists(rounds: int, repeat: int) -> list[dict]:
    """Key-list DNFs over one file: interpreted vs compiled ``find``."""
    config = qc_runtime.config
    store = ABStore()
    for i in range(KEY_LIST_FILE_RECORDS):
        store.insert(
            Record.from_pairs([("FILE", "entity"), ("entity", f"entity${i}"), ("x", i % 97)])
        )
    rows = []
    for clauses in KEY_LIST_CLAUSES:
        step = KEY_LIST_FILE_RECORDS // clauses
        query = Query(
            Conjunction(
                [Predicate("FILE", "=", "entity"), Predicate("entity", "=", f"entity${i * step}")]
            )
            for i in range(clauses)
        )
        best = {"interpreted": float("inf"), "compiled": float("inf")}
        found = {}
        for _ in range(repeat):
            for mode in best:
                config.compile_enabled = mode == "compiled"
                found[mode] = store.find(query)  # warm (first compile is one-off)
                start = time.perf_counter()
                for _ in range(rounds):
                    store.find(query)
                best[mode] = min(best[mode], (time.perf_counter() - start) / rounds)
        config.compile_enabled = True
        rows.append(
            {
                "clauses": clauses,
                "records": KEY_LIST_FILE_RECORDS,
                "selected": len(found["compiled"]),
                "identical": found["compiled"] == found["interpreted"]
                and len(found["compiled"]) == clauses,
                "interpreted_ms": best["interpreted"] * 1e3,
                "compiled_ms": best["compiled"] * 1e3,
                "speedup_x": best["interpreted"] / max(best["compiled"], 1e-9),
            }
        )
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--backends", type=int, default=2)
    parser.add_argument(
        "--persons",
        type=int,
        default=800,
        help="University population size (persons; courses scale along)",
    )
    parser.add_argument("--courses", type=int, default=120)
    parser.add_argument(
        "--rounds",
        type=int,
        default=3,
        help="passes over the request set per timed sample",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=5,
        help="timed samples per mode; the minimum is reported",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=1.5,
        help="required interpreted/compiled wall-time ratio (0 disables)",
    )
    parser.add_argument("--out", default="BENCH_compile.json")
    args = parser.parse_args(argv)

    qc_runtime.reset()
    # Result caching off for the fidelity and scan-timing phases; the
    # result_cache mode turns it back on explicitly.
    qc_runtime.config.result_cache_enabled = False

    print(
        f"loading University population (persons={args.persons}, "
        f"courses={args.courses}, backends={args.backends})..."
    )
    mlds = build_system(args.backends, args.persons, args.courses)
    requests = build_requests()

    fidelity = check_fidelity(mlds, requests)
    fidelity_ok = fidelity["simulated_identical"] and fidelity["records_identical"]
    print(
        f"fidelity over {fidelity['requests']} requests: "
        f"simulated_identical={fidelity['simulated_identical']} "
        f"records_identical={fidelity['records_identical']}"
    )

    best = time_modes(mlds, requests, args.rounds, args.repeat)
    n = len(requests) * args.rounds
    speedup = best["interpreted"] / max(best["compiled"], 1e-9)
    cache_speedup = best["interpreted"] / max(best["result_cache"], 1e-9)

    print("=== query compilation (University workload) ===")
    header = f"{'mode':>13}  {'wall s':>9}  {'req/s':>9}  {'speedup':>8}"
    print(header)
    print("-" * len(header))
    for mode in ("interpreted", "compiled", "result_cache"):
        ratio = best["interpreted"] / max(best[mode], 1e-9)
        print(
            f"{mode:>13}  {best[mode]:>9.4f}  {n / max(best[mode], 1e-9):>9.0f}  "
            f"{ratio:>7.2f}x"
        )

    key_lists = time_key_lists(args.rounds, args.repeat)
    print(f"=== key-list DNFs ({KEY_LIST_FILE_RECORDS}-record file) ===")
    header = f"{'clauses':>8}  {'interpreted ms':>15}  {'compiled ms':>12}  {'speedup':>8}"
    print(header)
    print("-" * len(header))
    for row in key_lists:
        print(
            f"{row['clauses']:>8}  {row['interpreted_ms']:>15.3f}  "
            f"{row['compiled_ms']:>12.3f}  {row['speedup_x']:>7.1f}x"
        )

    report = {
        "benchmark": "query_compile",
        "backends": args.backends,
        "persons": args.persons,
        "courses": args.courses,
        "requests": len(requests),
        "rounds": args.rounds,
        "repeat": args.repeat,
        "min_speedup": args.min_speedup,
        "fidelity": fidelity,
        "wall_s": best,
        "compiled_speedup_x": speedup,
        "result_cache_speedup_x": cache_speedup,
        "key_lists": key_lists,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")

    mlds.kds.shutdown()
    failed = False
    if not fidelity_ok:
        print(
            f"FAIL: compiled results diverge from interpreted: "
            f"{fidelity['mismatches']}",
            file=sys.stderr,
        )
        failed = True
    if args.min_speedup > 0 and speedup < args.min_speedup:
        print(
            f"FAIL: compiled speedup {speedup:.2f}x is below "
            f"--min-speedup {args.min_speedup}",
            file=sys.stderr,
        )
        failed = True
    for row in key_lists:
        if not row["identical"]:
            print(
                f"FAIL: {row['clauses']}-clause key list selects differently "
                f"compiled and interpreted",
                file=sys.stderr,
            )
            failed = True
        if args.min_speedup > 0 and row["speedup_x"] < args.min_speedup:
            print(
                f"FAIL: {row['clauses']}-clause key list compiled speedup "
                f"{row['speedup_x']:.2f}x is below --min-speedup {args.min_speedup}",
                file=sys.stderr,
            )
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
