"""CPU: real multi-core speedup of ProcessPoolEngine on compiled scans.

The workload is pure CPU — compiled predicate matching over every
backend's slice — which the GIL would serialize inside one process.
ProcessPoolEngine runs each backend's scan in its own process, so
records/s scales with cores.

Two gates:

* **bit-identity (always enforced)** — per-request result counts and
  simulated response times, the final simulated clock, and the merged
  selection totals must be identical across SerialEngine and
  ProcessPoolEngine.  Engine choice may never change results.
* **speedup (enforced on capable hosts)** — process records/s must reach
  ``--min-speedup`` (default 2.0) times serial at the largest farm.
  Checked only when the host has >= --min-cpus cores (default 4): on a
  single-core container the parallelism physically cannot pay, and a
  gate that cannot pass is a gate nobody runs.  The skip is loud.

Run standalone (writes ``BENCH_cpu.json``)::

    PYTHONPATH=src python benchmarks/bench_cpu_scaling.py
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

if __package__ in (None, ""):  # runnable as a plain script, too
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

try:  # shared dataset/workload builders (see workloads.py)
    from benchmarks.workloads import build_kds, run_workload
except ImportError:
    from workloads import build_kds, run_workload

ENGINES = ("serial", "process")


def bench_one(
    backends: int, records: int, requests: int, workers: int | None
) -> dict:
    row: dict = {"backends": backends, "records": records, "requests": requests}
    for engine in ENGINES:
        kds = build_kds(backends, records, engine, workers)
        try:
            result = run_workload(kds, requests)
        finally:
            kds.shutdown()
        # Throughput in scanned records/s: every request examines the
        # whole farm (distinct predicates defeat the result cache).
        result["records_per_s"] = (records * requests) / max(
            result["wall_s"], 1e-9
        )
        row[engine] = result
    serial = row["serial"]
    row["speedup_process"] = row["process"]["records_per_s"] / max(
        serial["records_per_s"], 1e-9
    )
    row["identical"] = all(
        row[engine]["fingerprints"] == serial["fingerprints"]
        and row[engine]["simulated"] == serial["simulated"]
        and row[engine]["selected"] == serial["selected"]
        for engine in ENGINES
    )
    return row


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--backends", type=int, nargs="*", default=[1, 2, 4])
    parser.add_argument("--records", type=int, default=6000)
    parser.add_argument("--requests", type=int, default=24)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=2.0,
        help="required process-over-serial records/s at the largest farm "
        "(0 disables)",
    )
    parser.add_argument(
        "--min-cpus",
        type=int,
        default=4,
        help="enforce the speedup gate only when the host has at least "
        "this many CPU cores (bit-identity is enforced regardless)",
    )
    parser.add_argument("--out", default="BENCH_cpu.json")
    args = parser.parse_args(argv)

    cpus = os.cpu_count() or 1
    rows = [
        bench_one(n, args.records, args.requests, args.workers)
        for n in args.backends
    ]

    print("=== CPU  process vs serial (compiled scans) ===")
    header = (
        f"{'backends':>8}  {'serial rec/s':>12}  "
        f"{'process x':>9}  {'identical':>9}"
    )
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['backends']:>8}  {row['serial']['records_per_s']:>12.0f}  "
            f"{row['speedup_process']:>9.2f}  "
            f"{str(row['identical']):>9}"
        )

    gate_enforced = args.min_speedup > 0 and cpus >= args.min_cpus
    report = {
        "benchmark": "cpu_scaling",
        "cpus": cpus,
        "min_speedup": args.min_speedup,
        "speedup_gate_enforced": gate_enforced,
        "rows": rows,
    }
    if not gate_enforced:
        # Machine-readable skip: summarize.py renders this as SKIP, so an
        # unenforced gate can never read as a silent pass in CI output.
        report["skipped_reason"] = (
            "speedup gate disabled (--min-speedup 0)"
            if args.min_speedup <= 0
            else (
                f"speedup gate unenforced: host has {cpus} CPU core(s), "
                f"needs >= {args.min_cpus} (bit-identity still enforced)"
            )
        )
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")

    bad = [r for r in rows if not r["identical"]]
    if bad:
        print(
            "FAIL: results/simulated times differ across engines at "
            f"{[r['backends'] for r in bad]} backends",
            file=sys.stderr,
        )
        return 1
    if args.min_speedup > 0:
        if cpus < args.min_cpus:
            print(
                f"SKIP speedup gate: host has {cpus} CPU core(s), "
                f"needs >= {args.min_cpus} for multi-core scaling "
                "(bit-identity was still enforced)"
            )
        else:
            top = rows[-1]
            if top["speedup_process"] < args.min_speedup:
                print(
                    f"FAIL: process speedup {top['speedup_process']:.2f}x at "
                    f"{top['backends']} backends, below {args.min_speedup}x",
                    file=sys.stderr,
                )
                return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
