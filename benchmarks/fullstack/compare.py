"""Compare two fullstack result files: ``compare.py A.json B.json``.

Each file is what ``run.py --out FILE --runs N`` wrote.  ``compare.py
A.json B.json --baseline FILE`` also stores the two sets in one file (the
committed ``baselines/<fingerprint>.json``), and ``compare.py FILE`` on
such a file compares the two sets in it.  One row per
(workload, end-to-end metric): both sides' median and quartiles over
their runs, the bound from ``BENCHMARK.json``, and a verdict for B
against A —

* ``worse``: B's median is worse than A's by more than the bound;
* ``better``: B's median is better by more than the distance between
  A's own quartiles, and no run of B reads worse than A's median;
* ``unresolved``: either side's run-to-run spread (quartile distance over
  median) exceeds the bound and the two sides' runs interleave, so the
  medians cannot be told apart;
* ``same`` otherwise.

Every ratio is printed with its base (A's median).  Where both files hold
traced runs, the per-layer budget delta follows.  Exit status 1 when any
row is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

MANIFEST = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def quartiles(values: list) -> tuple:
    """``(q1, median, q3)``; a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def collect(report: dict) -> dict:
    """``{(workload, traced): {metric: [value per run]}}``."""
    out: dict = {}
    for run in report["runs"]:
        cell = out.setdefault((run["workload"], run["traced"]), {})
        for name, metric in run["metrics"].items():
            cell.setdefault(name, []).append(metric["value"])
    return out


def verdict(a: list, b: list, better: str, bound: float) -> tuple:
    """``(verdict, B/A ratio)`` of one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0  # worse = sign * (b - a) > 0
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    if a_med == 0:
        return ("same" if b_med == 0 else "worse"), float("nan")
    worsening = sign * (b_med - a_med) / abs(a_med)
    spread = max((a_q3 - a_q1) / abs(a_med), (b_q3 - b_q1) / abs(b_med or a_med))
    interleave = not (max(b) < min(a) or max(a) < min(b))
    if spread > bound and interleave:
        return "unresolved", b_med / a_med
    if worsening > bound:
        return "worse", b_med / a_med
    gain = -worsening * abs(a_med)
    if gain > (a_q3 - a_q1) and all(sign * (value - a_med) <= 0 for value in b):
        return "better", b_med / a_med
    return "same", b_med / a_med


def main(argv: list) -> int:
    baseline = None
    if "--baseline" in argv:
        at = argv.index("--baseline")
        baseline = argv[at + 1]
        argv = argv[:at] + argv[at + 2 :]
    if len(argv) == 1:
        sets = json.loads(Path(argv[0]).read_text())["sets"]
        names = [f"{argv[0]}[A]", f"{argv[0]}[B]"]
    elif len(argv) == 2:
        sets = {key: json.loads(Path(path).read_text()) for key, path in zip("AB", argv)}
        names = argv
    else:
        print(__doc__)
        return 2
    if baseline is not None:
        Path(baseline).write_text(json.dumps({"sets": sets}, indent=1))
    manifest = json.loads(MANIFEST.read_text())
    a, b = collect(sets["A"]), collect(sets["B"])
    bad = 0
    print(f"A = {names[0]}\nB = {names[1]}\n")
    header = (
        f"{'workload':<18} {'metric':<24} {'unit':<5} "
        f"{'A q1 / median / q3':>34} {'B q1 / median / q3':>34} "
        f"{'B/A':>7} {'bound':>6}  verdict"
    )
    print(header)
    for workload in manifest["workloads"]:
        key = (workload["name"], False)
        if key not in a or key not in b:
            continue
        for entry in manifest["end_to_end"]:
            name = entry["name"]
            if name not in a[key] or name not in b[key]:
                continue
            result, ratio = verdict(a[key][name], b[key][name], entry["better"], entry["bound"])
            bad += result in ("worse", "unresolved")
            cells = [
                " / ".join(f"{value:.5g}" for value in quartiles(side[key][name]))
                for side in (a, b)
            ]
            print(
                f"{workload['name']:<18} {name:<24} {entry['unit']:<5} "
                f"{cells[0]:>34} {cells[1]:>34} {ratio:>7.3f} "
                f"{entry['bound']:>6.2f}  {result} "
                f"(B/A of A's median {quartiles(a[key][name])[1]:.5g} {entry['unit']}; "
                f"n={len(a[key][name])}/{len(b[key][name])})"
            )
    for workload in manifest["workloads"]:
        key = (workload["name"], True)
        if key not in a or key not in b:
            continue
        print(f"\nper-layer budget delta, {workload['name']} (traced; medians)")
        for entry in manifest["per_layer"]:
            name = entry["name"]
            if name not in a[key] or name not in b[key]:
                continue
            a_med = quartiles(a[key][name])[1]
            b_med = quartiles(b[key][name])[1]
            if a_med == b_med == 0:
                continue
            ratio = f"{b_med / a_med:.3f}x of A's {a_med:.5g}" if a_med else "A is 0"
            print(
                f"  {name:<44} {a_med:>12.5g} -> {b_med:>12.5g} {entry['unit']:<6} "
                f"delta {b_med - a_med:+.5g} ({ratio})"
            )
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
