"""Self-test of the fullstack benchmark (not collected by tier-1).

    PYTHONPATH=src python -m pytest benchmarks/fullstack/test_smoke.py -q

Runs ``run.py --smoke`` — every workload, plain and traced, sizes / 20,
T = 1 s — and checks that every name in ``BENCHMARK.json`` comes out
finite with nothing failed; then kills the server child in mid-run and
checks the benchmark fails loudly instead of hanging, and that neither
run leaves a process or a scratch directory behind.
"""

from __future__ import annotations

import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = [sys.executable, str(HERE / "run.py")]
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def _launchers() -> set:
    """Pids of every live serve.py (and so of anything it would orphan)."""
    pids = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            command = Path("/proc", entry, "cmdline").read_bytes()
        except OSError:
            continue
        if b"fullstack/serve.py" in command:
            pids.add(int(entry))
    return pids


def _scratch() -> list:
    work = ROOT / ".bench_work"
    return sorted(work.iterdir()) if work.is_dir() else []


def test_smoke_emits_every_metric(tmp_path):
    before = _scratch()
    out = tmp_path / "smoke.json"
    started = time.monotonic()
    done = subprocess.run(
        [*RUN, "--smoke", "--out", str(out)], capture_output=True, text=True, timeout=170
    )
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    # 20 interpreter launches alone cost ~10 s here; the limit is what
    # keeps a hang from passing, not a performance gate.
    assert elapsed < 90, f"smoke took {elapsed:.0f}s"

    report = json.loads(out.read_text())
    assert {"cores", "python", "platform", "commit"} <= set(report["fingerprint"])
    assert "sync=True" in report["settings"]["flush_policy"]
    runs = {(run["workload"], run["traced"]): run for run in report["runs"]}
    for workload in MANIFEST["workloads"]:
        for traced, section in ((False, "end_to_end"), (True, "per_layer")):
            run = runs[(workload["name"], traced)]
            assert run["correct"] and run["failed"] == 0, run["errors"]
            assert run["attempted"] >= 1
            assert run["seed"] == 1987 and run["detail"]["sizes"]
            assert set(run["metrics"]) == {entry["name"] for entry in MANIFEST[section]}
            for entry in MANIFEST[section]:
                metric = run["metrics"][entry["name"]]
                assert metric["unit"] == entry["unit"]
                assert math.isfinite(metric["value"]), entry["name"]
                if not traced:
                    assert metric["value"] > 0, entry["name"]
        spans = tmp_path / f"spans-{workload['name']}.jsonl"
        first = json.loads(spans.read_text().splitlines()[0])
        assert {"name", "start", "end", "parent", "class", "process"} <= set(first)
        budget = runs[(workload["name"], True)]["detail"]["budget"]
        for row in budget.values():
            # Layer self times and the unattributed remainder make up the
            # client's round trips, per statement class.
            parts = sum(row["layers"].values()) + row["unattributed_s"]
            assert abs(parts - row["rtt_s"]) <= 0.01 * row["rtt_s"]
    assert not _launchers()
    assert _scratch() == before


def test_killed_server_is_a_failure_not_a_hang():
    before = _scratch()
    run = subprocess.Popen(
        [*RUN, "--smoke", "--workload", "oltp_sql"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        deadline = time.monotonic() + 60
        victims: set = set()
        while not victims and time.monotonic() < deadline and run.poll() is None:
            time.sleep(0.05)
            victims = _launchers()
        assert victims, "the benchmark never started a server"
        time.sleep(1.0)  # let it get past set-up, into traffic
        for pid in _launchers():
            os.kill(pid, signal.SIGKILL)
        stdout, stderr = run.communicate(timeout=120)
    finally:
        if run.poll() is None:
            run.kill()
    assert run.returncode != 0, stdout[-2000:]
    time.sleep(0.5)
    assert not _launchers(), "a launcher outlived the failed run"
    assert _scratch() == before
