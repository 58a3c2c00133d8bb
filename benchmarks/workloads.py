"""Shared dataset/workload helpers for the engine benchmarks.

``bench_cpu_scaling.py`` (GIL-free compiled scans) loads its farm and
runs its scans through the helpers below, so every engine it measures
sees the same data and its simulated times stay directly comparable.

The *mixed* read/write plan at the bottom is ``bench_mixed_workload.py``'s:
one deterministic op list per session, rendered to ABDL against the
kernel.
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # runnable as a plain script, too
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.abdl import parse_request
from repro.mbds import KernelDatabaseSystem


def build_kds(
    backends: int,
    records: int,
    engine: str,
    workers: int | None,
) -> KernelDatabaseSystem:
    """A loaded farm: one ``data`` file striped over *backends* backends."""
    kds = KernelDatabaseSystem(backend_count=backends, engine=engine, workers=workers)
    for i in range(records):
        kds.execute(
            parse_request(f"INSERT (<FILE, data>, <data, d${i}>, <x, {i % 97}>)")
        )
    kds.reset_clock()
    return kds


def scan_requests(requests: int) -> list:
    """Broadcast equality selections; distinct predicates defeat the
    result cache, so every request really scans."""
    return [
        parse_request(f"RETRIEVE ((FILE = data) AND (x = {i % 97})) (*)")
        for i in range(requests)
    ]


def run_workload(kds: KernelDatabaseSystem, requests: int) -> dict:
    """A scan-heavy workload: broadcast selections over the whole farm.

    Beyond the wall-clock/simulated totals, the per-request ``(count,
    total simulated ms)`` fingerprints come back so callers can assert
    bit-identical behavior across engines.
    """
    parsed = scan_requests(requests)
    fingerprints: list[tuple[int, float]] = []
    selected = 0
    start = time.perf_counter()
    for request in parsed:
        trace = kds.execute(request)
        selected += trace.result.count
        fingerprints.append((trace.result.count, trace.response.total_ms))
    wall_s = time.perf_counter() - start
    return {
        "wall_s": wall_s,
        "selected": selected,
        "fingerprints": fingerprints,
        "simulated": kds.clock.as_dict(),
    }


# -- the shared mixed read/write plan -------------------------------------------

#: Distinct selection keys in the mixed plan (small on purpose: every
#: read scans real rows and every key collides across sessions).
MIXED_KEYSPACE = 13


def mixed_op_plan(
    sessions: int,
    requests: int,
    read_fraction: float,
    seed: int = 7,
) -> list[list[tuple[str, int]]]:
    """A deterministic mixed workload: one op list per session.

    Each op is ``("read", key)`` or ``("write", key)`` with *key* drawn
    from :data:`MIXED_KEYSPACE`.  The plan depends only on the
    arguments, so two runs built from the same parameters execute the
    same ops in the same per-session order.
    """
    rng = random.Random(seed)
    return [
        [
            (
                "read" if rng.random() < read_fraction else "write",
                rng.randrange(MIXED_KEYSPACE),
            )
            for _ in range(requests)
        ]
        for _ in range(sessions)
    ]


def mixed_abdl(op: tuple[str, int], session_index: int, op_index: int, file_name: str):
    """Render one mixed-plan op as a parsed ABDL request."""
    kind, key = op
    if kind == "read":
        return parse_request(f"RETRIEVE ((FILE = {file_name}) AND (x = {key})) (*)")
    return parse_request(
        f"INSERT (<FILE, {file_name}>, "
        f"<data, s{session_index}w{op_index}>, <x, {key}>)"
    )

