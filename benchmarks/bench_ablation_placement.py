"""Ablation: why MBDS spreads every file across all backends.

DESIGN.md calls out MBDS's data placement as a load-bearing choice: the
reciprocal-speedup claim only holds because *each file* is partitioned
over the whole farm.  The ablation replaces round-robin placement with a
file-affinity policy (each file wholly on one backend) and re-runs the
FIG-1.3-a sweep: single-file selections stop speeding up entirely.
"""

from __future__ import annotations

import pytest

from repro.abdl import parse_request
from repro.abdm.record import Record
from repro.mbds import KernelDatabaseSystem, RoundRobinPlacement

from .conftest import print_series

BACKENDS = [1, 2, 4, 8]
RECORDS = 1600
QUERY = "RETRIEVE ((FILE = data) AND (x = 13)) (*)"


class FileAffinityPlacement(RoundRobinPlacement):
    """Places each *file* wholly on one backend (by its name).

    This is the anti-pattern MBDS's data placement avoids: a request over
    one file is served by a single backend, so broadcast parallelism buys
    nothing.
    """

    def place(self, record: Record, backend_count: int) -> int:
        file_name = record.file_name or ""
        return sum(file_name.encode()) % backend_count


def build(backends: int, placement=None) -> KernelDatabaseSystem:
    kds = KernelDatabaseSystem(backend_count=backends, placement=placement)
    for i in range(RECORDS):
        kds.execute(
            parse_request(f"INSERT (<FILE, data>, <data, d${i}>, <x, {i % 97}>)")
        )
    kds.reset_clock()
    return kds


def response_ms(kds: KernelDatabaseSystem) -> float:
    return kds.execute(parse_request(QUERY)).response.total_ms


@pytest.fixture(scope="module")
def ablation_series():
    rows = []
    for backends in BACKENDS:
        spread = response_ms(build(backends))
        clustered = response_ms(build(backends, FileAffinityPlacement()))
        rows.append((backends, round(spread, 1), round(clustered, 1)))
    print_series(
        "ABLATION  placement policy: spread (round-robin) vs file-affinity",
        ["backends", "spread ms", "file-affinity ms"],
        rows,
    )
    return rows


class TestAblationShape:
    def test_spread_placement_scales(self, ablation_series):
        times = [row[1] for row in ablation_series]
        assert times[-1] < times[0] / 4  # 8 backends ≥ 4x faster

    def test_file_affinity_does_not_scale(self, ablation_series):
        times = [row[2] for row in ablation_series]
        # The whole file sits on one backend: adding backends changes
        # nothing for a single-file request.
        assert max(times) / min(times) < 1.05

    def test_spread_beats_affinity_at_scale(self, ablation_series):
        for backends, spread, clustered in ablation_series:
            if backends >= 2:
                assert spread < clustered


class TestAblationLatency:
    @pytest.mark.parametrize("policy", ["spread", "affinity"])
    def test_benchmark(self, benchmark, ablation_series, policy):
        placement = FileAffinityPlacement() if policy == "affinity" else None
        kds = build(4, placement)
        request = parse_request(QUERY)
        benchmark(lambda: kds.execute(request))
        benchmark.extra_info["placement"] = policy
