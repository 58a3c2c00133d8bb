"""Property: engine choice never changes behavior, to the bit.

Randomized mixed workloads — interleaved INSERT / RETRIEVE / UPDATE /
DELETE over two files, so mutations land mid-run between reads — must
produce bit-identical ``BackendResult``s (records, ScanStats counters,
simulated ``ResponseTime``) and the same final farm state under
SerialEngine and ProcessPoolEngine.

Process workers are real forked processes, so the example budget is kept
modest; the determinism burden is carried by comparing *complete*
fingerprints per request, not by running many examples.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.abdl import parse_request
from repro.mbds import KernelDatabaseSystem
from repro.obs import Observability

FILES = ("alpha", "beta")


@st.composite
def workloads(draw):
    """An interleaved request script over two files."""
    script: list[str] = []
    serial = 0
    for _ in range(draw(st.integers(6, 14))):
        kind = draw(
            st.sampled_from(
                ["insert", "insert", "insert", "retrieve", "update", "delete"]
            )
        )
        file_name = draw(st.sampled_from(FILES))
        value = draw(st.integers(0, 5))
        if kind == "insert":
            script.append(
                f"INSERT (<FILE, {file_name}>, <{file_name}, r${serial}>, "
                f"<x, {value}>)"
            )
            serial += 1
        elif kind == "retrieve":
            operator = draw(st.sampled_from(["=", ">=", "<"]))
            script.append(
                f"RETRIEVE ((FILE = {file_name}) AND (x {operator} {value})) (*)"
            )
        elif kind == "update":
            script.append(
                f"UPDATE ((FILE = {file_name}) AND (x = {value})) (x = x + 1)"
            )
        else:
            script.append(f"DELETE ((FILE = {file_name}) AND (x = {value}))")
    script.append("RETRIEVE ((FILE = alpha) OR (FILE = beta)) (*)")
    return script


def fingerprint(trace):
    result = trace.result
    return (
        result.operation,
        result.count,
        [r.pairs() for r in result.records],
        trace.response.total_ms,
        trace.response.backend_ms,
        trace.response.controller_ms,
        tuple(trace.per_backend_ms),
    )


def run(script, engine, workers=None):
    # The metrics registry is the per-engine ledger of ScanStats
    # (backend.records_examined / index_hits) and every cache counter;
    # comparing it whole pins those alongside the per-request results.
    obs = Observability()
    kds = KernelDatabaseSystem(
        backend_count=2, engine=engine, workers=workers, obs=obs
    )
    try:
        fingerprints = [
            fingerprint(kds.execute(parse_request(text))) for text in script
        ]
        return {
            "fingerprints": fingerprints,
            "distribution": kds.controller.distribution(),
            "clock": kds.clock.as_dict(),
            "stores": [b.store.snapshot() for b in kds.controller.backends],
            # Histograms track *wall* milliseconds (non-deterministic);
            # counters/gauges are the deterministic half of the registry —
            # but for qc.compile.codegen, which counts the scan kernels a
            # *process* had to generate: it depends on what that process
            # compiled before and on how many processes share the work.
            "metrics": {
                name: payload
                for name, payload in obs.metrics.as_dict().items()
                if payload.get("type") in ("counter", "gauge")
                and name != "qc.compile.codegen"
            },
        }
    finally:
        kds.shutdown()


@settings(max_examples=10, deadline=None)
@given(workloads())
def test_serial_and_process_bit_identical(script):
    assert run(script, "process", workers=2) == run(script, "serial")
