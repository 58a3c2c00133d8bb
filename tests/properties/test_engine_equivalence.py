"""Property: engine choice never changes behavior, to the bit.

Randomized mixed workloads — interleaved INSERT / RETRIEVE / aggregate
RETRIEVE / UPDATE / DELETE over two files, so mutations land mid-run
between reads — must produce bit-identical ``BackendResult``s (records,
ScanStats counters, simulated ``ResponseTime``) and the same final farm
state under SerialEngine and ProcessPoolEngine.  Values come from the
aggregate pitfall catalog (NaN payloads, ``-0.0``, ``1`` / ``1.0`` /
``True``, null, strings beside numbers), and everything is compared by
type and IEEE-754 image, so an aggregate merged from worker folds must
equal the in-process one to the bit.

Process workers are real forked processes, so the example budget is kept
modest; the determinism burden is carried by comparing *complete*
fingerprints per request, not by running many examples.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.abdl import parse_request
from repro.abdl.ast import InsertRequest
from repro.abdm.record import Record
from repro.mbds import KernelDatabaseSystem
from repro.obs import Observability
from tests.abdl.aggregate_oracle import PITFALLS, value_bits

FILES = ("alpha", "beta")

#: BY keys: the catalog without its NaNs.  Groups are keyed as a dict
#: keys them, so NaN keys group by object identity, and a NaN that
#: crossed a worker pipe is a new object: NaN keys group differently per
#: engine, with folds as with shipped records.  ``test_fold_merge.py``
#: covers them in-process.
GROUP_KEYS = tuple(value for value in PITFALLS if value == value)

X_VALUES = PITFALLS + tuple(range(6))

AGGREGATES = ("COUNT(*)", "COUNT(x)", "SUM(x)", "AVG(x)", "MIN(x)", "MAX(x)")

#: Every aggregate, with and without BY, over both files.
CLOSING_AGGREGATES = (
    f"RETRIEVE ((FILE = alpha) OR (FILE = beta)) ({', '.join(AGGREGATES)})",
    f"RETRIEVE ((FILE = alpha) OR (FILE = beta)) (g, {', '.join(AGGREGATES)}) BY g",
)


@st.composite
def workloads(draw):
    """An interleaved request script over two files."""
    script: list = []
    serial = 0
    for _ in range(draw(st.integers(6, 14))):
        kind = draw(
            st.sampled_from(
                ["insert", "insert", "insert", "retrieve", "aggregate", "update", "delete"]
            )
        )
        file_name = draw(st.sampled_from(FILES))
        value = draw(st.integers(0, 5))
        if kind == "insert":
            pairs = [("FILE", file_name), (file_name, f"r${serial}")]
            pairs.append(("x", draw(st.sampled_from(X_VALUES))))
            pairs.append(("g", draw(st.sampled_from(GROUP_KEYS))))
            script.append(InsertRequest(Record.from_pairs(pairs)))
            serial += 1
        elif kind == "retrieve":
            operator = draw(st.sampled_from(["=", ">=", "<"]))
            script.append(
                f"RETRIEVE ((FILE = {file_name}) AND (x {operator} {value})) (*)"
            )
        elif kind == "aggregate":
            targets = ", ".join(
                draw(st.lists(st.sampled_from(AGGREGATES), min_size=1, max_size=3))
            )
            query = draw(
                st.sampled_from(
                    [f"(FILE = {file_name})", f"((FILE = {file_name}) AND (x >= {value}))"]
                )
            )
            by = draw(st.sampled_from(["", " BY g"]))
            script.append(f"RETRIEVE {query} ({targets}){by}")
        elif kind == "update":
            script.append(
                f"UPDATE ((FILE = {file_name}) AND (x = {value})) (x = x + 1)"
            )
        else:
            script.append(f"DELETE ((FILE = {file_name}) AND (x = {value}))")
    script.append("RETRIEVE ((FILE = alpha) OR (FILE = beta)) (*)")
    script.extend(CLOSING_AGGREGATES)
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
            fingerprint(
                kds.execute(parse_request(step) if isinstance(step, str) else step)
            )
            for step in script
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
    assert value_bits(run(script, "process", workers=2)) == value_bits(
        run(script, "serial")
    )


def test_cached_aggregate_replays_bit_identically():
    """The same aggregate twice: the second is a result-cache hit on every
    backend, and returns the first's rows and simulated time to the bit,
    on either engine."""
    inserts = [
        InsertRequest(
            Record.from_pairs(
                [("FILE", "alpha"), ("x", x), ("g", GROUP_KEYS[i % len(GROUP_KEYS)])]
            )
        )
        for i, x in enumerate(X_VALUES)
    ]
    script = [*inserts, *CLOSING_AGGREGATES, *CLOSING_AGGREGATES]
    runs = {}
    for engine in ("serial", "process"):
        outcome = run(script, engine)
        first, second = outcome["fingerprints"][-4:-2], outcome["fingerprints"][-2:]
        assert value_bits(first) == value_bits(second)
        # Two aggregates, each a hit on both backends.
        assert outcome["metrics"]["qc.result.hits"]["value"] == 4
        runs[engine] = value_bits(outcome)
    assert runs["serial"] == runs["process"]
