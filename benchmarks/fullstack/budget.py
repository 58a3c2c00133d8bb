"""Per-layer metrics of one traced run: the layer budget.

Folds what a traced run collected from outside the program — span
summaries of the generator and of the launcher (see :mod:`trace`), two
scrapes of the public ``metrics`` op around the timed phase, the size of
the WAL directory, ping round trips — into the ``per_layer`` names of
``BENCHMARK.json``.  A layer the workload never enters reports zero
calls; it is never left out.

Every ``*_self_s`` is total self time over the timed phase and comes
with its ``*_calls``.  Per statement class (``sql.read``, ``txn`` …)::

    Σ client round trips = client codec self + Σ server-side self
                           + server.unattributed_s

so ``server.unattributed_s`` is what no wrapped callable covers: socket
reads and writes, the event loop, the ``run_in_executor`` hop.
"""

from __future__ import annotations

import statistics

#: Spans reported as ``<span>_self_s`` / ``<span>_calls`` …
SELF_SPANS = (
    "server.protocol.decode", "server.protocol.encode", "core.session.run",
    "relational.sql.parse", "functional.daplex_dml.parse", "network.dml.parse",
    "hierarchical.dli.parse", "mbds.kds.execute", "mbds.kds.commit",
    "mbds.engine.run", "mbds.backend.execute", "abdm.store.find",
    "abdm.store.write", "wal.log.append", "wal.log.commit",
)
#: … and the whole-module ones, spelled ``<span>.self_s`` / ``<span>.calls``.
MODULE_SPANS = (
    "kms.sql_engine", "kms.daplex_engine", "kms.engine", "kms.dli_engine",
    "kc.controller", "mbds.controller", "ipc.codec",
)
LANGUAGES = ("sql", "daplex", "codasyl", "dli")


def _sum(summary: dict, name: str, field: int, prefix: str = "") -> float:
    """Field of *name* summed over statement classes starting with *prefix*."""
    return sum(
        rows[name][field]
        for label, rows in summary.items()
        if name in rows and label.startswith(prefix)
    )


def _counter(scrape: dict, name: str) -> float:
    return scrape["obs"]["metrics"].get(name, {}).get("value", 0.0)


def _prefixed(scrape: dict, prefix: str, suffix: str) -> float:
    return sum(
        payload.get("value", 0.0)
        for name, payload in scrape["obs"]["metrics"].items()
        if name.startswith(prefix) and name.endswith(suffix)
    )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def class_budget(client: dict, server: dict) -> dict:
    """``{class: {rtt_s, layers: {name: self_s}, unattributed_s, coverage}}``."""
    table = {}
    for label, rows in sorted(client.items()):
        call = rows.get("server.client.call")
        if call is None:
            continue
        layers = {"server.client.codec": rows.get("server.client.codec", [0.0])[0]}
        for name, row in sorted(server.get(label, {}).items()):
            layers[name] = row[0]
        unattributed = call[1] - sum(layers.values())
        table[label] = {
            "statements": call[2],
            "rtt_s": call[1],
            "layers": layers,
            "unattributed_s": unattributed,
            "coverage": 1.0 - _ratio(unattributed, call[1]),
        }
    return table


def per_layer(layer: dict, timed: list, detail: dict) -> dict:
    client, server = layer["client"], layer["server"]
    before, after = layer["before"], layer["after"]

    def delta(name: str) -> float:
        return _counter(after, name) - _counter(before, name)

    def delta_prefixed(prefix: str, suffix: str) -> float:
        return _prefixed(after, prefix, suffix) - _prefixed(before, prefix, suffix)

    out: dict = {}
    for spans, separator in ((SELF_SPANS, "_"), (MODULE_SPANS, ".")):
        for span in spans:
            out[f"{span}{separator}self_s"] = _sum(server, span, 0)
            out[f"{span}{separator}calls"] = _sum(server, span, 2)
    out["server.client.codec_self_s"] = _sum(client, "server.client.codec", 0)
    out["server.client.codec_calls"] = _sum(client, "server.client.codec", 2)

    statements = sum(t.executes for t in timed)
    rows_returned = sum(t.rows for t in timed)
    budget = class_budget(client, server)
    rtt = sum(row["rtt_s"] for row in budget.values())
    unattributed = sum(row["unattributed_s"] for row in budget.values())
    detail["budget"] = budget
    out["server.admission.wait_s"] = _sum(server, "server.admission.wait", 1)
    out["server.ping_rtt_p50_ms"] = statistics.median(layer["ping_ms"])
    out["server.reply_bytes_per_stmt"] = _ratio(
        _sum(server, "server.protocol.encode", 3), statements
    )
    out["server.unattributed_s"] = unattributed
    out["server.errors_total"] = (
        after["server"]["errors_total"] - before["server"]["errors_total"]
    )
    for language in LANGUAGES:
        # Over reads only: one class per language has one fixed fan-out,
        # so the count repeats exactly however many statements a run fits.
        out[f"kms.abdl_requests_per_stmt.{language}"] = _ratio(
            _sum(server, "kc.controller", 2, f"{language}.read"),
            _sum(server, "core.session.run", 2, f"{language}.read"),
        )
    retrieves = delta("kds.requests.retrieve") + delta("kds.requests.retrieve-common")
    out["mbds.kds.snapshot_read_frac"] = _ratio(delta("kds.snapshot_reads"), retrieves)
    waits_before = before["locks"]["wait_ms"]
    out["mbds.locks.wait_s"] = sum(
        histogram["sum"] - waits_before.get(mode, {}).get("sum", 0.0)
        for mode, histogram in after["locks"]["wait_ms"].items()
    ) / 1000.0
    out["mbds.locks.waited_frac"] = _ratio(
        after["locks"]["waited"] - before["locks"]["waited"],
        after["locks"]["acquired"] - before["locks"]["acquired"],
    )
    out["mbds.locks.deadlocks"] = (
        after["locks"]["deadlocks"] - before["locks"]["deadlocks"]
    )
    out["mbds.controller.backends_per_request"] = _ratio(
        delta("backend.requests"), _sum(server, "mbds.controller", 2)
    )
    out["abdm.store.records_examined_per_result"] = _ratio(
        delta("backend.records_examined"), rows_returned
    )
    probes = delta("backend.index_hits") + delta("index.range_hits")
    out["abdm.store.index_hit_frac"] = _ratio(probes, probes + delta("plan.fallback_scan"))
    for cache in ("compile", "parse", "translate", "result"):
        hits = delta_prefixed(f"qc.{cache}", ".hits")
        out[f"qc.{cache}.hit_frac"] = _ratio(
            hits, hits + delta_prefixed(f"qc.{cache}", ".misses")
        )
    out["qc.evictions"] = delta_prefixed("qc.", ".evictions")
    out["ipc.bytes_per_request"] = _ratio(
        _sum(server, "ipc.frame", 3), _sum(server, "mbds.kds.execute", 2)
    )
    commits = delta("wal.commits")
    out["wal.fsyncs_per_commit"] = _ratio(delta("wal.fsyncs"), commits)
    out["wal.bytes_per_commit"] = _ratio(layer["wal_after"] - layer["wal_before"], commits)

    recovery = layer["recovery"]
    out["wal.recovery.replay_s"] = _sum(recovery, "wal.recovery.replay", 1)
    out["wal.recovery.replayed_records"] = _sum(recovery, "wal.recovery.replay", 3)
    out["ingest.pipeline.generate_s"] = layer["ready"]["generate_s"]
    out["ingest.pipeline.submit_s"] = layer["ready"]["submit_s"]
    # Per call: the run checkpoints (and restarts) more than once.
    out["persistence.save_s"] = _ratio(
        _sum(layer["checkpoint"], "persistence.save", 1),
        _sum(layer["checkpoint"], "persistence.save", 2),
    )
    out["persistence.load_s"] = _ratio(
        _sum(recovery, "persistence.load", 1), _sum(recovery, "persistence.load", 2)
    )
    out["persistence.snapshot_bytes_per_user_byte"] = _ratio(
        layer["snapshot_bytes"], layer["user_bytes"]
    )
    out["budget.coverage"] = 1.0 - _ratio(unattributed, rtt)
    # Both rates are at the calibrators' reference speed (see run.py).
    out["trace.overhead_frac"] = 1.0 - _ratio(layer["traced_rate"], layer["reference_rate"])
    return out
