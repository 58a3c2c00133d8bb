"""The staged bulk-ingest pipeline.

:class:`IngestPipeline` pulls records from any iterable — typically the
streaming generator in :mod:`repro.ingest.generator` — in fixed-size
batches and drives each batch through the kernel's BULK-INSERT path:

====================  =====================================================
stage                 where it runs
====================  =====================================================
``generate``          here: pull the next batch off the stream
``route``             controller: placement partitions the batch by backend
                      (``bulk.route`` span)
``journal``           WAL: one BULK-INSERT log record per target backend
                      (``wal.bulk_append`` spans), commit records shared
                      across concurrent committers by group commit
``apply``             engine: one store call per backend (``bulk.apply``
                      span), concurrently under thread/process engines
``index``             store: deferred hash/range index + clustering build,
                      sorted once per batch inside ``apply``
====================  =====================================================

The pipeline never materializes the stream: memory is bounded by one
batch regardless of the total record count.  Per-stage wall time is
measured here for ``generate`` and the kernel round-trip (``submit`` =
route + journal + apply + index); WAL counters (fsyncs, commits, group
commits) are read as deltas off the kernel's metrics registry, so the
report works out fsyncs-per-commit without any extra bookkeeping.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.abdm.record import Record
    from repro.mbds.kds import KernelDatabaseSystem
    from repro.mbds.sessions import KernelSession

#: WAL counters the report tracks as before/after deltas.
_WAL_COUNTERS = ("wal.fsyncs", "wal.commits", "wal.group_commits", "wal.bulk_ops")


@dataclass
class IngestReport:
    """What one pipeline run did, and how fast."""

    records: int
    batches: int
    batch_size: int
    wall_ms: float
    generate_ms: float
    submit_ms: float
    simulated_ms: float
    fsyncs: int
    commits: int
    group_commits: int
    journal_records: int

    @property
    def records_per_second(self) -> float:
        if self.wall_ms <= 0.0:
            return 0.0
        return self.records / (self.wall_ms / 1000.0)

    @property
    def fsyncs_per_commit(self) -> float:
        if self.commits == 0:
            return 0.0
        return self.fsyncs / self.commits

    def as_dict(self) -> dict:
        return {
            "records": self.records,
            "batches": self.batches,
            "batch_size": self.batch_size,
            "wall_ms": round(self.wall_ms, 3),
            "generate_ms": round(self.generate_ms, 3),
            "submit_ms": round(self.submit_ms, 3),
            "simulated_ms": round(self.simulated_ms, 3),
            "records_per_second": round(self.records_per_second, 1),
            "fsyncs": self.fsyncs,
            "commits": self.commits,
            "group_commits": self.group_commits,
            "fsyncs_per_commit": round(self.fsyncs_per_commit, 3),
            "journal_records": self.journal_records,
        }


class IngestPipeline:
    """Batch a record stream through the kernel's bulk-insert path."""

    def __init__(
        self,
        kds: "KernelDatabaseSystem",
        batch_size: int = 10_000,
        session: Optional["KernelSession"] = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("ingest batch size must be at least 1")
        self.kds = kds
        self.batch_size = batch_size
        #: Optional kernel session: each batch then runs under kernel
        #: concurrency control (file locks, session-owned transactions),
        #: letting several pipelines ingest disjoint streams in parallel.
        self.session = session

    def _wal_counters(self) -> dict[str, float]:
        registry = self.kds.obs.metrics.as_dict()
        return {
            name: payload.get("value", 0.0)
            for name in _WAL_COUNTERS
            if (payload := registry.get(name)) is not None
        }

    def run(self, records: Iterable["Record"]) -> IngestReport:
        """Ingest the whole stream; returns the run's :class:`IngestReport`."""
        obs = self.kds.obs
        metrics = obs.metrics
        before = self._wal_counters()
        stream = iter(records)
        total = batches = 0
        generate_ms = submit_ms = simulated_ms = 0.0
        start = time.perf_counter()
        while True:
            pulled = time.perf_counter()
            with obs.tracer.span("ingest.generate"):
                batch = list(islice(stream, self.batch_size))
            generate_ms += (time.perf_counter() - pulled) * 1000.0
            if not batch:
                break
            submitted = time.perf_counter()
            with obs.tracer.span("ingest.submit") as span:
                trace = self.kds.bulk_insert(batch, session=self.session)
                if span:
                    span.record(records=len(batch), batch=batches)
            submit_ms += (time.perf_counter() - submitted) * 1000.0
            total += len(batch)
            batches += 1
            simulated_ms += trace.response.total_ms
            if metrics.enabled:
                metrics.inc("ingest.records", len(batch))
                metrics.inc("ingest.batches")
                metrics.observe("ingest.batch_wall_ms", trace.wall_ms)
        wall_ms = (time.perf_counter() - start) * 1000.0
        after = self._wal_counters()
        delta = {
            name: int(after.get(name, 0.0) - before.get(name, 0.0))
            for name in _WAL_COUNTERS
        }
        return IngestReport(
            records=total,
            batches=batches,
            batch_size=self.batch_size,
            wall_ms=wall_ms,
            generate_ms=generate_ms,
            submit_ms=submit_ms,
            simulated_ms=simulated_ms,
            fsyncs=delta["wal.fsyncs"],
            commits=delta["wal.commits"],
            group_commits=delta["wal.group_commits"],
            journal_records=delta["wal.bulk_ops"],
        )


def bulk_load(
    kds: "KernelDatabaseSystem",
    records: Iterable["Record"],
    batch_size: int = 10_000,
    session: Optional["KernelSession"] = None,
) -> IngestReport:
    """One-call form: ``IngestPipeline(...).run(records)``."""
    return IngestPipeline(kds, batch_size, session).run(records)
