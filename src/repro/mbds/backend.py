"""An MBDS backend (slave): one store, one executor, one simulated disk.

Backends have identical software and their own disks (thesis I.B.2).  Each
backend owns an :class:`~repro.abdm.store.ABStore` holding its slice of
every file and executes each broadcast request against that slice,
reporting the result, the simulated time spent, and the real wall-clock
time spent.

Concurrency: a per-backend lock serializes requests *within* a backend,
so store mutation, the ``ScanStats`` delta read, and ``busy_ms``
accumulation are race-free.  Concurrent server sessions reach one
backend from several executor threads at once: lock-free snapshot reads
take no kernel lock, so a reader and a writer (or two readers) can be
inside the same backend together.  Stores are partitioned one-per-backend
(no sharing), so the lock never spans backends.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from typing import Any, Callable, Mapping, Optional, Sequence

from repro.abdl.aggregates import is_aggregate
from repro.abdl.ast import (
    BulkInsertRequest,
    DeleteRequest,
    InsertRequest,
    Request,
    RetrieveRequest,
    UpdateRequest,
)
from repro.abdl.executor import Executor, RequestResult
from repro.abdm.plan import AttributeIndexDigest
from repro.abdm.record import Record
from repro.abdm.store import ABStore
from repro.mbds.timing import TimingModel
from repro.obs import ObsSpec, resolve_obs
from repro.qc.lru import LRUCache, MISSING
from repro.qc import runtime as qc_runtime

#: Builds the record store of one backend; lets callers swap the plain
#: scan store for a directory-clustered one (see repro.abdm.directory).
StoreFactory = Callable[[], ABStore]

#: Largest result (in records) the result cache admits.  An entry shares
#: the store's sealed records instead of copying them, but it owns the
#: rows a projection built (an uncapped 4 000-row, four-column SELECT
#: held 1.0 MB; a ``*`` read of as many, 0.04 MB) and it pins records an
#: UPDATE has since replaced.  The cap keeps that set by entry count, not
#: by the widest SELECT anyone ever ran.
RESULT_CACHE_MAX_RECORDS = 256

#: RETRIEVE results each backend's cache keeps.
RESULT_CACHE_SIZE = 128

#: Request types that change what a backend's slice contains (and so
#: open a version delta for each file they touch).
_MUTATING_REQUESTS = (InsertRequest, BulkInsertRequest, DeleteRequest, UpdateRequest)


@dataclass
class _CachedRetrieve:
    """One result-cache entry: the result plus its full cost accounting.

    *result* is the computed result itself — its lists, the sealed
    records they share with the store, and an aggregate's fold; a hit
    hands out a new list of the same records and the same fold.
    *signature* is the store's epoch signature at compute time; an
    entry only serves while the signature still matches (any
    mutation of a contributing file bumps an epoch and strands the
    entry).  The cost fields are replayed on a hit so cumulative
    ScanStats and simulated time stay bit-identical to an uncached run.
    """

    signature: tuple
    result: RequestResult
    elapsed_ms: float
    examined: int
    index_hits: int
    touched: int
    range_hits: int = 0
    fallback_scans: int = 0


@dataclass
class BackendResult:
    """One backend's contribution to a request: its result plus elapsed time.

    *elapsed_ms* is simulated (timing-model) time; *wall_ms* is the real
    time the backend spent executing, measured with ``perf_counter``.
    *records_examined* / *index_hits* / *range_hits* / *fallback_scans*
    are this request's slice of the store's scan accounting (deltas, not
    cumulative totals), surfaced so per-backend trace spans can explain
    their own cost and access-path choice.
    """

    backend_id: int
    result: RequestResult
    elapsed_ms: float
    wall_ms: float = 0.0
    records_examined: int = 0
    index_hits: int = 0
    range_hits: int = 0
    fallback_scans: int = 0


class Backend:
    """A single database backend with a dedicated (simulated) disk."""

    def __init__(
        self,
        backend_id: int,
        timing: TimingModel,
        store_factory: Optional[StoreFactory] = None,
    ) -> None:
        self.backend_id = backend_id
        self.timing = timing
        self.store = store_factory() if store_factory else ABStore()
        self.executor = Executor(self.store)
        #: Cumulative simulated busy time, for utilization reporting.
        self.busy_ms = 0.0
        #: Cumulative real execution time.
        self.busy_wall_ms = 0.0
        #: Serializes this backend's requests: server sessions reach it
        #: from several executor threads, and snapshot reads take no
        #: kernel lock (see the module docstring).
        self._lock = threading.Lock()
        self._result_cache = LRUCache(RESULT_CACHE_SIZE, prefix="qc.result")

    def bind_obs(self, obs: ObsSpec) -> None:
        """Attach observability: store compile-cache + result-cache metrics."""
        self.store.bind_obs(obs)
        self._result_cache.bind_metrics(resolve_obs(obs).metrics)

    def cache_snapshots(self) -> dict[str, dict[str, object]]:
        """Per-layer cache counters for the ``.caches`` dot-command."""
        return {
            "compile": self.store.cache_snapshot(),
            "result": self._result_cache.snapshot(),
        }

    def execute(self, request: Request, snapshot: Optional[int] = None) -> BackendResult:
        """Execute *request* on this backend's slice, charging scan time.

        An aggregate RETRIEVE answers with this slice's fold — one
        partial state per group in ``result.groups`` — and the controller
        merges the farm's folds; ``result.count`` is still the records
        matched, which is what the scan is charged for.

        RETRIEVEs, aggregate or not, are served from the epoch-guarded
        result cache when possible.  A hit replays the original run's
        full accounting — simulated elapsed and examined/index-hit/touched
        deltas — so cumulative stats and the timing model see
        bit-identical figures whether or not the cache fired.

        With *snapshot* set the read executes against the committed
        state at that commit seq (MVCC).  The result cache still serves
        — but only when every queried file's live state is valid at the
        snapshot (``snapshot_live``); a file superseded past the
        snapshot forces the uncached snapshot path.
        """
        with self._lock:
            use_cache = (
                type(request) is RetrieveRequest
                and qc_runtime.config.result_cache_enabled
            )
            if use_cache and snapshot is not None:
                use_cache = self.store.snapshot_live(
                    request.query.file_names(), snapshot
                )
            if not use_cache:
                return self._execute_locked(request, snapshot)
            key = request.render()
            signature = self.store.epoch_signature(request.query.file_names())
            entry = self._result_cache.get(key)
            if entry is not MISSING and entry.signature == signature:
                return self._replay_cached(entry)
            touched_before = self.store.stats.records_touched
            backend_result = self._execute_locked(request, snapshot)
            if backend_result.result.count > RESULT_CACHE_MAX_RECORDS:
                return backend_result
            touched = self.store.stats.records_touched - touched_before
            self._result_cache.put(
                key,
                _CachedRetrieve(
                    signature,
                    backend_result.result,
                    backend_result.elapsed_ms,
                    backend_result.records_examined,
                    backend_result.index_hits,
                    touched,
                    backend_result.range_hits,
                    backend_result.fallback_scans,
                ),
            )
            return backend_result

    def _execute_locked(
        self, request: Request, snapshot: Optional[int] = None
    ) -> BackendResult:
        start = time.perf_counter()
        before = self.store.stats.copy()
        mutating = isinstance(request, _MUTATING_REQUESTS)
        if mutating:
            # Version capture: the store opens a version delta for each
            # file this request touches, sealed with the commit seq once
            # the transaction is durable (or rolled back with on abort).
            self.store._capture = True
        try:
            if is_aggregate(request):
                result = self.executor.fold(request, snapshot)
            else:
                result = self.executor.execute(request, snapshot=snapshot)
        finally:
            if mutating:
                self.store._capture = False
        stats = self.store.stats
        examined = stats.records_examined - before.records_examined
        index_hits = stats.index_hits - before.index_hits
        range_hits = stats.range_hits - before.range_hits
        fallback_scans = stats.fallback_scans - before.fallback_scans
        if isinstance(request, InsertRequest):
            elapsed = self.timing.backend_insert_ms()
        elif isinstance(request, BulkInsertRequest):
            # Simulated cost stays per-record — the bulk path saves real
            # journaling/fsync work, not modeled disk work — so simulated
            # totals remain engine- and path-independent.
            elapsed = self.timing.backend_insert_ms() * len(request.records)
        else:
            selected = result.count
            elapsed = self.timing.backend_scan_ms(examined, selected)
        wall_ms = (time.perf_counter() - start) * 1000.0
        self.busy_ms += elapsed
        self.busy_wall_ms += wall_ms
        return BackendResult(
            self.backend_id,
            result,
            elapsed,
            wall_ms,
            examined,
            index_hits,
            range_hits,
            fallback_scans,
        )

    def _replay_cached(self, entry: _CachedRetrieve) -> BackendResult:
        start = time.perf_counter()
        stats = self.store.stats
        stats.records_examined += entry.examined
        stats.index_hits += entry.index_hits
        stats.range_hits += entry.range_hits
        stats.fallback_scans += entry.fallback_scans
        stats.records_touched += entry.touched
        wall_ms = (time.perf_counter() - start) * 1000.0
        self.busy_ms += entry.elapsed_ms
        self.busy_wall_ms += wall_ms
        cached = entry.result
        return BackendResult(
            self.backend_id,
            RequestResult(
                cached.operation, list(cached.records), cached.count, cached.groups
            ),
            entry.elapsed_ms,
            wall_ms,
            entry.examined,
            entry.index_hits,
            entry.range_hits,
            entry.fallback_scans,
        )

    # -- durability support -----------------------------------------------------

    def replay(self, request: Request) -> None:
        """Re-apply a journaled mutation without timing or result accounting.

        Recovery is not a workload: no simulated or wall time is charged
        — the store is simply brought back to the state the journal
        proves it reached.  Routing the op through the executor keeps
        hash indexes and clustering maintained exactly as they were
        during the original execution.
        """
        with self._lock:
            self.executor.execute(request)

    def restore(self, rows: Sequence[Mapping[str, Any]]) -> None:
        """Load this backend's slice of a checkpoint snapshot.

        *rows* are the snapshot's rows as parsed —
        ``{"pairs": [[attribute, value], ...], "text": ...}`` — and go
        into the store in one ``bulk_insert``, which builds indexes and
        clustering collect-then-sort-once.  Like :meth:`replay`, no time
        is charged.
        """
        with self._lock:
            self.store.bulk_insert(
                Record.from_pairs(row["pairs"], text=row["text"]) for row in rows
            )

    # -- version chains (MVCC snapshot reads) ------------------------------------

    def seal_versions(
        self, files: Optional[list], seq: int, watermark: int
    ) -> None:
        """Stamp this slice's pending version entries with commit *seq*."""
        with self._lock:
            self.store.seal_versions(files, seq, watermark)

    def rollback(self, files: Optional[list]) -> int:
        """Undo a transaction's writes to *files* (session abort).

        *files* is the transaction's write set (None = it wrote
        unpinned, under the global exclusive lock, so every pending
        entry is its own).  The store turns each back with the pending
        version delta it recorded since the first write; returns how many
        files this slice rolled back.
        """
        with self._lock:
            return len(self.store.rollback_pending(files))

    def charge_access(self) -> tuple[float, float]:
        """Charge one simulated disk access (the aggregate fast path).

        Returns ``(simulated_ms, wall_ms)`` and keeps the busy counters
        consistent with normal execution.
        """
        with self._lock:
            start = time.perf_counter()
            elapsed = self.timing.access_ms
            wall_ms = (time.perf_counter() - start) * 1000.0
            self.busy_ms += elapsed
            self.busy_wall_ms += wall_ms
            return elapsed, wall_ms

    def aggregate_probe(
        self,
        file_name: str,
        attributes: Sequence[str],
        snapshot: Optional[int] = None,
    ) -> Optional[tuple[dict[str, AttributeIndexDigest], int]]:
        """Index digests + record count for the aggregate fast path.

        None means some attribute's index cannot vouch for this file on
        this backend (unindexed, planning disabled, or populated before
        indexing) and the whole request must take the scan path.
        The probe itself reads only index metadata — no records — which
        is why the fast path charges a single disk access per backend.
        A snapshot read can only use the digests when the file's live
        state is valid at the snapshot; otherwise it falls back to the
        scan path, which corrects for the version deltas.
        """
        with self._lock:
            if snapshot is not None and not self.store.snapshot_live(
                [file_name], snapshot
            ):
                return None
            digests: dict[str, AttributeIndexDigest] = {}
            for attribute in attributes:
                digest = self.store.index_digest(file_name, attribute)
                if digest is None:
                    return None
                digests[attribute] = digest
            return digests, self.store.count(file_name)

    def record_count(self) -> int:
        """Records resident on this backend."""
        return self.store.count()

    def __repr__(self) -> str:
        return f"Backend({self.backend_id}, {self.record_count()} records)"
