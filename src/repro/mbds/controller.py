"""The MBDS backend controller (master).

The controller supervises transaction execution and user interfacing
(thesis I.B.2): it broadcasts each request over the communication bus to
every backend, collects their partial results, merges them, and accounts
for simulated response time.  Because the backends work in parallel, the
backend contribution to response time is the *maximum* of their individual
times, not the sum — this is the mechanism behind both MBDS performance
claims.

An :class:`~repro.mbds.engine.ExecutionEngine` decides how a broadcast
is dispatched in wall-clock terms — serially (default, deterministic)
or across worker processes — without affecting results or simulated
time.

INSERT requests are not broadcast: the round-robin placement policy
sends each new record to exactly one backend.  Every other request
reaches every backend; within each, the store's own directory (a
:class:`~repro.abdm.directory.ClusteredStore`) does the descriptor
search, as in the paper.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, TypeVar

from repro.abdl.aggregates import is_aggregate, merge_folds
from repro.abdl.ast import (
    BulkInsertRequest,
    DeleteRequest,
    InsertRequest,
    Request,
    UpdateRequest,
)
from repro.abdl.executor import RequestResult
from repro.abdm.record import Record
from repro.errors import ExecutionError, WalError
from repro.mbds.backend import BackendResult, StoreFactory
from repro.mbds.engine import EngineSpec, ExecutionEngine, make_engine
from repro.mbds.placement import RoundRobinPlacement
from repro.mbds.sessions import KernelSession
from repro.mbds.timing import (
    PHASE_BROADCAST,
    PHASE_INSERT,
    BroadcastPhase,
    ResponseTime,
    TimingModel,
)
from repro.obs import ObsSpec, resolve_obs
from repro.qc import runtime as qc_runtime
from repro.wal.faults import CrashPoint
from repro.wal.log import WalManager

_T = TypeVar("_T")

#: Request types that mutate backend stores (and so must be journaled).
_MUTATING_REQUESTS = (InsertRequest, BulkInsertRequest, DeleteRequest, UpdateRequest)


@dataclass
class ExecutionTrace:
    """Merged outcome of one request across all backends.

    *per_backend_ms* / *per_backend_wall_ms* are indexed by backend id
    for broadcasts and bulk inserts (a backend a batch sent nothing to
    holds 0.0); for placed INSERTs they hold the single executing
    backend.  For multi-phase requests
    (RETRIEVE-COMMON) they are the element-wise per-backend totals
    across phases, with the per-phase breakdown in *phases*.

    *response* is simulated time (engine-independent); *wall_ms* is the
    real time the request took end to end.
    """

    request: Request
    result: RequestResult
    response: ResponseTime
    per_backend_ms: list[float] = field(default_factory=list)
    wall_ms: float = 0.0
    per_backend_wall_ms: list[float] = field(default_factory=list)
    phases: list[BroadcastPhase] = field(default_factory=list)
    #: Global commit order of the unit a mutation outside any
    #: transaction ran as (None for reads and in-transaction requests —
    #: those get their order from session_commit).  Serial replay of
    #: mutations in commit_seq order reproduces the farm bit-identically.
    commit_seq: Optional[int] = None
    #: The commit seq a lock-free snapshot read pinned (None when the
    #: request ran on the ordinary locking path).  A retrieval with a
    #: snapshot_seq acquired no locks at all.
    snapshot_seq: Optional[int] = None


class BackendController:
    """Master node: broadcast, merge, and time a farm of backends."""

    def __init__(
        self,
        backend_count: int,
        timing: Optional[TimingModel] = None,
        placement: Optional[RoundRobinPlacement] = None,
        store_factory: Optional[StoreFactory] = None,
        engine: EngineSpec = None,
        workers: Optional[int] = None,
        wal: Optional[WalManager] = None,
        obs: ObsSpec = None,
    ) -> None:
        if backend_count < 1:
            raise ValueError("MBDS needs at least one backend")
        self.timing = timing or TimingModel()
        self.placement = placement or RoundRobinPlacement()
        #: The round-robin counters are mutable; concurrent sessions
        #: serialize their updates here.
        self.placement_lock = threading.RLock()
        self.engine: ExecutionEngine = make_engine(engine, workers)
        #: Observability bundle shared with the engine and the WAL; the
        #: default is the null bundle (every hook a constant-time no-op).
        self.obs = resolve_obs(obs)
        self.engine.obs = self.obs
        #: Write-ahead log; when set, every mutating request is journaled
        #: to the executing backends' logs before it is applied.
        self.wal = wal
        #: Indexed attributes added at runtime (see :meth:`add_index`) —
        #: schema state a healed farm must rebuild, since the WAL only
        #: journals data mutations.
        self.indexed_attributes: list[str] = []
        if wal is not None and self.obs.enabled:
            wal.bind_obs(self.obs)
        # The engine owns backend construction: the serial engine builds
        # plain Backends; the process engine spawns worker processes and
        # returns proxies (see ExecutionEngine.create_backends).
        self.backends = self.engine.create_backends(
            backend_count, self.timing, store_factory
        )
        if self.obs.enabled:
            # The per-backend caches (compile + result) report their
            # hit/miss/eviction counters into this bundle's registry; the
            # process-wide statement memo follows the same registry
            # (last instrumented controller wins — see qc.runtime).
            for backend in self.backends:
                backend.bind_obs(self.obs)
            qc_runtime.bind_metrics(self.obs.metrics)

    def cache_snapshots(self) -> dict[str, object]:
        """Aggregated qc cache counters (the ``.caches`` dot-command)."""
        return {
            "global": qc_runtime.memo_snapshot(),
            "backends": {
                f"backend[{b.backend_id}]": b.cache_snapshots() for b in self.backends
            },
        }

    @property
    def backend_count(self) -> int:
        return len(self.backends)

    # -- execution -------------------------------------------------------------

    def execute(
        self,
        request: Request,
        label: Optional[str] = None,
        session: Optional[KernelSession] = None,
        snapshot: Optional[int] = None,
    ) -> ExecutionTrace:
        """Execute one request: place inserts, broadcast everything else.

        *label* names the request's broadcast phase; it is the single
        source for both the :class:`BroadcastPhase` accounting label and
        the per-backend span names, so the two can never disagree (the
        KDS passes ``left``/``right`` for RETRIEVE-COMMON's halves).

        *session* identifies the calling kernel session: its mutations
        journal under the WAL transaction the session has open, and
        their placements are noted on it for abort to rewind.  The KDS
        always passes one (its own for session-less callers) and is
        responsible for having acquired the request's locks and opened
        the transaction before calling in; only a controller without a
        WAL runs without.

        *snapshot* (a commit seq) makes a RETRIEVE / RETRIEVE-COMMON
        read the committed state at that seq via the stores' version
        chains — the KDS's lock-free snapshot-read path.  Mutations
        ignore it.
        """
        if isinstance(request, InsertRequest):
            return self._execute_insert(request, label or PHASE_INSERT, session)
        if isinstance(request, BulkInsertRequest):
            return self._execute_bulk_insert(request, label or PHASE_INSERT, session)
        return self._execute_broadcast(
            request, label or PHASE_BROADCAST, session, snapshot
        )

    def _journal(
        self,
        ops: Sequence[tuple[Sequence[int], Request]],
        session: Optional[KernelSession],
    ) -> None:
        """Journal each ``(backend ids, request)`` of *ops* ahead of applying it.

        One log record per request, naming every backend that applies it
        — a broadcast is journaled once, not once per backend.  A
        BULK-INSERT is one record per shard (each backend's payload
        differs).  The ops join the WAL transaction *session* has open:
        opening and settling it is the kernel's business (see
        :meth:`KernelDatabaseSystem.session_transaction`), never the
        controller's.
        """
        wal = self.wal
        if wal is None:
            return
        if session is None or session.wal_txn is None:
            raise WalError(
                "a journaled request needs a kernel session with a transaction open"
            )
        for ids, request in ops:
            if isinstance(request, BulkInsertRequest):
                wal.log_bulk(ids, request, session.wal_txn)
            else:
                wal.log_op(ids, request, session.wal_txn)

    def _apply_journaled(self, apply: Callable[[], "_T"]) -> "_T":
        """Run *apply* between the BEFORE_APPLY / AFTER_APPLY crash points."""
        wal = self.wal
        if wal is not None:
            wal.fire(CrashPoint.BEFORE_APPLY)
        result = apply()
        if wal is not None:
            wal.fire(CrashPoint.AFTER_APPLY)
        return result

    def _execute_insert(
        self,
        request: InsertRequest,
        label: str,
        session: Optional[KernelSession] = None,
    ) -> ExecutionTrace:
        start = time.perf_counter()
        with self.placement_lock:
            index = self.placement.place(request.record, self.backend_count)
        if session is not None:
            session.note_placed(request.record.file_name)
        self._journal([([index], request)], session)
        backend_result = self._apply_journaled(
            lambda: self.engine.execute_one(self.backends[index], request, label)
        )
        return self._trace(request, label, start, [backend_result], placed=True)

    def _execute_bulk_insert(
        self,
        request: BulkInsertRequest,
        label: str,
        session: Optional[KernelSession] = None,
    ) -> ExecutionTrace:
        """Place a record batch, journal one shard per backend, apply once.

        The batch is partitioned by the placement policy (each record goes
        where a one-at-a-time INSERT would have put it), journaled as one
        BULK-INSERT record per target backend, and applied with a single
        store call per backend.  Simulated time charges
        ``backend_insert_ms() * shard_size`` on each backend — the same
        total the incremental path would — so bulk loading changes wall
        clock and fsync counts, never simulated response accounting.
        """
        start = time.perf_counter()
        if not request.records:
            return ExecutionTrace(request, RequestResult("BULK-INSERT"), ResponseTime())
        groups: dict[int, list[Record]] = {}
        with self.obs.tracer.span("bulk.route") as span:
            with self.placement_lock:
                for record in request.records:
                    index = self.placement.place(record, self.backend_count)
                    groups.setdefault(index, []).append(record)
            if span:
                span.record(records=len(request.records), shards=len(groups))
        if session is not None:
            for file_name, count in Counter(r.file_name for r in request.records).items():
                session.note_placed(file_name, count)
        indices = sorted(groups)
        targets = [self.backends[i] for i in indices]
        shards = [BulkInsertRequest(groups[i]) for i in indices]
        self._journal(
            [([index], shard) for index, shard in zip(indices, shards)], session
        )
        # The apply span covers store mutation AND the deferred index
        # finalize (sort-once), which runs inside each backend's store.
        with self.obs.tracer.span("bulk.apply"):
            partials = self._apply_journaled(
                lambda: self.engine.run_distinct(targets, shards, label)
            )
        return self._trace(request, label, start, partials)

    def _execute_broadcast(
        self,
        request: Request,
        label: str,
        session: Optional[KernelSession] = None,
        snapshot: Optional[int] = None,
    ) -> ExecutionTrace:
        start = time.perf_counter()
        if isinstance(request, _MUTATING_REQUESTS):
            self._journal(
                [([backend.backend_id for backend in self.backends], request)],
                session,
            )
            partials = self._apply_journaled(
                lambda: self.engine.run(self.backends, request, label)
            )
        else:
            partials = self.engine.run(self.backends, request, label, snapshot)
        return self._trace(request, label, start, partials)

    def _trace(
        self,
        request: Request,
        label: str,
        start: float,
        partials: Sequence[BackendResult],
        placed: bool = False,
    ) -> ExecutionTrace:
        """Merge one phase's *partials* into the request's trace.

        The per-backend lists are indexed by backend id (backends that
        did not run hold 0.0), except for a *placed* INSERT, whose lists
        hold just the executing backend.
        """
        merged = _merge(request, partials)
        # An aggregate's folds stand for every record they matched: the
        # controller is charged for merging those, as for shipped rows.
        merged_rows = merged.count if is_aggregate(request) else len(merged.records)
        if placed:
            per_backend_ms = [p.elapsed_ms for p in partials]
            per_backend_wall_ms = [p.wall_ms for p in partials]
        else:
            per_backend_ms = [0.0] * self.backend_count
            per_backend_wall_ms = [0.0] * self.backend_count
            for partial in partials:
                per_backend_ms[partial.backend_id] = partial.elapsed_ms
                per_backend_wall_ms[partial.backend_id] = partial.wall_ms
        response = ResponseTime()
        response.add(
            max(per_backend_ms, default=0.0),
            self.timing.controller_ms(merged_rows),
        )
        self._account(label, partials)
        return ExecutionTrace(
            request,
            merged,
            response,
            per_backend_ms=per_backend_ms,
            wall_ms=(time.perf_counter() - start) * 1000.0,
            per_backend_wall_ms=per_backend_wall_ms,
            phases=[BroadcastPhase(label, per_backend_ms, per_backend_wall_ms)],
        )

    def _account(self, label: str, partials: Sequence[BackendResult]) -> None:
        """Record per-backend metrics for one executed phase."""
        metrics = self.obs.metrics
        if not metrics.enabled:
            return
        for partial in partials:
            metrics.inc("backend.requests")
            metrics.observe("backend.wall_ms", partial.wall_ms)
            if partial.records_examined:
                metrics.inc("backend.records_examined", partial.records_examined)
            if partial.index_hits:
                metrics.inc("backend.index_hits", partial.index_hits)
            if partial.range_hits:
                metrics.inc("index.range_hits", partial.range_hits)
            if partial.fallback_scans:
                metrics.inc("plan.fallback_scan", partial.fallback_scans)

    # -- maintenance -------------------------------------------------------------

    def add_index(self, *attributes: str) -> None:
        """Build sorted attribute indexes on every backend's store.

        Indexing changes the simulated cost of future retrievals (fewer
        records examined), so each store bumps its epoch and any cached
        results priced under the unindexed accounting are invalidated.
        The attribute set is remembered: indexes are schema the WAL does
        not journal, so farm healing re-adds them after a respawn.
        """
        for backend in self.backends:
            for attribute in attributes:
                backend.store.add_index(attribute)
        for attribute in attributes:
            if attribute not in self.indexed_attributes:
                self.indexed_attributes.append(attribute)

    def index_report(self) -> dict[str, object]:
        """Per-backend index state and hit counters (the ``.indexes``
        dot-command)."""
        return {
            f"backend[{b.backend_id}]": b.store.index_snapshot()
            for b in self.backends
        }

    def shutdown(self) -> None:
        """Release engine resources (worker processes, if any)."""
        self.engine.shutdown()

    # -- inspection -------------------------------------------------------------

    def record_count(self) -> int:
        """Total records across all backends."""
        return sum(b.record_count() for b in self.backends)

    def distribution(self) -> list[int]:
        """Records per backend (for placement-balance tests)."""
        return [b.record_count() for b in self.backends]

    def all_records(self) -> list[Record]:
        """Every record in the database, backend by backend."""
        records: list[Record] = []
        for backend in self.backends:
            records.extend(backend.store.all_records())
        return records


def _merge(request: Request, partials: Sequence[BackendResult]) -> RequestResult:
    """Merge per-backend partial results into one logical result.

    Counts add.  Record lists concatenate in backend order (deterministic
    given the deterministic placement).  An aggregate RETRIEVE's partials
    are folds — one state per group, not records — and merge into the
    result rows in backend order (:func:`~repro.abdl.aggregates.merge_folds`),
    bit-identical to evaluating the concatenated matching records.
    """
    if not partials:
        raise ExecutionError("no backend results to merge")
    operation = partials[0].result.operation
    merged = RequestResult(operation)
    for partial in partials:
        merged.records.extend(partial.result.records)
        merged.count += partial.result.count
    if is_aggregate(request):
        merged.records = merge_folds(
            request, [partial.result.groups for partial in partials]
        )
    return merged
