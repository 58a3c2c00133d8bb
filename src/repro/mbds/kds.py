"""The Kernel Database System: MBDS behind a single execution interface.

Every MLDS language interface submits ABDL to one shared KDS (thesis
Figure 1.2).  :class:`KernelDatabaseSystem` wraps the backend controller
and handles the two requests whose per-backend results do not simply
concatenate.  An aggregate RETRIEVE is broadcast as it is: each backend
folds its slice into one partial state per group, and the controller
merges the N folds (an average of averages would be wrong, so the states
are chosen to merge exactly — see :mod:`repro.abdl.aggregates`).  A
RETRIEVE-COMMON joins at the controller, from two broadcast retrievals,
because join partners may live on different backends.

The KDS also keeps the database catalog: which database (template) each
file belongs to, so several user databases — AB(network) and
AB(functional) alike — can coexist in one kernel, as MLDS requires.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import ContextManager, Iterator, Optional, Sequence

from repro.abdl.ast import (
    BulkInsertRequest,
    DeleteRequest,
    InsertRequest,
    Request,
    RetrieveCommonRequest,
    RetrieveRequest,
    UpdateRequest,
)
from repro.abdl.aggregates import digest_plan, is_aggregate, merge_digests
from repro.abdl.executor import RequestResult, merge_common, project
from repro.abdm.record import Record
from repro.errors import (
    ExecutionError,
    SnapshotTooOld,
    TransactionAborted,
    WalError,
    WorkerCrashed,
)
from repro.mbds.controller import BackendController, ExecutionTrace
from repro.mbds.engine import EngineSpec, ProcessPoolEngine
from repro.mbds.locks import (
    GLOBAL_RESOURCE,
    LockManager,
    LockMode,
    affected_files,
    lock_items,
)
from repro.mbds.placement import RoundRobinPlacement
from repro.mbds.sessions import KernelSession
from repro.mbds.timing import (
    PHASE_AGGREGATE_INDEX,
    PHASE_COMMON_LEFT,
    PHASE_COMMON_RIGHT,
    BroadcastPhase,
    ResponseTime,
    TimingModel,
)
from repro.obs import ObsSpec
from repro.qc import runtime as qc_runtime
from repro.wal.faults import CrashPoint, InjectedCrash
from repro.wal.log import WalManager

#: The request types that mutate store state (everything else is a read).
_MUTATING_REQUESTS = (InsertRequest, BulkInsertRequest, DeleteRequest, UpdateRequest)

#: Owner name of the kernel's own session, on which every session-less
#: call runs; :meth:`KernelDatabaseSystem.create_session` refuses it.
KERNEL_OWNER = "kernel"

#: How many times a lock-free read retries at a fresher snapshot after
#: GC trimmed its pinned one away, before falling back to a locking read.
_SNAPSHOT_RETRIES = 3


@dataclass
class DatabaseTemplate:
    """Catalog entry: a user database and the AB files realizing it."""

    name: str
    model: str  # 'network' or 'functional' (origin of the AB database)
    files: list[str] = field(default_factory=list)


class KernelDatabaseSystem:
    """MBDS plus catalog: the single kernel shared by all interfaces."""

    def __init__(
        self,
        backend_count: int = 4,
        timing: Optional[TimingModel] = None,
        placement: Optional[RoundRobinPlacement] = None,
        store_factory=None,
        engine: EngineSpec = None,
        workers: Optional[int] = None,
        wal: Optional[WalManager] = None,
        obs: ObsSpec = None,
        lock_timeout: float = 10.0,
        snapshot_reads: bool = True,
    ) -> None:
        """*engine* picks the wall-clock dispatch strategy ('serial' or
        'process', or an :class:`~repro.mbds.engine.ExecutionEngine`);
        simulated response time is identical for both.  *placement*
        defaults to :class:`~repro.mbds.placement.RoundRobinPlacement`;
        a harness may pass a subclass that overrides ``place``.
        *wal* attaches a write-ahead log: mutating requests are journaled
        before applying and grouped into transactions (see
        :meth:`session_transaction`).  *obs* attaches an
        :class:`~repro.obs.Observability` bundle (tracing + metrics +
        slow log); the default is the no-op null bundle.
        *snapshot_reads* enables the lock-free MVCC read path for
        RETRIEVEs (see :meth:`_execute_session`)."""
        self.controller = BackendController(
            backend_count,
            timing,
            placement,
            store_factory,
            engine=engine,
            workers=workers,
            wal=wal,
            obs=obs,
        )
        self._catalog: dict[str, DatabaseTemplate] = {}
        #: Simulated time accumulated across every request executed.
        self.clock = ResponseTime()
        #: Count of requests executed (for the benchmark harnesses).
        self.requests_executed = 0
        #: The kernel's own session: every call made without a session
        #: runs on it, under the same locks, journal and commit protocol
        #: as any other.  Its callers are one at a time, so its commits
        #: carry the record-count checksum recovery verifies.
        self._own = KernelSession(KERNEL_OWNER, counted=True)
        #: Kernel concurrency control: every request locks through here.
        self.locks = LockManager(lock_timeout)
        #: Guards the shared accounting (clock, counters) across sessions.
        self._state_lock = threading.Lock()
        #: Global commit order: bumped for every session commit while the
        #: committing session still holds its locks, so replaying
        #: committed work in commit_seq order is a serial history
        #: conflict-equivalent to the concurrent one (2PL).
        self._commit_seq = 0
        #: Highest commit seq sealed into the version chains with every
        #: predecessor sealed too — the newest snapshot a lock-free read
        #: may open.  Published only over contiguous seqs so concurrent
        #: out-of-order commits never expose a gap.
        self._stable_seq = 0
        self._sealed: set[int] = set()
        #: Open snapshot registry: token -> pinned commit seq.  The GC
        #: watermark is the oldest pinned seq (stable when none is open),
        #: so a chain entry is only trimmed once no in-flight or future
        #: snapshot can need it.
        self._active_snapshots: dict[int, int] = {}
        self._snapshot_token = 0
        #: Lock-free RETRIEVE path toggle (see :meth:`_execute_session`).
        self.snapshot_reads = snapshot_reads
        self._session_counter = 0
        self.locks.bind_metrics(self.obs.metrics)
        # Supervise a respawnable engine: crashes latch instead of
        # immediately stopping the farm, so execute() can heal from
        # checkpoint + WAL when no transaction is open.  Ineligible
        # crashes (no WAL, mid-transaction) still shut the farm down —
        # see _handle_worker_crash.
        engine_obj = self.controller.engine
        if isinstance(engine_obj, ProcessPoolEngine):
            engine_obj.defer_crash_shutdown = True

    @property
    def wal(self) -> Optional[WalManager]:
        return self.controller.wal

    @property
    def obs(self):
        """The observability bundle shared by every layer of this kernel."""
        return self.controller.obs

    # -- transactions ------------------------------------------------------------
    #
    # There is one transaction protocol, the session one below.  Each
    # :class:`KernelSession` carries its own WAL transaction, its write
    # set, and a lock owner identity; requests acquire two-phase locks
    # (see repro.mbds.locks), so concurrent RETRIEVEs proceed in parallel
    # while mutations serialize per file, and every history is
    # conflict-equivalent to the commit order the kernel stamps
    # (``commit_seq``).  The session-less API is that protocol on the
    # kernel's own session.

    @property
    def in_transaction(self) -> bool:
        return self._own.in_transaction

    def begin_transaction(self) -> None:
        """:meth:`session_begin` on the kernel's own session."""
        self.session_begin(self._own)

    def commit_transaction(self) -> None:
        """:meth:`session_commit` on the kernel's own session."""
        self.session_commit(self._own)

    def abort_transaction(self) -> None:
        """:meth:`session_abort` on the kernel's own session."""
        self.session_abort(self._own)

    def transaction(self) -> ContextManager[KernelSession]:
        """:meth:`session_transaction` on the kernel's own session."""
        return self.session_transaction(self._own)

    def create_session(self, name: Optional[str] = None) -> KernelSession:
        """Register a new concurrent caller of this kernel."""
        if name == KERNEL_OWNER:
            raise ExecutionError(
                f"session name {KERNEL_OWNER!r} is reserved for the kernel's own session"
            )
        with self._state_lock:
            self._session_counter += 1
            owner = name or f"session-{self._session_counter}"
        return KernelSession(owner)

    def _next_commit_seq(self) -> int:
        with self._state_lock:
            self._commit_seq += 1
            return self._commit_seq

    def session_begin(self, session: KernelSession) -> None:
        """Open *session*'s kernel transaction (locks release at its end)."""
        if session.in_transaction:
            raise WalError(
                f"session {session.owner!r} already has a transaction open "
                "(no nesting)"
            )
        if self.wal is not None:
            session.wal_txn = self.wal.begin(session.owner)
        session.in_transaction = True

    def session_commit(self, session: KernelSession) -> int:
        """Commit *session*'s transaction; returns its global commit seq.

        The commit record is written, the commit order stamped, and the
        version chains sealed at the new seq while the session still
        holds every lock it acquired (strict two-phase locking), which
        is what makes the concurrent history conflict-equivalent to
        commit_seq order — and what makes the sealed pre-images the
        committed state every snapshot below the seq must see.

        A doomed transaction (see :meth:`_refuse_doomed`) is aborted
        instead, with :class:`~repro.errors.TransactionAborted`.
        """
        if not session.in_transaction:
            raise WalError(f"session {session.owner!r} has no transaction to commit")
        self._refuse_doomed(session)
        if self.wal is not None:
            counts = self.controller.distribution() if session.counted else None
            self.wal.commit(session.wal_txn, counts)
        seq = self._seal(self._session_seal_files(session))
        session.end_transaction()
        session.commits += 1
        session.commit_seq = seq
        self.locks.release_all(session.owner)
        return seq

    def session_abort(self, session: KernelSession) -> None:
        """Abort *session*'s transaction: WAL abort plus file-level undo.

        Undo rolls back exactly the transaction's write set: each backend
        restores those files from the pending pre-images its store parked
        at the first write — still under the transaction's exclusive
        locks, so no other session can have observed the rolled-back
        state.  The placement counters the transaction's INSERTs advanced
        are rewound too, and finally the locks are released.

        A farm that lost a worker is not asked to undo anything: the
        dead worker cannot answer and a survivor may still hold the
        reply to a request the crash interrupted, so the next frame read
        from it would be the wrong one.  The transaction then settles on
        the WAL side only, and the farm's state is whatever comes next —
        :meth:`heal_workers` rebuilding every worker from checkpoint +
        WAL (which skips the aborted transaction), or full recovery.
        """
        if not session.in_transaction:
            raise WalError(f"session {session.owner!r} has no transaction to abort")
        try:
            if self.wal is not None:
                self.wal.abort(session.wal_txn)
            files = self._session_seal_files(session)
            if (files is None or files) and not self.controller.engine.needs_heal:
                rolled = sum(
                    backend.rollback(files) for backend in self.controller.backends
                )
                self.obs.metrics.inc("kds.abort.files_rolled_back", rolled)
                with self.controller.placement_lock:
                    for file_name, count in session.placed.items():
                        self.controller.placement.observe_abort(file_name, count)
        finally:
            # Whatever the undo met, the transaction is over: a session
            # left open with its locks held would wedge every writer,
            # checkpoint and heal behind it.
            session.end_transaction()
            session.aborts += 1
            self.locks.release_all(session.owner)

    @contextmanager
    def session_transaction(self, session: KernelSession) -> Iterator[KernelSession]:
        """Scope a session transaction: commit on success, abort on error.

        The kernel's one commit unit — an explicit transaction is this
        around many requests, a mutation outside any transaction is this
        around one (see :meth:`_execute_session`).  A failure of the
        commit itself aborts too (computing the kernel session's
        record-count checksum talks to every backend, so a dying worker
        can surface there), unless the commit got as far as ending the
        transaction.  An :class:`~repro.wal.faults.InjectedCrash` is
        *not* handled — a crashed machine writes no abort record; it
        just dies.
        """
        self.session_begin(session)
        try:
            yield session
            self.session_commit(session)
        except InjectedCrash:
            raise
        except BaseException:
            if session.in_transaction:
                self.session_abort(session)
            raise

    def _refuse_doomed(self, session: KernelSession) -> None:
        """Abort a doomed transaction in place of its next step.

        A mutation is journaled before it is applied, so one that raised
        from the farm leaves an op in the log that the live stores hold
        half of, or none of.  No commit record may ever follow it:
        recovery would replay the op in full (or fail where the live
        apply failed) and the log would disagree with the farm it
        describes.  The transaction can only abort, which restores the
        stores from their pending pre-images.
        """
        if session.doomed:
            self.session_abort(session)
            raise TransactionAborted(
                f"the transaction of session {session.owner!r} was aborted: "
                "an earlier mutation in it failed after it was journaled"
            )

    def _execute_session(self, request: Request, session: KernelSession) -> ExecutionTrace:
        """Execute one request for *session*: lock, note the write set, run.

        Inside a transaction, locks accumulate until commit/abort (2PL).
        Outside one, locks span just this request, and a mutation runs
        as a :meth:`session_transaction` of its own — the same begin,
        journal, apply, commit record, seal and (on any failure) abort
        an explicit transaction gets.  The unit opens only once the
        request's locks are granted, so a writer parked in a lock wait
        holds no transaction open and never makes a checkpoint or a
        farm heal refuse.

        RETRIEVE / RETRIEVE-COMMON from a session that has not yet
        written in its transaction take the lock-free snapshot path
        instead (when ``snapshot_reads`` is on): the read pins the
        newest stable commit seq and reconstructs that committed state
        from the stores' version chains, acquiring no S locks at all —
        readers never block writers and writers never block readers.  A
        session that has mutated must read its own uncommitted writes,
        which no snapshot contains, so it falls back to locking reads.
        """
        self._refuse_doomed(session)
        mutating = isinstance(request, _MUTATING_REQUESTS)
        if (
            self.snapshot_reads
            and not mutating
            and isinstance(request, (RetrieveRequest, RetrieveCommonRequest))
            and not session.written
            and not session.wrote_unpinned
        ):
            trace = self._execute_snapshot_read(request, session)
            if trace is not None:
                self._account(trace, session)
                return trace
            # GC kept trimming the pinned snapshot away: locking read.
        release_after = not session.in_transaction
        try:
            self.locks.acquire(
                session.owner, lock_items(request), session.lock_timeout
            )
            if not mutating:
                trace = self._dispatch(request, session)
            elif release_after:
                with self.session_transaction(session):
                    trace = self._mutate(request, session)
                trace.commit_seq = session.commit_seq
            else:
                trace = self._mutate(request, session)
            self._account(trace, session)
            return trace
        finally:
            if release_after:
                # A no-op after a unit, whose commit or abort released.
                self.locks.release_all(session.owner)

    def _mutate(self, request: Request, session: KernelSession) -> ExecutionTrace:
        """Run one mutation inside *session*'s open transaction.

        The write set is noted first (what commit seals and abort rolls
        back), and the transaction is doomed for exactly as long as the
        journaled op is not known to have applied: any way out of
        :meth:`_dispatch` other than returning leaves it so.
        """
        files = self._request_files(request)
        if files is None:
            session.wrote_unpinned = True
        else:
            session.written.update(files)
        session.doomed = True
        trace = self._dispatch(request, session)
        session.doomed = False
        return trace

    def _dispatch(
        self, request: Request, session: KernelSession, snapshot: Optional[int] = None
    ) -> ExecutionTrace:
        """Run *request* on the farm, live or at *snapshot*, under one span.

        An aggregate RETRIEVE first tries the index digests, then is
        broadcast as it is: the backends return folds and the controller
        merges them.  A RETRIEVE-COMMON is joined here from two broadcast
        retrievals, since join partners may live on different backends.
        """
        with self.obs.tracer.span("kds.execute") as span:
            if is_aggregate(request):
                trace = self._execute_aggregate(request, snapshot)
            elif isinstance(request, RetrieveCommonRequest):
                trace = self._execute_common(request, snapshot)
            else:
                trace = self.controller.execute(
                    request, session=session, snapshot=snapshot
                )
            if span:
                # The span's simulated time IS the timing model's report
                # for this request — copied, never recomputed, so span
                # totals stay bit-identical to the engine's clock.
                span.record(
                    simulated_ms=trace.response.total_ms,
                    op=trace.result.operation,
                    records=trace.result.count,
                    session=session.owner,
                )
                if snapshot is not None:
                    span.record(snapshot=snapshot)
        return trace

    def _account(self, trace: ExecutionTrace, session: KernelSession) -> None:
        """Fold one finished request into the shared kernel accounting."""
        with self._state_lock:
            self.clock = self.clock + trace.response
            self.requests_executed += 1
        session.requests_executed += 1
        metrics = self.obs.metrics
        if metrics.enabled:
            metrics.inc("kds.requests")
            metrics.inc(f"kds.requests.{trace.result.operation.lower()}")
            metrics.observe("kds.request.simulated_ms", trace.response.total_ms)
            metrics.observe("kds.request.wall_ms", trace.wall_ms)
            metrics.set_gauge("kds.requests_executed", self.requests_executed)

    # -- MVCC snapshots ----------------------------------------------------------
    #
    # Every commit unit (session_commit; there is no other) seals the
    # pending version-chain entries it opened exactly once,
    # after its commit record, with its commit seq (repro.abdm.store
    # keeps the chains), then publishes the seq as *stable* once every
    # earlier seq is sealed too.  A lock-free read pins the stable seq;
    # the stores reconstruct that committed state from their chains.  The
    # pin holds the GC watermark down so the entries the read needs
    # cannot be trimmed out from under it (and a retain-cap trim that
    # gets there anyway surfaces as SnapshotTooOld, answered by retrying
    # fresher).

    @property
    def stable_seq(self) -> int:
        """The newest commit seq a snapshot read may open."""
        with self._state_lock:
            return self._stable_seq

    def _mark_stable(self, seq: int) -> None:
        """Publish *seq* once the commit-seq sequence below it is whole."""
        with self._state_lock:
            self._sealed.add(seq)
            while self._stable_seq + 1 in self._sealed:
                self._sealed.discard(self._stable_seq + 1)
                self._stable_seq += 1

    def _open_snapshot(self) -> tuple:
        """Pin the stable seq; returns ``(token, seq)`` for later close."""
        with self._state_lock:
            self._snapshot_token += 1
            token = self._snapshot_token
            seq = self._stable_seq
            self._active_snapshots[token] = seq
        return token, seq

    def _close_snapshot(self, token: int) -> None:
        with self._state_lock:
            self._active_snapshots.pop(token, None)

    def _gc_watermark(self) -> int:
        """Oldest pinned snapshot seq (stable when no read is in flight)."""
        with self._state_lock:
            if self._active_snapshots:
                return min(self._active_snapshots.values())
            return self._stable_seq

    def _seal(self, files: Optional[list]) -> int:
        """A commit unit's last step, its commit record already written:
        stamp the next commit seq, seal *files*' pending chain entries
        with it on every backend (then GC), and publish it as stable.
        Called with the unit's locks still held."""
        if self.wal is not None:
            self.wal.fire(CrashPoint.BEFORE_VERSION_SEAL)
        seq = self._next_commit_seq()
        watermark = self._gc_watermark()
        for backend in self.controller.backends:
            backend.seal_versions(files, seq, watermark)
        if self.wal is not None:
            self.wal.fire(CrashPoint.AFTER_VERSION_SEAL)
        self._mark_stable(seq)
        return seq

    @staticmethod
    def _request_files(request: Request) -> Optional[list]:
        """The files a mutating request can touch (None = unpinned: any).

        The granule the lock manager protects; an unpinned mutation
        holds the global exclusive lock, so settling every pending
        entry (None) cannot steal another session's.
        """
        if isinstance(request, InsertRequest):
            name = request.record.file_name
            return [name] if name is not None else None
        if isinstance(request, BulkInsertRequest):
            names = {record.file_name for record in request.records}
            return sorted(names) if None not in names else None  # type: ignore[type-var]
        pinned = affected_files(request.query)  # type: ignore[attr-defined]
        return sorted(pinned) if pinned is not None else None

    @staticmethod
    def _session_seal_files(session: KernelSession) -> Optional[list]:
        """The transaction's write set: what commit seals, abort rolls back.

        An unpinned write means the session held the global exclusive
        lock, so every pending entry anywhere is its own: all (None).
        """
        return None if session.wrote_unpinned else sorted(session.written)

    def _execute_snapshot_read(
        self, request: Request, session: KernelSession
    ) -> Optional[ExecutionTrace]:
        """Run one retrieval lock-free at the newest stable snapshot.

        Retries at a fresher snapshot when GC trimmed the pinned one
        away mid-read; returns None after :data:`_SNAPSHOT_RETRIES`
        consecutive failures so the caller falls back to a locking
        read (which cannot starve: it holds S locks).
        """
        metrics = self.obs.metrics
        for _ in range(_SNAPSHOT_RETRIES):
            token, seq = self._open_snapshot()
            try:
                trace = self._dispatch(request, session, seq)
            except SnapshotTooOld:
                if metrics.enabled:
                    metrics.inc("kds.snapshot_retries")
                continue
            finally:
                self._close_snapshot(token)
            trace.snapshot_seq = seq
            if metrics.enabled:
                metrics.inc("kds.snapshot_reads")
                metrics.set_gauge("kds.stable_seq", seq)
            return trace
        if metrics.enabled:
            metrics.inc("kds.snapshot_fallbacks")
        return None

    # -- catalog ---------------------------------------------------------------

    def define_database(self, name: str, model: str, files: Sequence[str]) -> DatabaseTemplate:
        """Register a database template (the KDM database definition)."""
        if name in self._catalog:
            raise ExecutionError(f"database {name!r} already defined in the kernel")
        template = DatabaseTemplate(name, model, list(files))
        self._catalog[name] = template
        return template

    def database(self, name: str) -> DatabaseTemplate:
        try:
            return self._catalog[name]
        except KeyError as exc:
            raise ExecutionError(f"database {name!r} is not defined in the kernel") from exc

    def databases(self) -> list[DatabaseTemplate]:
        return list(self._catalog.values())

    def drop_database(self, name: str) -> None:
        """Remove a database and delete its files from every backend.

        The drop runs on the kernel's own session under the global
        exclusive lock, so no other session is reading or writing the
        files while they go.  It is not journaled: a kernel with a WAL
        attached refuses it with :class:`~repro.errors.WalError`, since
        recovery would bring the files and the catalog entry back.
        """
        if self.wal is not None:
            raise WalError(
                f"cannot drop database {name!r} with a WAL attached: "
                "a drop is not journaled, so recovery would restore it"
            )
        template = self.database(name)
        session = self._own
        try:
            self.locks.acquire(
                session.owner, [(GLOBAL_RESOURCE, LockMode.X)], session.lock_timeout
            )
            for backend in self.controller.backends:
                for file_name in template.files:
                    backend.store.drop_file(file_name)
            del self._catalog[name]
        finally:
            if not session.in_transaction:
                self.locks.release_all(session.owner)

    # -- execution ---------------------------------------------------------------

    def execute(
        self, request: Request, session: Optional[KernelSession] = None
    ) -> ExecutionTrace:
        """Execute one ABDL request.

        Every request runs under kernel concurrency control (see
        :meth:`_execute_session`): two-phase locks, a session-owned WAL
        transaction, commit-order stamping.  *session* names the caller
        (see :meth:`create_session`); without one the request runs on
        the kernel's own session, so a session-less caller is one more
        session, not a second protocol.

        If a worker process dies mid-request under the process engine,
        the kernel *heals* when it safely can — no transaction open
        anywhere, a WAL attached — by respawning the whole farm from
        checkpoint + WAL (see :meth:`heal_workers`) and retrying the
        request once.  Mid-transaction crashes keep their typed
        :class:`~repro.errors.WorkerCrashed` and stop the farm, exactly
        as before: a half-applied transaction is only recoverable by
        full recovery.
        """
        session = session or self._own
        try:
            return self._execute_session(request, session)
        except WorkerCrashed:
            if not self._try_heal():
                self.controller.engine.shutdown()
                raise
            try:
                return self._execute_session(request, session)
            except WorkerCrashed:
                # Crashed again straight after a heal: stop retrying.
                self.controller.engine.shutdown()
                raise

    def _execute_common(
        self, request: RetrieveCommonRequest, snapshot: Optional[int] = None
    ) -> ExecutionTrace:
        left = self.controller.execute(
            RetrieveRequest(request.left_query),
            label=PHASE_COMMON_LEFT,
            snapshot=snapshot,
        )
        right = self.controller.execute(
            RetrieveRequest(request.right_query),
            label=PHASE_COMMON_RIGHT,
            snapshot=snapshot,
        )
        merged = merge_common(left.result.records, right.result.records, request)
        plain = RetrieveRequest(request.left_query, request.target)
        result = RequestResult(
            "RETRIEVE-COMMON", records=project(merged, plain), count=len(merged)
        )
        join_ms = (
            len(left.result.records) + len(right.result.records)
        ) * self.controller.timing.merge_record_ms
        response = ResponseTime(
            left.response.total_ms + right.response.total_ms + join_ms,
            left.response.backend_ms + right.response.backend_ms,
            left.response.controller_ms + right.response.controller_ms + join_ms,
        )
        # The two broadcasts stay labelled phases; the per-backend lists
        # carry each backend's total across both (never a flat concat,
        # which would misindex backends and double the apparent farm).
        # The phases are the controller's own, already labelled at the
        # single point the labels were handed down — not re-built here.
        return ExecutionTrace(
            request,
            result,
            response,
            per_backend_ms=[
                l + r for l, r in zip(left.per_backend_ms, right.per_backend_ms)
            ],
            wall_ms=left.wall_ms + right.wall_ms,
            per_backend_wall_ms=[
                l + r
                for l, r in zip(left.per_backend_wall_ms, right.per_backend_wall_ms)
            ],
            phases=[*left.phases, *right.phases],
        )

    def _aggregate_from_digests(
        self, request: RetrieveRequest, snapshot: Optional[int] = None
    ) -> Optional[ExecutionTrace]:
        """Answer a MIN/MAX/COUNT request from index digests, or None.

        When :func:`~repro.abdl.aggregates.digest_plan` accepts the
        request and every backend's index can vouch for the file, the
        aggregates are computed from per-backend digest statistics:
        backends holding no slice of the file are skipped at zero
        simulated cost, the rest are charged exactly one disk access,
        and zero records are examined.  MIN/MAX fall back to the scan
        path when any digest reports resident NaNs (the scan evaluator
        folds NaN through ``min``/``max``, whose result depends on input
        order — only a real scan reproduces it).  The returned row is
        bit-identical to the scan path's projection.
        """
        if not qc_runtime.config.plan_enabled:
            return None
        plan = digest_plan(request)
        if plan is None:
            return None
        file_name, attributes = plan
        start = time.perf_counter()
        probes = []
        for backend in self.controller.backends:
            # With a snapshot pinned, the digest fast path only answers
            # when the backend's chains show the file live-valid at that
            # seq (digests describe the live store); otherwise fall back
            # to the scan path, which reconstructs the snapshot.
            probe = backend.aggregate_probe(file_name, attributes, snapshot)
            if probe is None:
                return None
            probes.append(probe)
        minmax_attrs = {
            item.attribute
            for item in request.target
            if item.aggregate in ("MIN", "MAX")
        }
        if any(
            digests[attribute].nans
            for digests, _ in probes
            for attribute in minmax_attrs
        ):
            return None
        row = Record()
        for item in request.target:
            assert item.aggregate is not None
            row.set(
                item.output_name,
                merge_digests(item.aggregate, item.attribute, probes),
            )
        result = RequestResult(
            "RETRIEVE",
            records=[row.seal()],
            count=sum(count for _, count in probes),
        )
        per_backend_ms = [0.0] * self.controller.backend_count
        per_backend_wall_ms = [0.0] * self.controller.backend_count
        for backend, (_, count) in zip(self.controller.backends, probes):
            if count == 0:
                continue
            elapsed, wall = backend.charge_access()
            per_backend_ms[backend.backend_id] = elapsed
            per_backend_wall_ms[backend.backend_id] = wall
        response = ResponseTime()
        response.add(
            max(per_backend_ms), self.controller.timing.controller_ms(1)
        )
        span = self.obs.tracer.current
        if span:
            span.record(**{"plan.access_path": PHASE_AGGREGATE_INDEX})
        metrics = self.obs.metrics
        if metrics.enabled:
            metrics.inc("index.aggregate_hits")
        wall_ms = (time.perf_counter() - start) * 1000.0
        return ExecutionTrace(
            request,
            result,
            response,
            per_backend_ms=per_backend_ms,
            wall_ms=wall_ms,
            per_backend_wall_ms=per_backend_wall_ms,
            phases=[
                BroadcastPhase(
                    PHASE_AGGREGATE_INDEX, per_backend_ms, per_backend_wall_ms
                )
            ],
        )

    def _execute_aggregate(
        self, request: RetrieveRequest, snapshot: Optional[int] = None
    ) -> ExecutionTrace:
        fast = self._aggregate_from_digests(request, snapshot)
        if fast is not None:
            return fast
        trace = self.controller.execute(request, snapshot=snapshot)
        # Charge extra controller time for the aggregate evaluation pass,
        # one merge step per matched record.
        extra = trace.result.count * self.controller.timing.merge_record_ms
        trace.response = ResponseTime(
            trace.response.total_ms + extra,
            trace.response.backend_ms,
            trace.response.controller_ms + extra,
        )
        return trace

    # -- convenience -------------------------------------------------------------

    def bulk_insert(
        self,
        records: Sequence[Record],
        session: Optional[KernelSession] = None,
    ) -> ExecutionTrace:
        """Insert a record batch as one journaled BULK-INSERT request.

        The batch journals as one WAL record per target backend and
        applies with one store call per backend, while simulated time,
        placement, and the resulting store state are identical to
        inserting the records one request at a time.  With a *session*,
        the batch runs under kernel concurrency control exactly like any
        other mutating request (file locks, write-set tracking, commit-order
        stamping).
        """
        return self.execute(BulkInsertRequest(records), session=session)

    def retrieve_records(self, request: RetrieveRequest) -> list[Record]:
        """Execute a retrieval and return the projected records."""
        return self.execute(request).result.records

    def record_count(self) -> int:
        return self.controller.record_count()

    def reset_clock(self) -> None:
        self.clock = ResponseTime()
        self.requests_executed = 0

    # -- farm healing ------------------------------------------------------------

    def _healable_engine(self) -> ProcessPoolEngine:
        """The process engine, when the farm may be healed in place right
        now; otherwise a :class:`~repro.errors.WalError` saying why not.

        Healing needs durable state (a WAL) and no transaction open
        anywhere — with a WAL attached every session's transaction, the
        kernel's own included, is an open WAL transaction.  A
        mid-transaction crash cannot be healed in place, because the
        surviving workers may already hold applies from the doomed
        transaction; only the typed error and full recovery are sound.
        """
        engine = self.controller.engine
        if not isinstance(engine, ProcessPoolEngine) or not engine.can_respawn:
            raise WalError("farm healing needs a process engine with live workers")
        if self.wal is None:
            raise WalError("farm healing needs an attached WAL")
        if self.wal.has_open_transactions:
            raise WalError("cannot heal the farm with a transaction open")
        return engine

    def _try_heal(self) -> bool:
        """Heal a crashed worker farm if it is safe; False otherwise."""
        try:
            engine = self._healable_engine()
        except WalError:
            return False
        with engine._io_lock:
            # Another session may have healed the farm while we waited
            # for the lock; needs_heal goes False once the farm is whole.
            if engine.needs_heal:
                self.heal_workers()
        return True

    def heal_workers(self) -> int:
        """Respawn the process-engine farm from durable state.

        Every worker is replaced (fresh process, empty store) — not just
        the dead one, because a survivor may have applied operations
        from a transaction that aborted when the crash surfaced, and
        redoing such a request against its live state would double-apply
        non-idempotent mutations.  The empty farm is then rebuilt to
        exactly the durable baseline: checkpoint snapshot, committed WAL
        tail, runtime-added indexes.  Returns the number of WAL
        transactions replayed.
        """
        from repro.wal.log import CHECKPOINT_NAME
        from repro.wal.reader import read_wal
        from repro.wal.recovery import replay_committed, restore_backend_state

        engine = self._healable_engine()
        with engine._io_lock:
            with self.obs.tracer.span("kds.heal") as span:
                engine.respawn_workers()
                checkpoint = self.wal.directory / CHECKPOINT_NAME
                watermark = restore_backend_state(self.controller, checkpoint)
                view = read_wal(self.wal.directory, self.controller.backend_count)
                replayed = replay_committed(self.controller, view, watermark)
                if self.controller.indexed_attributes:
                    self.controller.add_index(*self.controller.indexed_attributes)
                if span:
                    span.record(replayed=replayed, watermark=watermark)
        metrics = self.obs.metrics
        if metrics.enabled:
            metrics.inc("kds.worker_heals")
        return replayed

    def shutdown(self) -> None:
        """Release engine resources (worker processes) and WAL file handles."""
        self.controller.shutdown()
        if self.wal is not None:
            self.wal.close()
