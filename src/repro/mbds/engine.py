"""Wall-clock execution engines for MBDS broadcasts.

The :class:`~repro.mbds.controller.BackendController` has always computed
*simulated* parallel time (the backend contribution to a response is the
maximum of the per-backend times), but it executed the backends one after
another in the controller's own thread.  An :class:`ExecutionEngine`
decouples "how the broadcast is dispatched" from "what it costs in the
timing model":

* :class:`SerialEngine` — the historical behavior: backends run in order
  in the calling thread.  Default, fully deterministic, no threads.
* :class:`ProcessPoolEngine` — each backend owns its store in a
  persistent worker *process* (see :mod:`repro.ipc`), so CPU-bound
  compiled matching and range scans parallelize past the GIL.  Requests
  and results cross the boundary as marshal frames whose values are
  built on the WAL codec; dispatch is split-phase (send to every target
  worker, then collect in backend order).

Because the process engine must build its backends *in* the workers, the
engine — not the controller — now owns backend construction
(:meth:`ExecutionEngine.create_backends`).  The serial engine returns
ordinary :class:`~repro.mbds.backend.Backend` objects; the process
engine returns :class:`~repro.ipc.proxy.ProcessBackend` proxies that
duck-type them.

Engine choice never changes results or simulated time: per-backend
simulated cost is a pure function of each backend's store state, stores
are partitioned one-per-backend, and result merging is performed by the
controller in backend order.  ``tests/properties/test_engine_equivalence.py``
checks that contract (bit-identical results, stores and simulated totals).

Observability: the engine is the layer where execution crosses process
boundaries, so it is also where per-backend trace spans are opened.  The
controller binds its observability bundle onto the engine
(:attr:`ExecutionEngine.obs`), and :meth:`run` receives the phase *label*
naming the spans (``backend[i].broadcast``, ``backend[i].left``, ...).
With the default null bundle the traced path is skipped entirely.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Optional, Sequence, Union

from repro.errors import WorkerCrashed
from repro.mbds.timing import PHASE_BROADCAST
from repro.obs import NULL_OBS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.abdl.ast import Request
    from repro.ipc.proxy import ProcessBackend
    from repro.mbds.backend import Backend, BackendResult, StoreFactory
    from repro.mbds.timing import TimingModel
    from repro.obs.trace import Span


def _record_result(span: "Span", result: "BackendResult") -> None:
    """Stamp the standard per-backend attributes onto a finished span."""
    span.record(
        simulated_ms=result.elapsed_ms,
        records_examined=result.records_examined,
        index_hits=result.index_hits,
        range_hits=result.range_hits,
        fallback_scans=result.fallback_scans,
        records=result.result.count,
    )


class ExecutionEngine:
    """Dispatches one broadcast request to a set of backends."""

    #: Short name used by ``--engine`` and reprs.
    name = "engine"

    #: Observability bundle; the owning controller rebinds this so
    #: per-backend spans and metrics reach the system-wide sinks.
    obs = NULL_OBS

    #: Whether the farm lost a worker and must be rebuilt before it can
    #: be talked to again; only an engine with worker processes can.
    needs_heal = False

    def create_backends(
        self,
        count: int,
        timing: "TimingModel",
        store_factory: Optional["StoreFactory"] = None,
    ) -> list["Backend"]:
        """Build the backend farm this engine will execute against.

        The serial engine gets plain :class:`Backend` objects; the
        process engine overrides this to spawn worker processes and hand
        back proxies.
        """
        from repro.mbds.backend import Backend

        return [
            Backend(backend_id, timing, store_factory) for backend_id in range(count)
        ]

    def run(
        self,
        backends: Sequence["Backend"],
        request: "Request",
        label: str = PHASE_BROADCAST,
        snapshot: Optional[int] = None,
    ) -> list["BackendResult"]:
        """Execute *request* on every backend; results in backend order.

        *label* is the broadcast's phase label; traced runs name each
        per-backend span ``backend[<id>].<label>``.  *snapshot* (a
        commit seq) makes retrievals read the committed state as of that
        seq — threaded through to every backend, in-process or worker.
        """
        raise NotImplementedError

    def run_distinct(
        self,
        backends: Sequence["Backend"],
        requests: Sequence["Request"],
        label: str = PHASE_BROADCAST,
    ) -> list["BackendResult"]:
        """Execute ``requests[i]`` on ``backends[i]``; results in order.

        The distinct-request sibling of :meth:`run`, used by bulk ingest:
        each target backend applies its *own* batch, concurrently under
        the process engine.  The default runs them serially.
        """
        return [
            self.execute_one(backend, request, label)
            for backend, request in zip(backends, requests)
        ]

    def execute_one(
        self,
        backend: "Backend",
        request: "Request",
        label: str,
        snapshot: Optional[int] = None,
    ) -> "BackendResult":
        """Execute on one backend, inside a per-backend span when tracing.

        Also the controller's path for placed (non-broadcast) INSERTs, so
        every backend execution — broadcast or placed — is spanned the
        same way.
        """
        tracer = self.obs.tracer
        if not tracer.enabled:
            return backend.execute(request, snapshot)
        span = tracer.open(f"backend[{backend.backend_id}].{label}")
        try:
            # Activate so spans opened inside the backend (qc.compile)
            # nest under this one.
            with tracer.activate(span):
                result = backend.execute(request, snapshot)
        finally:
            span.finish()
        _record_result(span, result)
        return result

    def shutdown(self) -> None:
        """Release any resources; the serial engine stays usable after."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SerialEngine(ExecutionEngine):
    """Run the backends one after another in the calling thread."""

    name = "serial"

    def run(
        self,
        backends: Sequence["Backend"],
        request: "Request",
        label: str = PHASE_BROADCAST,
        snapshot: Optional[int] = None,
    ) -> list["BackendResult"]:
        return [
            self.execute_one(backend, request, label, snapshot=snapshot)
            for backend in backends
        ]


class ProcessPoolEngine(ExecutionEngine):
    """Run every backend in its own persistent worker process.

    :meth:`create_backends` spawns one worker per backend, each owning a
    completely ordinary in-worker :class:`~repro.mbds.backend.Backend`
    (store, executor, result cache, timing model), and returns
    :class:`~repro.ipc.proxy.ProcessBackend` proxies.  A broadcast is
    dispatched split-phase — send the encoded request to every target
    worker, then collect replies in backend order — so N CPU-bound scans
    run on N cores while merged results stay byte-identical to
    :class:`SerialEngine`.

    *workers* caps in-flight workers per broadcast (dispatch proceeds in
    chunks of that size); the worker *processes* are always one per
    backend, because each one holds backend-resident state.

    Unlike the serial engine's, :meth:`shutdown` is terminal: it stops the
    worker processes, and with them the backend stores they own.  Use it
    only when the system is done (``KDS.shutdown`` / recovery teardown).
    """

    name = "process"

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers is not None and workers < 1:
            raise ValueError("ProcessPoolEngine needs at least one worker")
        self.workers = workers
        self._backends: list["ProcessBackend"] = []
        # Split-phase dispatch (send-all, then collect-all) assumes the
        # reply arriving on a worker's pipe answers *our* send; with
        # many kernel sessions two callers could interleave sends and
        # collect each other's replies.  One engine-wide lock keeps each
        # dispatch's send/collect cycle atomic.
        self._io_lock = threading.RLock()
        #: The first unhealed crash.  While set, every dispatch fails
        #: fast with a fresh :class:`WorkerCrashed` — survivors may hold
        #: undrained replies, so no traffic is safe until the farm is
        #: respawned (:meth:`respawn_workers`) or shut down.
        self._crashed: Optional[WorkerCrashed] = None
        #: When False (the default) a crash immediately stops the whole
        #: farm, the historical behavior.  A supervisor that can *heal*
        #: the farm from durable state (the KDS, when a WAL is attached)
        #: sets this True to keep survivors alive for respawning.
        self.defer_crash_shutdown = False

    def create_backends(
        self,
        count: int,
        timing: "TimingModel",
        store_factory: Optional["StoreFactory"] = None,
    ) -> list["Backend"]:
        from repro.ipc.proxy import ProcessBackend

        self._backends = [
            ProcessBackend(self, backend_id, timing, store_factory)
            for backend_id in range(count)
        ]
        return list(self._backends)  # type: ignore[return-value]

    @property
    def can_respawn(self) -> bool:
        """True while the farm exists (even crashed) and can be rebuilt."""
        return bool(self._backends)

    @property
    def crashed(self) -> Optional[WorkerCrashed]:
        """The latched crash awaiting heal/shutdown, if any."""
        return self._crashed

    @property
    def needs_heal(self) -> bool:
        """True when a crash was latched *or* any worker is simply dead.

        The latch only catches crashes surfaced through engine dispatch;
        a :class:`~repro.errors.WorkerCrashed` raised by a direct proxy
        call (``distribution()`` inside ``session_commit``, an aggregate probe)
        bypasses it, so the farm's actual liveness is checked too.
        """
        if self._crashed is not None:
            return True
        return any(
            not backend._process.is_alive() for backend in self._backends
        )

    def respawn_workers(self) -> None:
        """Respawn *every* worker with a fresh process and empty store.

        All workers are replaced, not just dead ones: a survivor may
        have applied operations from a transaction that never became
        durable, so the only sound baseline is an empty farm rebuilt
        from checkpoint + WAL by the caller.  Clears the crash latch.
        """
        with self._io_lock:
            for backend in self._backends:
                backend.respawn()
            self._crashed = None

    def _note_crash(self, exc: WorkerCrashed) -> None:
        if self._crashed is None:
            self._crashed = exc
        if not self.defer_crash_shutdown:
            # A dead worker can never answer again: without a supervisor
            # to heal the farm, stop the survivors instead of leaving
            # them (and their pipes) to hang the next dispatch.
            self.shutdown()

    def _check_crashed(self) -> None:
        if self._crashed is not None:
            raise WorkerCrashed(self._crashed.backend_id, self._crashed.exitcode)

    def execute_one(
        self,
        backend: "Backend",
        request: "Request",
        label: str,
        snapshot: Optional[int] = None,
    ) -> "BackendResult":
        with self._io_lock:
            self._check_crashed()
            try:
                return super().execute_one(backend, request, label, snapshot)
            except WorkerCrashed as exc:
                self._note_crash(exc)
                raise

    def run(
        self,
        backends: Sequence["Backend"],
        request: "Request",
        label: str = PHASE_BROADCAST,
        snapshot: Optional[int] = None,
    ) -> list["BackendResult"]:
        return self._dispatch(backends, [request] * len(backends), label, snapshot)

    def run_distinct(
        self,
        backends: Sequence["Backend"],
        requests: Sequence["Request"],
        label: str = PHASE_BROADCAST,
    ) -> list["BackendResult"]:
        return self._dispatch(backends, list(requests), label)

    def _dispatch(
        self,
        backends: Sequence["Backend"],
        requests: Sequence["Request"],
        label: str,
        snapshot: Optional[int] = None,
    ) -> list["BackendResult"]:
        if len(backends) <= 1:
            return [
                self.execute_one(backend, request, label, snapshot=snapshot)
                for backend, request in zip(backends, requests)
            ]
        tracer = self.obs.tracer
        limit = self.workers or len(backends)
        results: list["BackendResult"] = []
        with self._io_lock:
            self._check_crashed()
            try:
                for start in range(0, len(backends), limit):
                    chunk = backends[start : start + limit]
                    chunk_requests = requests[start : start + limit]
                    spans: list[Optional["Span"]] = []
                    for backend, request in zip(chunk, chunk_requests):
                        spans.append(
                            tracer.open(f"backend[{backend.backend_id}].{label}")
                            if tracer.enabled
                            else None
                        )
                        backend.start_execute(request, snapshot)  # type: ignore[attr-defined]
                    # Collect every reply even if one raises — leaving
                    # replies in a queue would desynchronize that
                    # worker's protocol.
                    error: Optional[Exception] = None
                    for backend, span in zip(chunk, spans):
                        try:
                            result = backend.finish_execute(span)  # type: ignore[attr-defined]
                        except Exception as exc:
                            if error is None:
                                error = exc
                            if span is not None:
                                span.finish()
                            continue
                        if span is not None:
                            span.finish()
                            _record_result(span, result)
                        results.append(result)
                    if error is not None:
                        raise error
            except WorkerCrashed as exc:
                self._note_crash(exc)
                raise
        return results

    def shutdown(self) -> None:
        with self._io_lock:
            for backend in self._backends:
                backend.stop()
            self._backends = []

    def __repr__(self) -> str:
        return f"ProcessPoolEngine(workers={self.workers})"


#: What callers may pass wherever an engine is accepted: an instance, a
#: name ('serial' / 'process'), or None for the default serial engine.
EngineSpec = Union[ExecutionEngine, str, None]


def make_engine(
    spec: EngineSpec = None, workers: Optional[int] = None
) -> ExecutionEngine:
    """Resolve an engine spec (instance, name, or None) to an engine.

    *workers* only applies when a process engine is built here; an
    explicit engine instance is returned unchanged.
    """
    if isinstance(spec, ExecutionEngine):
        return spec
    name = spec.lower() if isinstance(spec, str) else spec
    if name is None or name == "serial":
        return SerialEngine()
    if name == "process":
        return ProcessPoolEngine(workers)
    raise ValueError(
        f"unknown execution engine {spec!r} (expected 'serial' or 'process')"
    )
