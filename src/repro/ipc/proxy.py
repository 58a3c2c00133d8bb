"""Controller-side proxies for worker-resident backends.

:class:`ProcessBackend` duck-types :class:`~repro.mbds.backend.Backend`
closely enough that the controller, the KDS, persistence, and recovery
never notice the store lives in another process: every Backend method
they call has a counterpart here that encodes the call, ships it over
the worker's pipe, and decodes the reply.  :class:`ProcessStore`
does the same for the handful of direct store accesses the upper layers
make (``add_index``, ``all_records``, snapshot-style
inspection), so ``backend.store.…`` keeps working too.

Three details carry the engine contract:

* **Split-phase execution** — :meth:`ProcessBackend.start_execute` only
  sends; :meth:`ProcessBackend.finish_execute` receives.  The engine
  sends one request to every target worker before collecting any reply,
  which is what turns N CPU-bound scans into N concurrent processes.
  A restore's snapshot dumps go the same way
  (:meth:`~ProcessBackend.start_restore` / :meth:`~ProcessBackend.finish_restore`).
* **Request coalescing** — commands that need no immediate answer
  (WAL replay during recovery, ``seal_versions`` at commit) are
  buffered controller-side and shipped
  as one batch frame, either when the buffer reaches
  :data:`PIPELINE_LIMIT` or just before the next reply-requiring
  command.  A million-op replay costs thousands of frames instead of a
  round trip per op.
* **One conversation at a time** — every command and every split-phase
  dispatch holds the engine's ``_io_lock``, so one session never reads
  the reply to another's request.

Workers are daemonic: an abandoned controller (the crash-matrix tests
kill systems mid-transaction without shutdown) cannot leak processes
past interpreter exit.  A dead worker can also be *replaced*:
:meth:`ProcessBackend.respawn` spawns a fresh process (fresh store,
fresh transport) for the same backend id, which
is how the kernel heals a crashed farm from checkpoint + WAL state.
"""

from __future__ import annotations

import multiprocessing
from typing import TYPE_CHECKING, Any, Iterator, Optional, Sequence

from repro import errors
from repro.errors import ExecutionError, WorkerCrashed
from repro.ipc import codec
from repro.ipc.transport import PipeTransport
from repro.ipc.worker import config_state, worker_main
from repro.obs import ObsSpec, resolve_obs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.abdl.ast import Request
    from repro.abdm.plan import AttributeIndexDigest
    from repro.abdm.record import Record
    from repro.mbds.backend import BackendResult, StoreFactory
    from repro.mbds.engine import ProcessPoolEngine
    from repro.mbds.timing import TimingModel
    from repro.obs.trace import Span

#: Deferred commands buffered per worker before a batch frame is forced.
PIPELINE_LIMIT = 128


def _spawn_context() -> multiprocessing.context.BaseContext:
    """Fork when the platform has it (cheap, inherits the store factory
    without pickling); fall back to the default context elsewhere."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


class ProcessStore:
    """The slice of the :class:`~repro.abdm.store.ABStore` API that upper
    layers reach through ``backend.store``, proxied over the wire."""

    def __init__(self, backend: "ProcessBackend") -> None:
        self._backend = backend

    def add_index(self, attribute: str) -> None:
        self._backend._call({"cmd": "store_add_index", "attribute": attribute})

    def index_snapshot(self) -> dict[str, Any]:
        reply = self._backend._call({"cmd": "store_index_snapshot"})
        return reply["snapshot"]

    def all_records(self) -> Iterator["Record"]:
        reply = self._backend._call({"cmd": "store_all_records"})
        return iter([codec.decode_record(r) for r in reply["records"]])

    def bulk_insert(self, records: Sequence["Record"]) -> int:
        reply = self._backend._call(
            {
                "cmd": "store_bulk_insert",
                "records": [codec.encode_record(r) for r in records],
            }
        )
        return reply["count"]

    def count(self, file_name: Optional[str] = None) -> int:
        reply = self._backend._call({"cmd": "store_count", "file": file_name})
        return reply["count"]

    def snapshot(self) -> dict[str, Any]:
        # marshal keeps the pair tuples, so the reply already has the
        # exact in-process shape structural comparisons across engines need.
        return self._backend._call({"cmd": "store_snapshot"})["snapshot"]


class ProcessBackend:
    """A :class:`~repro.mbds.backend.Backend` living in a worker process.

    Built only by :meth:`ProcessPoolEngine.create_backends
    <repro.mbds.engine.ProcessPoolEngine.create_backends>`, whose engine
    it keeps for the I/O lock and the observability bundle.
    """

    def __init__(
        self,
        engine: "ProcessPoolEngine",
        backend_id: int,
        timing: "TimingModel",
        store_factory: Optional["StoreFactory"] = None,
    ) -> None:
        self.backend_id = backend_id
        self.timing = timing
        self._engine = engine
        self._stopped = False
        # Retained for respawn: a replacement worker must rebuild the
        # same schema (store factory) under the same timing model.
        self._store_factory = store_factory
        #: Deferred commands awaiting the next batch frame (see _defer).
        self._pending: list[dict[str, Any]] = []
        self._spawn()
        self.store = ProcessStore(self)

    def _spawn(self) -> None:
        context = _spawn_context()
        parent_end, child_end = context.Pipe(duplex=True)
        self._transport = PipeTransport(parent_end)
        self._process = context.Process(
            target=worker_main,
            args=(
                self.backend_id,
                codec.encode_timing(self.timing),
                self._store_factory,
                config_state(),
                child_end,
            ),
            daemon=True,
            name=f"mbds-backend-{self.backend_id}",
        )
        self._process.start()
        # The worker holds its end now; closing the parent's copy lets a
        # worker death surface as EOF on this side instead of a hang.
        child_end.close()

    def respawn(self) -> None:
        """Replace the worker with a fresh process (empty store).

        Used by farm healing: the caller is responsible for rebuilding
        store contents from durable state (checkpoint + WAL) afterwards.
        Any worker still alive is stopped first, so respawning a full
        farm leaves no orphaned processes.
        """
        if self._process.is_alive():
            self.stop()
        else:
            self._close_transport()
        self._pending = []
        self._stopped = False
        self._spawn()

    # -- protocol plumbing -----------------------------------------------------

    @property
    def obs(self) -> Any:
        return self._engine.obs

    def _check_alive(self) -> None:
        if not self._process.is_alive():
            if self._stopped:
                raise ExecutionError(
                    f"backend {self.backend_id}'s worker process is not "
                    "running (engine already shut down?)"
                )
            raise WorkerCrashed(self.backend_id, self._process.exitcode)

    def _send(self, message: dict[str, Any]) -> None:
        self._flush()
        self._check_alive()
        try:
            self._transport.send(message)
        except (BrokenPipeError, OSError):
            raise WorkerCrashed(self.backend_id, self._process.exitcode) from None

    def _defer(self, message: dict[str, Any]) -> None:
        """Buffer a command whose reply nobody needs *yet*.

        Deferred commands ship as one batch frame — when the buffer hits
        :data:`PIPELINE_LIMIT`, or right before the next immediate
        command (so ordering is preserved).  Only commands that cannot
        fail in ways the caller must see synchronously belong here;
        today that is WAL ``replay``, whose errors surface at the next
        flush and abort recovery exactly as the per-op round trip did,
        and ``seal_versions``, which only stamps what is already there.
        """
        with self._engine._io_lock:
            self._pending.append(message)
            if len(self._pending) >= PIPELINE_LIMIT:
                self._flush()

    def _flush(self) -> None:
        """Ship and settle any deferred commands (callers hold the lock)."""
        if not self._pending:
            return
        batch, self._pending = self._pending, []
        self._check_alive()
        try:
            self._transport.send_batch(batch)
        except (BrokenPipeError, OSError):
            raise WorkerCrashed(self.backend_id, self._process.exitcode) from None
        self._await_reply()
        try:
            replies = self._transport.recv_batch()
        except (EOFError, OSError):
            raise WorkerCrashed(self.backend_id, self._process.exitcode) from None
        # Account for every reply before raising: the frame is already
        # fully consumed, so the protocol stays in sync even on error.
        failure: Optional[Exception] = None
        for reply in replies:
            error = reply.get("error")
            if error is not None and failure is None:
                failure = self._remote_error(error)
        if failure is not None:
            raise failure

    def _receive(self) -> dict[str, Any]:
        self._await_reply()
        try:
            reply = self._transport.recv()
        except (EOFError, OSError):
            raise WorkerCrashed(self.backend_id, self._process.exitcode) from None
        error = reply.get("error")
        if error is not None:
            raise self._remote_error(error)
        return reply

    @staticmethod
    def _remote_error(error: dict[str, Any]) -> Exception:
        exc_type = getattr(errors, error["type"], None)
        if isinstance(exc_type, type) and issubclass(exc_type, Exception):
            return exc_type(error["message"])
        return ExecutionError(f"{error['type']}: {error['message']}")

    def _await_reply(self) -> None:
        """Block until a reply frame is readable — or the worker is dead.

        A blocking ``recv`` would wait forever on a worker that died
        mid-request; polling the pipe lets us notice the death and raise
        a typed :class:`WorkerCrashed` naming the backend instead of
        hanging the whole farm.
        """
        while not self._transport.poll(0.05):
            if not self._process.is_alive():
                if self._transport.poll(0.0):  # reply raced the exit
                    return
                raise WorkerCrashed(self.backend_id, self._process.exitcode)

    def _call(self, message: dict[str, Any]) -> dict[str, Any]:
        # Serialize against in-flight split-phase dispatches: another
        # session's engine.run must not find our reply on the pipe.
        with self._engine._io_lock:
            self._send(message)
            return self._receive()

    # -- execution (the Backend.execute contract) ------------------------------

    def start_execute(
        self, request: "Request", snapshot: Optional[int] = None
    ) -> None:
        """Ship *request* to the worker without waiting for the reply."""
        message: dict[str, Any] = {
            "cmd": "execute",
            "request": codec.encode_any_request(request),
            "trace": self.obs.tracer.enabled,
        }
        if snapshot is not None:
            message["snapshot"] = snapshot
        self._send(message)

    def finish_execute(self, span: Optional["Span"] = None) -> "BackendResult":
        """Collect the reply for the last :meth:`start_execute`.

        Worker-side spans are grafted under *span* (or the calling
        thread's current span), re-joining the controller's trace tree;
        worker-side counter deltas (qc cache hits/misses and friends)
        are folded into the controller's metrics registry.
        """
        reply = self._receive()
        parent = span if span is not None else self.obs.tracer.current
        if reply["spans"] and parent is not None:
            codec.graft_spans(reply["spans"], parent)
        metrics = self.obs.metrics
        for name, delta in reply.get("metrics", {}).items():
            metrics.inc(name, delta)
        return codec.decode_backend_result(reply["result"])

    def execute(
        self, request: "Request", snapshot: Optional[int] = None
    ) -> "BackendResult":
        self.start_execute(request, snapshot)
        return self.finish_execute()

    # -- durability support ----------------------------------------------------

    def start_restore(self, rows: Sequence[Any]) -> None:
        """Ship a snapshot dump to the worker without waiting.

        The rows cross as parsed: the worker's
        :meth:`~repro.mbds.backend.Backend.restore` reads the same
        ``{"pairs", "text"}`` rows the serial engine's does.
        """
        self._send({"cmd": "restore", "rows": rows})

    def finish_restore(self) -> None:
        """Collect the reply for the last :meth:`start_restore`."""
        self._receive()

    def replay(self, request: "Request") -> None:
        # Recovery replays whole WALs op by op; nobody reads the acks
        # until the next real command, so coalesce them into batch
        # frames instead of paying a round trip per op.
        self._defer(
            {"cmd": "replay", "request": codec.encode_any_request(request)}
        )

    # -- version chains (MVCC snapshot reads) ----------------------------------

    def seal_versions(
        self, files: Optional[list], seq: int, watermark: int
    ) -> None:
        # A commit-path call whose reply nobody needs: coalesce it like
        # replay.  Ordering is safe because _send flushes the pending
        # batch before any later command on this worker, so a snapshot
        # read opened at this seq always observes the seal first.
        self._defer(
            {
                "cmd": "seal_versions",
                "files": list(files) if files is not None else None,
                "seq": seq,
                "watermark": watermark,
            }
        )

    def rollback(self, files: Optional[list]) -> int:
        return self._call({"cmd": "rollback", "files": files})["rolled"]

    # -- aggregates and accounting ---------------------------------------------

    def charge_access(self) -> tuple[float, float]:
        reply = self._call({"cmd": "charge_access"})
        return reply["elapsed_ms"], reply["wall_ms"]

    def aggregate_probe(
        self,
        file_name: str,
        attributes: Sequence[str],
        snapshot: Optional[int] = None,
    ) -> Optional[tuple[dict[str, "AttributeIndexDigest"], int]]:
        reply = self._call(
            {
                "cmd": "aggregate_probe",
                "file": file_name,
                "attributes": list(attributes),
                "snapshot": snapshot,
            }
        )
        probe = reply["probe"]
        if probe is None:
            return None
        digests = {
            attribute: codec.decode_digest(encoded)
            for attribute, encoded in probe["digests"].items()
        }
        return digests, probe["count"]

    def record_count(self) -> int:
        return self.store.count()

    @property
    def busy_ms(self) -> float:
        return self._call({"cmd": "busy"})["busy_ms"]

    @property
    def busy_wall_ms(self) -> float:
        return self._call({"cmd": "busy"})["busy_wall_ms"]

    def bind_obs(self, obs: ObsSpec) -> None:
        bundle = resolve_obs(obs)
        self._call({"cmd": "bind_obs", "tracing": bundle.tracer.enabled})

    def cache_snapshots(self) -> dict[str, dict[str, Any]]:
        return self._call({"cmd": "cache_snapshots"})["caches"]

    # -- lifecycle -------------------------------------------------------------

    def stop(self) -> None:
        """Stop the worker process (idempotent, tolerates a dead worker)."""
        self._stopped = True
        self._pending = []  # acks nobody will read; the store is going away
        if self._process.is_alive():
            try:
                self._transport.send({"cmd": "stop"})
                self._await_reply()
                self._transport.recv()
            except WorkerCrashed:  # died before acknowledging; that's fine
                pass
            except (OSError, EOFError, BrokenPipeError):  # pragma: no cover
                pass
            self._process.join(timeout=5.0)
        self._close_transport()

    def _close_transport(self) -> None:
        try:
            self._transport.close()
        except OSError:  # pragma: no cover - already closed
            pass

    def __repr__(self) -> str:
        state = "alive" if self._process.is_alive() else "stopped"
        return f"ProcessBackend({self.backend_id}, {state})"
