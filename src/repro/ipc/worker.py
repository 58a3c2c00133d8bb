"""The process-engine worker: one backend, one process, one mailbox.

:func:`worker_main` is the entry point of every
:class:`~repro.mbds.engine.ProcessPoolEngine` worker process.  It builds
a completely ordinary :class:`~repro.mbds.backend.Backend` — same store,
same executor, same epoch-guarded result cache, same timing model — and
then serves commands from its pipe until told to stop.  All the
engine-equivalence guarantees follow from that construction: the worker
runs the *identical* per-backend code path the serial engine runs, so
simulated times, scan statistics, and cache behavior are bit-for-bit
the code the controller would have executed in-process.

Every message in both directions is one frame on the worker's duplex
pipe (see :mod:`repro.ipc.transport`): a command dict of plain values
(dicts, lists, strings, numbers, booleans, None) in a marshal body.  A
*batch* frame carries a list of coalesced commands and is answered by
one frame with the reply list in command order; errors inside a batch
are captured per command, so one failing replay doesn't poison its
batch-mates.
Mutation epochs live here, in the worker, next to the store they guard;
checkpoint/recovery reconciliation is then automatic — a recovered farm
spawns fresh workers whose stores rebuild from replayed ops, so epochs
and result caches restart coherent with the recovered contents instead
of needing cross-process repair.

Errors are shipped back as ``{"error": {"type", "message"}}`` and
re-raised by the proxy, mapped onto the matching
:class:`~repro.errors.MLDSError` subclass by name.

A worker is forked, so it is born holding a copy of the coordinator's
whole heap — after a restart, every list and dict of the parsed
snapshot.  None of it is garbage the worker could free, and a collector
pass over it would also write the GC header of every object, copying
each page fork had shared.  :func:`worker_main` therefore freezes what
it inherited (``gc.freeze()``) before it serves its first command,
first spawn and respawn alike; the collector stays on for everything
the worker allocates itself.
"""

from __future__ import annotations

import gc
from dataclasses import asdict
from typing import Any, Callable, Mapping, Optional

from repro.ipc import codec
from repro.ipc.transport import PipeTransport
from repro.obs import NULL_OBS, Observability
from repro.qc import runtime as qc_runtime


def apply_config_state(state: Mapping[str, Any]) -> None:
    """Apply a parent-process snapshot of the qc configuration."""
    vars(qc_runtime.config).update(state)


def config_state() -> dict[str, Any]:
    """Snapshot the qc configuration for shipping to a worker."""
    return asdict(qc_runtime.config)


class _Worker:
    """Dispatches protocol commands onto one resident backend."""

    def __init__(
        self,
        backend_id: int,
        timing_state: Mapping[str, Any],
        store_factory: Optional[Callable[[], Any]],
    ) -> None:
        # Import here: the worker bootstraps inside the child process and
        # the backend module must not be imported by codec at load time.
        from repro.mbds.backend import Backend

        self.backend = Backend(
            backend_id, codec.decode_timing(timing_state), store_factory
        )
        self.obs = NULL_OBS

    # -- command handlers ------------------------------------------------------

    def _counter_values(self) -> dict[str, float]:
        return {
            name: payload["value"]
            for name, payload in self.obs.metrics.as_dict().items()
            if payload.get("type") == "counter"
        }

    def execute(self, message: Mapping[str, Any]) -> dict[str, Any]:
        request = codec.decode_any_request(message["request"])
        snapshot = message.get("snapshot")
        tracer = self.obs.tracer
        # Counters incremented inside the backend (qc.compile.*,
        # qc.result.*, ...) land in the worker-local registry; ship the
        # per-request deltas so the controller's registry reads the same
        # as it would with in-process backends.
        before = self._counter_values()
        if not (message.get("trace") and tracer.enabled):
            result = self.backend.execute(request, snapshot)
            spans: list[dict[str, Any]] = []
        else:
            # Collect the spans the backend opens (qc.compile, access-path
            # attributes) under a scratch root; the controller-side proxy
            # grafts them beneath its own backend[i].<phase> span, exactly
            # where the serial engine would have nested them.
            with tracer.span("ipc.worker"):
                result = self.backend.execute(request, snapshot)
            root = tracer.last_trace
            spans = (
                [codec.encode_span(child) for child in root.children]
                if root
                else []
            )
        deltas = {
            name: value - before.get(name, 0.0)
            for name, value in self._counter_values().items()
            if value != before.get(name, 0.0)
        }
        return {
            "result": codec.encode_backend_result(result),
            "spans": spans,
            "metrics": deltas,
        }

    def handle(self, message: Mapping[str, Any]) -> dict[str, Any]:
        cmd = message["cmd"]
        backend = self.backend
        if cmd == "execute":
            return self.execute(message)
        if cmd == "restore":
            backend.restore(message["rows"])
            return {"ok": True}
        if cmd == "replay":
            backend.replay(codec.decode_any_request(message["request"]))
            return {"ok": True}
        if cmd == "seal_versions":
            backend.seal_versions(
                message["files"], message["seq"], message["watermark"]
            )
            return {"ok": True}
        if cmd == "rollback":
            return {"rolled": backend.rollback(message["files"])}
        if cmd == "charge_access":
            elapsed, wall = backend.charge_access()
            return {"elapsed_ms": elapsed, "wall_ms": wall}
        if cmd == "aggregate_probe":
            probe = backend.aggregate_probe(
                message["file"], message["attributes"], message.get("snapshot")
            )
            if probe is None:
                return {"probe": None}
            digests, count = probe
            return {
                "probe": {
                    "digests": {
                        attribute: codec.encode_digest(digest)
                        for attribute, digest in digests.items()
                    },
                    "count": count,
                }
            }
        if cmd == "busy":
            return {"busy_ms": backend.busy_ms, "busy_wall_ms": backend.busy_wall_ms}
        if cmd == "cache_snapshots":
            return {"caches": backend.cache_snapshots()}
        if cmd == "bind_obs":
            # A worker-local bundle: spans and per-request counter deltas
            # are shipped back with every execute reply; histograms stay
            # local (they track worker wall time nobody aggregates).
            self.obs = Observability(tracing=bool(message["tracing"]))
            backend.bind_obs(self.obs)
            return {"ok": True}
        # -- store proxy commands ---------------------------------------------
        if cmd == "store_add_index":
            backend.store.add_index(message["attribute"])
            return {"ok": True}
        if cmd == "store_index_snapshot":
            return {"snapshot": backend.store.index_snapshot()}
        if cmd == "store_all_records":
            return {
                "records": [
                    codec.encode_record(r) for r in backend.store.all_records()
                ]
            }
        if cmd == "store_bulk_insert":
            count = backend.store.bulk_insert(
                [codec.decode_record(r) for r in message["records"]]
            )
            return {"count": count}
        if cmd == "store_count":
            return {"count": backend.store.count(message.get("file"))}
        if cmd == "store_snapshot":
            return {"snapshot": backend.store.snapshot()}
        raise ValueError(f"unknown worker command {cmd!r}")


def _failure(exc: Exception) -> dict[str, Any]:
    return {"error": {"type": type(exc).__name__, "message": str(exc)}}


def worker_main(
    backend_id: int,
    timing_state: Mapping[str, Any],
    store_factory: Optional[Callable[[], Any]],
    config: Mapping[str, Any],
    connection: Any,
) -> None:
    """Serve one backend until a ``stop`` command (or pipe EOF) arrives."""
    # Everything tracked now came with the fork: out of the collector's
    # reach (see the module docstring).
    gc.freeze()
    apply_config_state(config)
    transport = PipeTransport(connection)
    worker = _Worker(backend_id, timing_state, store_factory)
    while True:
        try:
            is_batch, message = transport.recv_any()
        except (EOFError, OSError):  # pragma: no cover - parent died
            return
        if is_batch:
            # One coalesced frame: handle every command, reply in order.
            # Failures are captured per command — the proxy decides which
            # (if any) to raise once the whole batch is accounted for.
            replies: list[dict[str, Any]] = []
            stop = False
            for command in message:
                if command["cmd"] == "stop":
                    replies.append({"ok": True})
                    stop = True
                    break
                try:
                    replies.append(worker.handle(command))
                except Exception as exc:  # ship the failure; keep serving
                    replies.append(_failure(exc))
            transport.send_batch(replies)
            if stop:
                return
            continue
        if message["cmd"] == "stop":
            transport.send({"ok": True})
            return
        try:
            reply = worker.handle(message)
        except Exception as exc:  # ship the failure; keep serving
            reply = _failure(exc)
        transport.send(reply)
