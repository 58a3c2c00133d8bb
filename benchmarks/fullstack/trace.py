"""The benchmark's own span recorder, installed from outside the program.

``install_server()`` runs in the launcher before anything is built and
``install_client()`` in the generator: each replaces *public* callables
of ``repro`` (table below) with a wrapper that records one span per call
— name, start, end and the enclosing span of the same context — so a
layer's self time is its spans' duration minus what their child spans
cover.  Nothing under ``src/`` changes and nothing private is touched;
spans inside the program are a later issue.

A *context* is a thread, or on the server's event-loop thread one asyncio
task (one per connection), so two connections' interleaved handlers never
nest into each other.  Each span tree carries a statement-class *label*
(``sql.read``, ``daplex.read``, ``txn`` …) taken from the one span in it
that can see the statement — ``protocol.decode``'s result on the loop,
``*Session.run``'s arguments on the executor — which is what lets the
budget be split per statement class.

Spans stay in per-context lists in memory; ``Recorder.summary()`` folds
them to per-label, per-name self times and ``Recorder.dump()`` writes
``spans.jsonl``.
"""

from __future__ import annotations

import asyncio
import functools
import importlib
import json
import os
import sys
import threading
from time import perf_counter
from typing import Any, Callable, Optional

from model import SESSIONS

#: Session ids are handed out per connection in opening order (s1, s2…),
#: and every connection opens model.SESSIONS in order.
_SID_LANGUAGE = {f"s{i}": lang for i, (lang, _) in enumerate(SESSIONS.values(), 1)}
_WRITE_VERBS = ("INSERT", "UPDATE", "DELETE")


def statement_class(language: Optional[str], statement: Any) -> str:
    words = statement.split(None, 1) if isinstance(statement, str) else ()
    verb = words[0].upper() if words else ""
    return f"{language}.{'write' if verb in _WRITE_VERBS else 'read'}"


def wire_class(op: Any, sid: Any, statement: Any) -> str:
    """The statement class of one protocol message, either side."""
    if op == "execute":
        return statement_class(_SID_LANGUAGE.get(str(sid), "unknown"), statement)
    if op in ("begin", "commit", "abort"):
        return "txn"
    return "control"


class _Context:
    __slots__ = ("spans", "stack", "key")

    def __init__(self, key: str) -> None:
        self.key = key
        #: [name, start, end, parent index in this list or -1, label, count]
        self.spans: list = []
        self.stack: list = []


class Recorder:
    """Process-wide span store; off until a timed phase turns it on."""

    def __init__(self) -> None:
        self.on = False
        self._local = threading.local()
        self._tasks: dict = {}
        self._contexts: list = []
        self._lock = threading.Lock()
        #: Bumped by clear(): a thread re-decides then whether it is the
        #: event-loop thread (the main thread becomes it after set-up).
        self._generation = 0

    def context(self) -> _Context:
        local = self._local
        if getattr(local, "generation", None) != self._generation:
            local.generation = self._generation
            local.loop = asyncio._get_running_loop()
            local.context = None
        if local.loop is not None:
            task = asyncio.current_task(local.loop)
            if task is not None:
                entry = self._tasks.get(id(task))
                if entry is None or entry[0] is not task:
                    entry = (task, self._new_context(f"task-{len(self._tasks)}"))
                    self._tasks[id(task)] = entry
                return entry[1]
        context = local.context
        if context is None:
            context = local.context = self._new_context(threading.current_thread().name)
        return context

    def open(self, name: str, start: float = 0.0) -> tuple:
        """Push a new span on the calling context; ``(context, span)``."""
        context = self.context()
        stack = context.stack
        span = [name, start, 0.0, stack[-1] if stack else -1, None, 0]
        stack.append(len(context.spans))
        context.spans.append(span)
        return context, span

    def _new_context(self, key: str) -> _Context:
        context = _Context(key)
        with self._lock:
            self._contexts.append(context)
        return context

    def clear(self) -> None:
        with self._lock:
            self._contexts.clear()
            self._tasks.clear()
            self._generation += 1

    # -- reading ------------------------------------------------------------

    def _trees(self):
        """Yield ``(context key, spans, child seconds, labels)`` per context.

        ``child seconds[i]`` is what the closed children of span *i*
        cover; ``labels[i]`` is the statement class of the tree span *i*
        belongs to.  A tree takes the first label any of its spans
        carries; a tree without one (an encode after its decode) inherits
        the label its context saw last.
        """
        with self._lock:
            contexts = list(self._contexts)
        for context in contexts:
            spans = context.spans
            covered = [0.0] * len(spans)
            labels: list = [None] * len(spans)
            sticky = "control"
            root = 0
            for index, span in enumerate(spans):
                parent = span[3]
                if parent < 0:
                    if index:
                        sticky = self._label(spans, labels, root, index, sticky)
                    root = index
                elif span[2]:
                    covered[parent] += span[2] - span[1]
            if spans:
                self._label(spans, labels, root, len(spans), sticky)
            yield context.key, spans, covered, labels

    @staticmethod
    def _label(spans: list, labels: list, start: int, end: int, sticky: str) -> str:
        label = None
        for index in range(start, end):
            label = spans[index][4]
            if label is not None:
                break
        if label is None:
            label = sticky
        labels[start:end] = [label] * (end - start)
        return label

    def summary(self) -> dict:
        """``{label: {name: [self seconds, total seconds, calls, count]}}``
        over every closed span."""
        out: dict = {}
        for _, spans, covered, labels in self._trees():
            for index, span in enumerate(spans):
                if not span[2]:
                    continue
                rows = out.get(labels[index])
                if rows is None:
                    rows = out[labels[index]] = {}
                row = rows.get(span[0])
                if row is None:
                    row = rows[span[0]] = [0.0, 0.0, 0, 0]
                total = span[2] - span[1]
                row[0] += total - covered[index]
                row[1] += total
                row[2] += 1
                row[3] += span[5]
        return out

    def dump(self, path: str, process: str) -> int:
        """Append every closed span to *path* as JSON lines."""
        written = 0
        with open(path, "a", encoding="utf-8") as handle:
            for key, spans, covered, labels in self._trees():
                for index, span in enumerate(spans):
                    if not span[2]:
                        continue
                    handle.write(
                        json.dumps(
                            {
                                "process": process, "context": key, "name": span[0],
                                "start": span[1], "end": span[2], "parent": span[3],
                                "self_s": span[2] - span[1] - covered[index],
                                "class": labels[index], "count": span[5],
                            },
                            separators=(",", ":"),
                        )
                        + "\n"
                    )
                    written += 1
        return written


RECORDER = Recorder()
# A forked process-engine worker inherits the wrappers; it must not
# collect spans nobody will read.
os.register_at_fork(after_in_child=lambda: setattr(RECORDER, "on", False))


def _wrap(fn: Callable, name: str, label: Optional[Callable], count: Optional[Callable]):
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not RECORDER.on:
            return fn(*args, **kwargs)
        context, span = RECORDER.open(name)
        span[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            context.stack.pop()
        if label is not None:
            span[4] = label(args, kwargs, result)
        if count is not None:
            span[5] = count(args, kwargs, result)
        return result

    return wrapper


class _SpanContext:
    """A ``with`` block as one span (for ``AdmissionController.admit``)."""

    def __init__(self, inner: Any, name: str) -> None:
        self._inner = inner
        self._name = name

    def __enter__(self) -> Any:
        self._context, self._span = RECORDER.open(self._name, perf_counter())
        return self._inner.__enter__()

    def __exit__(self, *exc_info: Any) -> Any:
        try:
            return self._inner.__exit__(*exc_info)
        finally:
            self._span[2] = perf_counter()
            self._context.stack.pop()


def _wrap_context(fn: Callable, name: str, label: None, count: None):
    """The wrapper factory for a callable that returns a context manager."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        inner = fn(*args, **kwargs)
        return _SpanContext(inner, name) if RECORDER.on else inner

    return wrapper


def _session_label(language: str) -> Callable:
    return lambda args, kwargs, result: statement_class(
        language, args[1] if len(args) > 1 else kwargs.get("text")
    )


def _decode_label(args: tuple, kwargs: dict, result: Any) -> str:
    return wire_class(result.get("op"), result.get("session"), result.get("statement"))


def _call_label(args: tuple, kwargs: dict, result: Any) -> str:
    return wire_class(args[1], kwargs.get("session"), kwargs.get("statement"))


def _txn_label(args: tuple, kwargs: dict, result: Any) -> str:
    return "txn"


def _result(args: tuple, kwargs: dict, result: Any) -> int:
    return result


def _len_result(args: tuple, kwargs: dict, result: Any) -> int:
    return len(result)


def _len_first(args: tuple, kwargs: dict, result: Any) -> int:
    return len(args[0])


#: module, dotted attribute, span name[, label, count, wrapper factory].
#: Every callable here is public API of its module; the span name is the
#: stem of the per-layer metrics it feeds (see README.md).
_SERVER_TARGETS = [
    ("repro.server.protocol", "decode", "server.protocol.decode", _decode_label),
    ("repro.server.protocol", "encode", "server.protocol.encode", None, _len_result),
    ("repro.server.protocol", "result_to_wire", "server.protocol.encode"),
    ("repro.server.admission", "AdmissionController.admit", "server.admission", None, None, _wrap_context),
    ("repro.server.admission", "AdmissionController.acquire", "server.admission.wait"),
    ("repro.core.session", "SqlSession.run", "core.session.run", _session_label("sql")),
    ("repro.core.session", "DaplexSession.run", "core.session.run", _session_label("daplex")),
    ("repro.core.session", "CodasylSession.run", "core.session.run", _session_label("codasyl")),
    ("repro.core.session", "DliSession.run", "core.session.run", _session_label("dli")),
    ("repro.relational.sql", "parse_script", "relational.sql.parse"),
    ("repro.functional.daplex_dml", "parse_program", "functional.daplex_dml.parse"),
    ("repro.network.dml", "parse_transaction", "network.dml.parse"),
    ("repro.hierarchical.dli", "parse_calls", "hierarchical.dli.parse"),
    # HierarchicalSqlEngine (SQL over the school database) inherits run.
    ("repro.kms.sql_engine", "SqlEngine.run", "kms.sql_engine"),
    ("repro.kms.daplex_engine", "DaplexEngine.run", "kms.daplex_engine"),
    ("repro.kms.engine", "DMLEngine.run", "kms.engine"),
    ("repro.kms.dli_engine", "DliEngine.run", "kms.dli_engine"),
    ("repro.kc.controller", "KernelController.execute", "kc.controller"),
    ("repro.mbds.kds", "KernelDatabaseSystem.execute", "mbds.kds.execute"),
    ("repro.mbds.kds", "KernelDatabaseSystem.bulk_insert", "mbds.kds.execute"),
    ("repro.mbds.kds", "KernelDatabaseSystem.session_begin", "mbds.kds.commit", _txn_label),
    ("repro.mbds.kds", "KernelDatabaseSystem.session_commit", "mbds.kds.commit", _txn_label),
    ("repro.mbds.kds", "KernelDatabaseSystem.session_abort", "mbds.kds.commit", _txn_label),
    ("repro.mbds.locks", "LockManager.acquire", "mbds.locks"),
    ("repro.mbds.locks", "LockManager.release_all", "mbds.locks"),
    ("repro.mbds.controller", "BackendController.execute", "mbds.controller"),
    ("repro.mbds.engine", "ExecutionEngine.run_distinct", "mbds.engine.run"),
    ("repro.mbds.engine", "ExecutionEngine.execute_one", "mbds.engine.run"),
    ("repro.mbds.engine", "SerialEngine.run", "mbds.engine.run"),
    ("repro.mbds.engine", "ProcessPoolEngine.run", "mbds.engine.run"),
    ("repro.mbds.engine", "ProcessPoolEngine.run_distinct", "mbds.engine.run"),
    ("repro.mbds.engine", "ProcessPoolEngine.execute_one", "mbds.engine.run"),
    ("repro.mbds.backend", "Backend.execute", "mbds.backend.execute"),
    ("repro.abdm.store", "ABStore.find", "abdm.store.find"),
    ("repro.abdm.store", "ABStore.find_at", "abdm.store.find"),
    ("repro.abdm.store", "ABStore.insert", "abdm.store.write"),
    ("repro.abdm.store", "ABStore.update", "abdm.store.write"),
    ("repro.abdm.store", "ABStore.delete", "abdm.store.write"),
    ("repro.abdm.store", "ABStore.bulk_insert", "abdm.store.write"),
    # Request encode + marshal + pipe write, and reply decode.  The read
    # that waits for the worker (PipeTransport.recv_any) stays inside
    # mbds.engine.run: it is the worker's compute, not codec time.
    ("repro.ipc.codec", "encode_any_request", "ipc.codec"),
    ("repro.ipc.codec", "decode_backend_result", "ipc.codec"),
    ("repro.ipc.transport", "PipeTransport.send", "ipc.codec"),
    ("repro.ipc.transport", "PipeTransport.send_batch", "ipc.codec"),
    ("repro.ipc.frames", "pack_frame", "ipc.frame", None, _len_result),
    ("repro.ipc.frames", "unpack_frame", "ipc.frame", None, _len_first),
    ("repro.wal.log", "WalManager.log_op", "wal.log.append"),
    ("repro.wal.log", "WalManager.log_bulk", "wal.log.append"),
    ("repro.wal.log", "WalManager.commit", "wal.log.commit"),
    ("repro.wal.recovery", "replay_committed", "wal.recovery.replay", None, _result),
    ("repro.persistence", "save_mlds", "persistence.save"),
    ("repro.persistence", "load_mlds", "persistence.load"),
]

_CLIENT_TARGETS = [
    ("repro.server.client", "ServerClient.call", "server.client.call", _call_label),
    ("repro.server.protocol", "encode", "server.client.codec"),
    ("repro.server.protocol", "decode", "server.client.codec"),
]


def _install(targets: list) -> None:
    for module_name, *_ in targets:
        importlib.import_module(module_name)
    for module_name, path, name, *rest in targets:
        label, count, factory = (rest + [None, None, None])[:3]
        owner: Any = sys.modules[module_name]
        *holders, attribute = path.split(".")
        for holder in holders:
            owner = getattr(owner, holder)
        original = owner.__dict__[attribute]
        wrapped = (factory or _wrap)(original, name, label, count)
        setattr(owner, attribute, wrapped)
        if not holders:
            # ``from module import fn`` elsewhere in repro bound the
            # original at import time; rebind those names too.
            for other in list(sys.modules.values()):
                if other is None or not getattr(other, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, wrapped)


def install_server() -> None:
    import repro.cli  # noqa: F401  (pulls in every layer before rebinding)

    _install(_SERVER_TARGETS)


def install_client() -> None:
    _install(_CLIENT_TARGETS)
