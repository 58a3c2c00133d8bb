"""The MLDS network service: concurrent multi-language sessions over TCP.

:class:`MLDSServer` hosts one :class:`~repro.core.mlds.MLDS` instance
behind a line-protocol endpoint (see :mod:`repro.server.protocol`).
Each connection authenticates with a token, opens LIL sessions in any of
the four languages, and executes statements; every connection is bound
to its own *kernel session*
(:meth:`~repro.core.mlds.MLDS.create_kernel_session`), so statements
from different connections interleave safely under the kernel's
two-phase locks while each connection's transactions stay atomic.

One thread per connection: an accept thread hands each socket to a
thread of its own, which reads a line, runs the operation, and writes
the reply, all with blocking calls.  Statement execution is bounded by
:class:`~repro.server.admission.AdmissionController` and paced by each
credential's :class:`~repro.server.ratelimit.TokenBucket`; a connection
blocked on a kernel lock or on a client that never reads its replies
blocks only itself.

A connection's operations execute strictly in order (its thread sends
each reply before reading the next line), so the non-thread-safe LIL
session objects are never entered concurrently; cross-connection
concurrency is the kernel lock manager's problem, by design.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro import errors
from repro.core.mlds import MLDS
from repro.obs.gcprobe import GcProbe
from repro.server import protocol
from repro.server.admission import AdmissionController
from repro.server.auth import Authenticator, Credential
from repro.server.ratelimit import TokenBucket

#: Languages a connection may open sessions in, and how to open them.
LANGUAGES = ("codasyl", "daplex", "sql", "dli")


@dataclass
class _OpenSession:
    sid: str
    language: str
    database: str
    session: Any  # Codasyl/Daplex/Sql/DliSession


@dataclass
class _Connection:
    """Everything the server tracks for one TCP connection."""

    credential: Optional[Credential] = None
    bucket: Optional[TokenBucket] = None
    kernel_session: Any = None  # repro.mbds.sessions.KernelSession
    sessions: Dict[str, _OpenSession] = field(default_factory=dict)
    seq: int = 0


class MLDSServer:
    """Serve an MLDS instance to concurrent network clients."""

    def __init__(
        self,
        mlds: MLDS,
        authenticator: Authenticator,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 8,
        max_queue: int = 16,
    ) -> None:
        self.mlds = mlds
        self.authenticator = authenticator
        self.host = host
        self.port = port
        self.admission = AdmissionController(max_inflight, max_queue)
        self._listener: Optional[socket.socket] = None
        self._accepter: Optional[threading.Thread] = None
        # Every live connection's socket and the thread serving it;
        # close() shuts the sockets down and waits for the threads.
        self._connections: Dict[socket.socket, threading.Thread] = {}
        self._closed = threading.Event()
        # Installed in listen() only when the MLDS is instrumented: without
        # a registry to report to, the interpreter gets no hook at all.
        self._gc_probe = GcProbe(mlds.obs.metrics)
        self._started = time.monotonic()
        self._lock = threading.Lock()
        self.connections_total = 0
        self.statements_total = 0
        self.errors_total = 0
        self._ops: Dict[str, Callable[[_Connection, dict], dict]] = {
            "auth": self._op_auth,
            "open": self._op_open,
            "execute": self._op_execute,
            "begin": self._op_begin,
            "commit": self._op_commit,
            "abort": self._op_abort,
            "metrics": self._op_metrics,
            "ping": self._op_ping,
            "close": self._op_close,
        }

    # -- lifecycle --------------------------------------------------------------

    def listen(self) -> None:
        """Bind and start accepting connections (port 0 picks a free one)."""
        self._listener = socket.create_server((self.host, self.port), backlog=100)
        self.port = self._listener.getsockname()[1]
        self._started = time.monotonic()
        self._closed.clear()
        if self.mlds.obs.enabled:
            self._gc_probe.install()
        self._accepter = threading.Thread(
            target=self._accept_loop, args=(self._listener,), daemon=True,
            name="mlds-accept",
        )
        self._accepter.start()

    def serve_forever(self) -> None:
        """Listen if not yet listening, then block until :meth:`close`."""
        if self._listener is None:
            self.listen()
        self._closed.wait()

    def close(self) -> None:
        """Stop accepting, drop every connection, and wait for each
        connection's teardown (abort, then quota release) to finish."""
        with self._lock:
            listener, self._listener = self._listener, None
            connections = dict(self._connections)
        if listener is not None:
            _shutdown(listener)  # wakes the blocked accept()
            listener.close()
            assert self._accepter is not None
            self._accepter.join()
        for sock in connections:
            _shutdown(sock)  # the thread's readline() sees EOF
        for thread in connections.values():
            thread.join()
        self._gc_probe.remove()
        self._closed.set()

    async def start(self) -> None:
        """:meth:`listen`, for launchers that drive the server from a loop."""
        self.listen()

    async def shutdown(self) -> None:
        """:meth:`close`, for launchers that drive the server from a loop."""
        self.close()

    def serve_in_thread(self) -> "ServerHandle":
        """Start serving on background threads; embed it in tests/benchmarks."""
        self.listen()
        return ServerHandle(self)

    # -- connection handling ----------------------------------------------------

    def _accept_loop(self, listener: socket.socket) -> None:
        while True:
            try:
                sock, _ = listener.accept()
            except OSError:
                if self._listener is not listener:
                    return  # close() shut the listener down
                time.sleep(0.1)  # out of descriptors, say: retry, don't spin
                continue
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            thread = threading.Thread(
                target=self._serve, args=(sock,), daemon=True, name="mlds-conn"
            )
            with self._lock:
                if self._listener is not listener:  # closing: refuse
                    sock.close()
                    return
                self._connections[sock] = thread
                self.connections_total += 1
            thread.start()

    def _serve(self, sock: socket.socket) -> None:
        conn = _Connection()
        reader = sock.makefile("rb")
        try:
            while True:
                line = reader.readline(protocol.MAX_LINE + 2)
                if not line:
                    break
                # Cut at the limit with no newline in it: refuse, then hang up.
                # A shorter line without one is the last before EOF, and runs.
                if len(line) > protocol.MAX_LINE + 1 and not line.endswith(b"\n"):
                    sock.sendall(
                        protocol.encode(
                            self._error(None, errors.ProtocolError("line too long"))
                        )
                    )
                    break
                response, closing = self._dispatch(conn, line)
                sock.sendall(protocol.encode(response))
                if closing:
                    break
        except OSError:
            pass  # the client went away, or close() shut the socket down
        finally:
            try:
                self._teardown(conn)
            finally:
                reader.close()
                sock.close()
                with self._lock:
                    self._connections.pop(sock, None)

    def _dispatch(self, conn: _Connection, line: bytes) -> tuple[dict, bool]:
        request_id: Any = None
        try:
            message = protocol.decode(line)
            request_id = message.get("id")
            op = message.get("op")
            handler = self._ops.get(str(op))
            if handler is None:
                raise errors.ProtocolError(f"unknown op {op!r}")
            fields = handler(conn, message)
            return protocol.ok_response(request_id, **fields), op == "close"
        except Exception as exc:  # every failure becomes a wire error
            return self._error(request_id, exc), False

    def _error(self, request_id: Any, exc: BaseException) -> dict:
        with self._lock:
            self.errors_total += 1
        return protocol.error_response(request_id, exc)

    def _teardown(self, conn: _Connection) -> None:
        """Abort any open transaction and release quota on disconnect."""
        session = conn.kernel_session
        if session is not None and session.in_transaction:
            self.mlds.kds.session_abort(session)
        if conn.credential is not None:
            self.authenticator.release_connection(conn.credential)
            conn.credential = None

    def _require_auth(self, conn: _Connection) -> Credential:
        if conn.credential is None:
            raise errors.AuthenticationError(
                "not authenticated; send {'op': 'auth', 'token': ...} first"
            )
        return conn.credential

    def _kernel_session(self, conn: _Connection) -> Any:
        if conn.kernel_session is None:
            conn.kernel_session = self.mlds.create_kernel_session()
        return conn.kernel_session

    # -- operations -------------------------------------------------------------

    def _op_auth(self, conn: _Connection, message: dict) -> dict:
        if conn.credential is not None:
            raise errors.ProtocolError("connection is already authenticated")
        credential = self.authenticator.authenticate(message.get("token"))
        self.authenticator.acquire_connection(credential)
        conn.credential = credential
        # The bucket is shared across every connection holding this
        # credential: reconnecting must not refresh the burst allowance.
        conn.bucket = self.authenticator.bucket_for(credential)
        return {"user": credential.user}

    def _op_open(self, conn: _Connection, message: dict) -> dict:
        credential = self._require_auth(conn)
        language = str(message.get("language", "")).lower()
        database = message.get("database")
        if language not in LANGUAGES:
            raise errors.ProtocolError(
                f"unknown language {language!r}; expected one of {LANGUAGES}"
            )
        if not isinstance(database, str) or not database:
            raise errors.ProtocolError("open requires a 'database' name")
        user = str(message.get("user") or credential.user)
        kernel_session = self._kernel_session(conn)
        opener = getattr(self.mlds, f"open_{language}_session")
        session = opener(database, user=user, kernel_session=kernel_session)
        conn.seq += 1
        sid = f"s{conn.seq}"
        conn.sessions[sid] = _OpenSession(sid, language, database, session)
        return {"session": sid, "language": language, "database": database}

    def _op_execute(self, conn: _Connection, message: dict) -> dict:
        credential = self._require_auth(conn)
        sid = message.get("session")
        open_session = conn.sessions.get(str(sid))
        if open_session is None:
            raise errors.ProtocolError(f"no open session {sid!r}")
        text = message.get("statement")
        if not isinstance(text, str):
            raise errors.ProtocolError("execute requires a 'statement' string")
        assert conn.bucket is not None
        if not conn.bucket.try_acquire():
            raise errors.RateLimitExceeded(
                f"rate limit of {conn.bucket.rate}/s exceeded; retry in "
                f"{conn.bucket.retry_after():.3f}s"
            )
        self.authenticator.charge_request(credential)
        with self.admission.admit():
            results = open_session.session.run(text)
        with self._lock:
            self.statements_total += 1
        return {"results": [protocol.result_to_wire(r) for r in results]}

    def _op_begin(self, conn: _Connection, message: dict) -> dict:
        self._require_auth(conn)
        session = self._kernel_session(conn)
        self.mlds.kds.session_begin(session)
        return {"transaction": session.owner}

    def _op_commit(self, conn: _Connection, message: dict) -> dict:
        self._require_auth(conn)
        commit_seq = self.mlds.kds.session_commit(self._kernel_session(conn))
        return {"commit_seq": commit_seq}

    def _op_abort(self, conn: _Connection, message: dict) -> dict:
        self._require_auth(conn)
        self.mlds.kds.session_abort(self._kernel_session(conn))
        return {"aborted": True}

    def _op_metrics(self, conn: _Connection, message: dict) -> dict:
        # The observability plane: open to unauthenticated scrapes, like
        # a conventional /metrics endpoint.
        locks = self.mlds.kds.locks
        self._gc_probe.flush()
        return {
            "obs": self.mlds.obs.as_dict(),
            "server": self.stats(),
            # stats() carries the counters (timeouts, deadlocks, ...);
            # wait_ms adds the per-mode lock-wait histograms so a scrape
            # can see *which* lock modes contend, not just how often.
            "locks": {**locks.stats(), "wait_ms": locks.wait_histograms()},
        }

    def _op_ping(self, conn: _Connection, message: dict) -> dict:
        return {"pong": True}

    def _op_close(self, conn: _Connection, message: dict) -> dict:
        return {"closed": True}

    # -- introspection ----------------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            counters = {
                "connections_total": self.connections_total,
                "statements_total": self.statements_total,
                "errors_total": self.errors_total,
            }
        counters["uptime_s"] = round(time.monotonic() - self._started, 3)
        wal = self.mlds.kds.wal
        counters["open_transactions"] = wal.open_owners() if wal is not None else []
        counters["admission"] = self.admission.stats()
        counters["auth"] = self.authenticator.stats()
        return counters


def _shutdown(sock: socket.socket) -> None:
    """Shut both directions of *sock*; it may already be gone."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass


class ServerHandle:
    """A listening server, closed by :meth:`stop` (see ``serve_in_thread``)."""

    def __init__(self, server: MLDSServer) -> None:
        self.server = server

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def stop(self) -> None:
        self.server.close()

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
