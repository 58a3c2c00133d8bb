"""The MLDS network service: concurrent multi-language sessions over TCP.

:class:`MLDSServer` hosts one :class:`~repro.core.mlds.MLDS` instance
behind an asyncio line-protocol endpoint (see
:mod:`repro.server.protocol`).  Each connection authenticates with a
token, opens LIL sessions in any of the four languages, and executes
statements; every connection is bound to its own *kernel session*
(:meth:`~repro.core.mlds.MLDS.create_kernel_session`), so statements
from different connections interleave safely under the kernel's
two-phase locks while each connection's transactions stay atomic.

Connections are handled concurrently by the event loop; statement
execution (which blocks on the kernel) runs on a thread pool, bounded
by :class:`~repro.server.admission.AdmissionController` and paced by
each credential's :class:`~repro.server.ratelimit.TokenBucket`.

A connection's operations execute strictly in order (the handler awaits
each response before reading the next line), so the non-thread-safe LIL
session objects are never entered concurrently; cross-connection
concurrency is the kernel lock manager's problem, by design.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Dict, Optional

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
        # Headroom past the admission bounds lets late arrivals reach the
        # shed branch (and keeps begin/commit/abort, which bypass
        # admission, from starving behind queued statements).
        self._pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=max_inflight + max_queue + 8,
            thread_name_prefix="mlds-server",
        )
        self._server: Optional[asyncio.AbstractServer] = None
        # Installed in start() only when the MLDS is instrumented: without
        # a registry to report to, the interpreter gets no hook at all.
        self._gc_probe = GcProbe(mlds.obs.metrics)
        self._started = time.monotonic()
        self._lock = threading.Lock()
        self.connections_total = 0
        self.statements_total = 0
        self.errors_total = 0
        self._ops: Dict[str, Callable[[_Connection, dict], Awaitable[dict]]] = {
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

    async def start(self) -> None:
        """Bind and start accepting connections (port 0 picks a free one)."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=protocol.MAX_LINE + 2
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started = time.monotonic()
        if self.mlds.obs.enabled:
            self._gc_probe.install()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._gc_probe.remove()
        self._pool.shutdown(wait=False, cancel_futures=True)

    def serve_in_thread(self) -> "ServerHandle":
        """Start the server on a daemon thread; embed it in tests/benchmarks."""
        started: concurrent.futures.Future = concurrent.futures.Future()

        def runner() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(self.start())
            except BaseException as exc:  # pragma: no cover - bind failure
                started.set_exception(exc)
                loop.close()
                return
            started.set_result(loop)
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(loop.shutdown_asyncgens())
                loop.close()

        thread = threading.Thread(target=runner, daemon=True, name="mlds-server")
        thread.start()
        loop = started.result(timeout=10)
        return ServerHandle(self, thread, loop)

    # -- connection handling ----------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection()
        with self._lock:
            self.connections_total += 1
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    writer.write(
                        protocol.encode(
                            protocol.error_response(
                                None, errors.ProtocolError("line too long")
                            )
                        )
                    )
                    await writer.drain()
                    break
                if not line:
                    break
                response, closing = await self._dispatch(conn, line)
                writer.write(protocol.encode(response))
                await writer.drain()
                if closing:
                    break
        except ConnectionError:
            pass
        finally:
            await self._teardown(conn)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):  # pragma: no cover
                pass

    async def _dispatch(self, conn: _Connection, line: bytes) -> tuple[dict, bool]:
        request_id: Any = None
        try:
            message = protocol.decode(line)
            request_id = message.get("id")
            op = message.get("op")
            handler = self._ops.get(str(op))
            if handler is None:
                raise errors.ProtocolError(f"unknown op {op!r}")
            fields = await handler(conn, message)
            return protocol.ok_response(request_id, **fields), op == "close"
        except Exception as exc:  # every failure becomes a wire error
            with self._lock:
                self.errors_total += 1
            return protocol.error_response(request_id, exc), False

    async def _teardown(self, conn: _Connection) -> None:
        """Abort any open transaction and release quota on disconnect."""
        session = conn.kernel_session
        if session is not None and session.in_transaction:
            await self._in_pool(self.mlds.kds.session_abort, session)
        if conn.credential is not None:
            self.authenticator.release_connection(conn.credential)
            conn.credential = None

    async def _in_pool(self, fn: Callable, *args: Any) -> Any:
        return await asyncio.get_running_loop().run_in_executor(
            self._pool, fn, *args
        )

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

    async def _op_auth(self, conn: _Connection, message: dict) -> dict:
        if conn.credential is not None:
            raise errors.ProtocolError("connection is already authenticated")
        credential = self.authenticator.authenticate(message.get("token"))
        self.authenticator.acquire_connection(credential)
        conn.credential = credential
        # The bucket is shared across every connection holding this
        # credential: reconnecting must not refresh the burst allowance.
        conn.bucket = self.authenticator.bucket_for(credential)
        return {"user": credential.user}

    async def _op_open(self, conn: _Connection, message: dict) -> dict:
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

    async def _op_execute(self, conn: _Connection, message: dict) -> dict:
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
        results = await self._in_pool(self._run_statement, open_session, text)
        with self._lock:
            self.statements_total += 1
        return {"results": [protocol.result_to_wire(r) for r in results]}

    def _run_statement(self, open_session: _OpenSession, text: str) -> list:
        with self.admission.admit():
            return open_session.session.run(text)

    async def _op_begin(self, conn: _Connection, message: dict) -> dict:
        self._require_auth(conn)
        session = self._kernel_session(conn)
        await self._in_pool(self.mlds.kds.session_begin, session)
        return {"transaction": session.owner}

    async def _op_commit(self, conn: _Connection, message: dict) -> dict:
        self._require_auth(conn)
        session = self._kernel_session(conn)
        commit_seq = await self._in_pool(self.mlds.kds.session_commit, session)
        return {"commit_seq": commit_seq}

    async def _op_abort(self, conn: _Connection, message: dict) -> dict:
        self._require_auth(conn)
        session = self._kernel_session(conn)
        await self._in_pool(self.mlds.kds.session_abort, session)
        return {"aborted": True}

    async def _op_metrics(self, conn: _Connection, message: dict) -> dict:
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

    async def _op_ping(self, conn: _Connection, message: dict) -> dict:
        return {"pong": True}

    async def _op_close(self, conn: _Connection, message: dict) -> dict:
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


class ServerHandle:
    """A server running on its own thread (see ``serve_in_thread``)."""

    def __init__(
        self,
        server: MLDSServer,
        thread: threading.Thread,
        loop: asyncio.AbstractEventLoop,
    ) -> None:
        self.server = server
        self._thread = thread
        self._loop = loop

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def stop(self, timeout: float = 10.0) -> None:
        if not self._thread.is_alive():
            return
        concurrent.futures.wait(
            [asyncio.run_coroutine_threadsafe(self.server.shutdown(), self._loop)],
            timeout=timeout,
        )
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
