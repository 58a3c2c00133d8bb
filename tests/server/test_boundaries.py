"""Every socket boundary fails typed and leaves the kernel holding nothing.

Each case drives the server through a raw socket to one edge of the wire
— a torn line, an oversized line, a protocol misuse, a client that
leaves while its statement is parked on a lock, a client that never
reads — and then asserts from the ``metrics`` op, the way an operator
would see it, that no lock is held, no transaction is open, and
``errors_total`` counted exactly the typed errors the client was sent.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any, Optional

import pytest

from repro import MLDS, errors
from repro.server import Authenticator, Credential, MLDSServer, ServerClient, protocol

from tests.server.test_service import REL_DDL

TOKEN = "open-sesame"


class Wire:
    """A client speaking the protocol by hand, one raw socket."""

    def __init__(self, host: str, port: int, sock: Optional[socket.socket] = None) -> None:
        self.sock = sock or socket.create_connection((host, port), timeout=10)
        self.file = self.sock.makefile("rb")

    def send(self, op: str, **params: Any) -> None:
        self.sock.sendall(protocol.encode({"op": op, "id": 1, **params}))

    def reply(self) -> Optional[dict]:
        """The next reply, or None once the server has closed."""
        line = self.file.readline()
        return protocol.decode(line) if line else None

    def call(self, op: str, **params: Any) -> dict:
        self.send(op, **params)
        reply = self.reply()
        assert reply is not None and reply["ok"], reply
        return reply

    def in_transaction(self, pid: int) -> str:
        """Authenticate, open SQL, begin, and insert *pid*; the owner."""
        self.call("auth", token=TOKEN)
        sid = self.call("open", language="sql", database="payroll")["session"]
        owner = self.call("begin")["transaction"]
        self.call("execute", session=sid, statement=f"INSERT INTO pay VALUES ({pid}, 1.0)")
        return owner

    def close(self) -> None:
        self.file.close()
        self.sock.close()


@pytest.fixture()
def served(tmp_path):
    mlds = MLDS(backend_count=2, wal=tmp_path / "wal")
    mlds.define_relational_database(REL_DDL)
    authenticator = Authenticator()
    authenticator.register(Credential(token=TOKEN, user="alice"))
    handle = MLDSServer(mlds, authenticator).serve_in_thread()
    with ServerClient(handle.host, handle.port) as scraper:
        yield handle, scraper
    handle.stop()
    mlds.kds.shutdown()


def errors_total(scraper: ServerClient) -> int:
    return scraper.metrics()["server"]["errors_total"]


def settled(scraper: ServerClient) -> dict:
    """The metrics snapshot once disconnect teardown has run: it runs on
    the connection's own thread, after the client has already gone."""
    deadline = time.monotonic() + 10
    while True:
        snapshot = scraper.metrics()
        quiet = snapshot["locks"]["held"] == 0 and snapshot["server"]["open_transactions"] == []
        if quiet or time.monotonic() > deadline:
            return snapshot
        time.sleep(0.02)


def assert_settled(scraper: ServerClient, errors_expected: int) -> None:
    snapshot = settled(scraper)
    assert snapshot["locks"]["held"] == 0
    assert snapshot["server"]["open_transactions"] == []
    assert snapshot["server"]["errors_total"] == errors_expected


def stored_pids(handle) -> list:
    with ServerClient(handle.host, handle.port) as client:
        client.auth(TOKEN)
        sql = client.open("sql", "payroll")
        rows = client.execute(sql, "SELECT pid FROM pay WHERE pid >= 0")[0]["rows"]
    return sorted(row["pid"] for row in rows)


def test_partial_line_then_eof_is_answered_typed_and_aborts(served):
    handle, scraper = served
    before = errors_total(scraper)
    wire = Wire(handle.host, handle.port)
    owner = wire.in_transaction(1)
    assert scraper.metrics()["server"]["open_transactions"] == [owner]
    wire.sock.sendall(b'{"op": "commit", "id"')  # torn mid-line ...
    wire.sock.shutdown(socket.SHUT_WR)  # ... and nothing more will come
    reply = wire.reply()
    assert reply is not None and reply["error"]["type"] == "ProtocolError"
    assert wire.reply() is None  # then the server hangs up
    wire.close()
    assert_settled(scraper, before + 1)
    assert stored_pids(handle) == []  # the torn commit committed nothing


def test_line_over_max_line_is_refused_typed_then_closed(served):
    handle, scraper = served
    before = errors_total(scraper)
    wire = Wire(handle.host, handle.port)
    wire.in_transaction(2)
    wire.sock.sendall(b"x" * (protocol.MAX_LINE + 2))  # no newline in reach
    reply = wire.reply()
    assert reply is not None and reply["ok"] is False
    assert reply["error"] == {"type": "ProtocolError", "message": "line too long"}
    assert wire.reply() is None
    wire.close()
    assert_settled(scraper, before + 1)
    assert stored_pids(handle) == []


def test_second_begin_is_a_typed_refusal_and_the_connection_survives(served):
    handle, scraper = served
    before = errors_total(scraper)
    with ServerClient(handle.host, handle.port) as client:
        client.auth(TOKEN)
        sql = client.open("sql", "payroll")
        client.begin()
        client.execute(sql, "INSERT INTO pay VALUES (3, 1.0)")
        with pytest.raises(errors.WalError, match="already has a transaction open"):
            client.begin()
        assert client.ping()
        assert client.commit() > 0  # the first transaction is intact
    assert_settled(scraper, before + 1)
    assert stored_pids(handle) == [3]


def test_disconnect_while_parked_in_a_lock_wait(served):
    handle, scraper = served
    before = errors_total(scraper)
    holder, parked = Wire(handle.host, handle.port), Wire(handle.host, handle.port)
    holder.in_transaction(4)
    parked.call("auth", token=TOKEN)
    sid = parked.call("open", language="sql", database="payroll")["session"]
    parked.call("begin")
    # Writers serialise per file under strict 2PL: this one parks.
    parked.send("execute", session=sid, statement="INSERT INTO pay VALUES (5, 1.0)")
    admission = handle.server.admission
    for _ in range(500):
        if admission.stats()["inflight"] == 1:
            break
        time.sleep(0.01)
    assert admission.stats()["inflight"] == 1
    parked.close()  # walks away mid-wait
    holder.call("commit")
    holder.close()
    assert_settled(scraper, before)  # nothing failed: the client just left
    assert stored_pids(handle) == [4]  # the parked write was rolled back


def test_a_client_that_never_reads_blocks_only_its_own_connection(served):
    handle, scraper = served
    before = errors_total(scraper)
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)  # a small window
    sock.connect((handle.host, handle.port))
    sock.settimeout(10)
    stuck = Wire(handle.host, handle.port, sock)
    owner = stuck.in_transaction(6)
    # Send requests and read no replies until the server stops taking
    # them: its connection thread is then blocked writing a reply.
    flood = protocol.encode({"op": "metrics", "id": 1}) * 64
    sock.setblocking(False)
    refused_since = None
    while refused_since is None or time.monotonic() - refused_since < 0.5:
        try:
            sock.send(flood)
            refused_since = None
        except BlockingIOError:
            refused_since = refused_since or time.monotonic()
            time.sleep(0.01)
    # Every other connection is served as before.
    with ServerClient(handle.host, handle.port) as other:
        assert other.ping()
        assert other.metrics()["server"]["open_transactions"] == [owner]
    stuck.close()
    assert_settled(scraper, before)
    assert stored_pids(handle) == []


def test_stop_aborts_open_transactions_and_answers_their_clients(tmp_path):
    mlds = MLDS(backend_count=2, wal=tmp_path / "wal")
    mlds.define_relational_database(REL_DDL)
    authenticator = Authenticator()
    authenticator.register(Credential(token=TOKEN, user="alice", max_sessions=1))
    handle = MLDSServer(mlds, authenticator).serve_in_thread()
    client = ServerClient(handle.host, handle.port)
    try:
        client.auth(TOKEN)
        sql = client.open("sql", "payroll")
        client.begin()
        client.execute(sql, "INSERT INTO pay VALUES (7, 1.0)")
        assert mlds.kds.wal.open_owners() != []
        stopper = threading.Thread(target=handle.stop, daemon=True)
        stopper.start()
        stopper.join(timeout=15)
        assert not stopper.is_alive(), "stop() never returned"
        # stop() returns once every connection's teardown has run.
        assert mlds.kds.wal.open_owners() == []
        assert mlds.kds.locks.stats()["held"] == 0
        assert authenticator.stats()["connections"] == {"alice": 0}
        with pytest.raises(errors.ServerError, match="server closed the connection"):
            client.ping()
    finally:
        client.close()
        mlds.kds.shutdown()
