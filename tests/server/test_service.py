"""The MLDS server end to end: real sockets, four languages, one kernel.

A module-scoped server hosts the university (functional), a network, a
relational, and a hierarchical database; clients connect over TCP and
exercise authentication, quotas, rate limits, admission shedding,
transactions, and the metrics endpoint.
"""

from __future__ import annotations

import gc
import threading
import time

import pytest

from repro import MLDS, errors
from repro.obs import Observability
from repro.obs.gcprobe import GcProbe
from repro.server import (
    Authenticator,
    Credential,
    MLDSServer,
    ServerClient,
)
from repro.university import generate_university, load_university

NET_DDL = """
SCHEMA NAME IS fleet;
RECORD NAME IS ship;
    sname TYPE IS CHARACTER 20;
    hull TYPE IS INTEGER;
SET NAME IS system_ship;
    OWNER IS SYSTEM;
    MEMBER IS ship;
    INSERTION IS AUTOMATIC;
    RETENTION IS FIXED;
    SET SELECTION IS BY APPLICATION;
"""

REL_DDL = """
DATABASE payroll;
CREATE TABLE pay (pid INT, amount FLOAT, PRIMARY KEY (pid));
"""

HIE_DDL = """
DATABASE archive;
SEGMENT box ROOT (label CHAR(10));
SEGMENT folder UNDER box (topic CHAR(20));
"""


@pytest.fixture(scope="module")
def served():
    mlds = MLDS(backend_count=3)
    load_university(mlds, generate_university(persons=8, courses=3, seed=7))
    mlds.define_network_database(NET_DDL)
    mlds.define_relational_database(REL_DDL)
    mlds.define_hierarchical_database(HIE_DDL)
    authenticator = Authenticator()
    authenticator.register(Credential(token="open-sesame", user="alice"))
    authenticator.register(
        Credential(token="narrow", user="bob", max_sessions=1, max_requests=2)
    )
    authenticator.register(
        Credential(token="throttled", user="carol", rate=0.0001, burst=1)
    )
    authenticator.register(
        Credential(token="reconnect-throttle", user="dave", rate=0.0001, burst=1)
    )
    server = MLDSServer(
        mlds, authenticator, max_inflight=1, max_queue=0
    )
    handle = server.serve_in_thread()
    yield handle
    handle.stop()
    mlds.kds.shutdown()


def connect(served, token="open-sesame"):
    client = ServerClient(served.host, served.port)
    client.auth(token)
    return client


class TestHandshake:
    def test_ping_without_auth(self, served):
        with ServerClient(served.host, served.port) as client:
            assert client.ping()

    def test_operations_require_auth(self, served):
        with ServerClient(served.host, served.port) as client:
            with pytest.raises(errors.AuthenticationError):
                client.open("sql", "payroll")

    def test_bad_token_rejected(self, served):
        with ServerClient(served.host, served.port) as client:
            with pytest.raises(errors.AuthenticationError):
                client.auth("wrong")

    def test_double_auth_rejected(self, served):
        with connect(served) as client:
            with pytest.raises(errors.ProtocolError):
                client.auth("open-sesame")

    def test_unknown_op(self, served):
        with connect(served) as client:
            with pytest.raises(errors.ProtocolError, match="unknown op"):
                client.call("frobnicate")

    def test_malformed_line_is_answered_not_fatal(self, served):
        with connect(served) as client:
            client._file.write(b"this is not json\n")
            client._file.flush()
            from repro.server import protocol

            response = protocol.decode(client._file.readline())
            assert response["ok"] is False
            assert response["error"]["type"] == "ProtocolError"
            assert client.ping()  # connection survived


class TestFourLanguages:
    def test_all_four_languages_over_one_connection(self, served):
        with connect(served) as client:
            daplex = client.open("daplex", "university")
            rows = client.execute(daplex, "FOR EACH s IN student PRINT name(s);")
            assert rows[0]["rows"]

            codasyl = client.open("codasyl", "fleet")
            client.execute(codasyl, "MOVE 'Nimitz' TO sname IN ship")
            client.execute(codasyl, "MOVE 68 TO hull IN ship")
            client.execute(codasyl, "STORE ship")
            found = client.execute(codasyl, "FIND ANY ship USING sname IN ship")
            assert found[0]["values"]["hull"] == 68

            sql = client.open("sql", "payroll")
            client.execute(sql, "INSERT INTO pay VALUES (1, 99.5)")
            rows = client.execute(sql, "SELECT amount FROM pay WHERE pid = 1")
            assert rows[0]["rows"] == [{"amount": 99.5}]

            dli = client.open("dli", "archive")
            client.execute(dli, "FLD label = 'b-9'")
            isrt = client.execute(dli, "ISRT box")
            assert isrt[0]["dbkey"]

    def test_codasyl_over_functional_transform(self, served):
        # The thesis's centerpiece, through a socket: CODASYL-DML
        # against the functional university database.
        with connect(served) as client:
            session = client.open("codasyl", "university")
            result = client.execute(
                session, "FIND FIRST person WITHIN system_person"
            )
            assert result[0]["status"] == "ok"

    def test_unknown_language_and_database(self, served):
        with connect(served) as client:
            with pytest.raises(errors.ProtocolError, match="language"):
                client.open("cobol", "payroll")
            with pytest.raises(errors.SchemaError):
                client.open("sql", "missing-db")

    def test_execute_on_unknown_session(self, served):
        with connect(served) as client:
            with pytest.raises(errors.ProtocolError, match="no open session"):
                client.execute("s99", "SELECT * FROM pay")


class TestTransactionsOverTheWire:
    def test_commit_makes_writes_durable(self, served):
        with connect(served) as client:
            sql = client.open("sql", "payroll")
            client.begin()
            client.execute(sql, "INSERT INTO pay VALUES (10, 1.0)")
            seq = client.commit()
            assert seq > 0
            rows = client.execute(sql, "SELECT pid FROM pay WHERE pid = 10")
            assert rows[0]["rows"] == [{"pid": 10}]

    def test_abort_rolls_back(self, served):
        with connect(served) as client:
            sql = client.open("sql", "payroll")
            client.begin()
            client.execute(sql, "INSERT INTO pay VALUES (11, 1.0)")
            client.abort()
            rows = client.execute(sql, "SELECT pid FROM pay WHERE pid = 11")
            assert rows[0]["rows"] == []

    def test_disconnect_aborts_open_transaction(self, served):
        client = connect(served)
        sql = client.open("sql", "payroll")
        client.begin()
        client.execute(sql, "INSERT INTO pay VALUES (12, 1.0)")
        client.close()  # walks away mid-transaction
        with connect(served) as probe:
            probe_sql = probe.open("sql", "payroll")
            for _ in range(100):  # teardown is asynchronous; poll briefly
                rows = probe.execute(
                    probe_sql, "SELECT pid FROM pay WHERE pid = 12"
                )
                if rows[0]["rows"] == []:
                    break
                time.sleep(0.05)
            assert rows[0]["rows"] == []

    def test_two_connections_isolated_by_kernel_locks(self, served):
        with connect(served) as writer, connect(served) as reader:
            w = writer.open("sql", "payroll")
            r = reader.open("sql", "payroll")
            writer.begin()
            writer.execute(w, "INSERT INTO pay VALUES (13, 5.0)")
            writer.commit()
            rows = reader.execute(r, "SELECT amount FROM pay WHERE pid = 13")
            assert rows[0]["rows"] == [{"amount": 5.0}]


class TestQuotasAndLimits:
    def test_session_quota(self, served):
        first = connect(served, token="narrow")
        try:
            with ServerClient(served.host, served.port) as second:
                with pytest.raises(errors.QuotaExceeded):
                    second.auth("narrow")
        finally:
            first.close()

    def test_lifetime_request_quota(self, served):
        # bob's sessions quota is 1, so reuse one connection; his
        # lifetime statement quota is 2 and the previous test spent 0.
        for _ in range(100):  # wait out the previous test's teardown
            try:
                client = connect(served, token="narrow")
                break
            except errors.QuotaExceeded:
                time.sleep(0.05)
        with client:
            sql = client.open("sql", "payroll")
            client.execute(sql, "SELECT pid FROM pay WHERE pid = 0")
            client.execute(sql, "SELECT pid FROM pay WHERE pid = 0")
            with pytest.raises(errors.QuotaExceeded, match="lifetime"):
                client.execute(sql, "SELECT pid FROM pay WHERE pid = 0")

    def test_rate_limit(self, served):
        with connect(served, token="throttled") as client:
            sql = client.open("sql", "payroll")
            client.execute(sql, "SELECT pid FROM pay WHERE pid = 0")
            with pytest.raises(errors.RateLimitExceeded, match="retry"):
                client.execute(sql, "SELECT pid FROM pay WHERE pid = 0")

    def test_reconnecting_does_not_refresh_rate_limit_burst(self, served):
        # The bucket belongs to the credential, not the connection: a
        # client cannot mint a fresh burst by dropping and re-dialing.
        with connect(served, token="reconnect-throttle") as client:
            sql = client.open("sql", "payroll")
            client.execute(sql, "SELECT pid FROM pay WHERE pid = 0")
        with connect(served, token="reconnect-throttle") as client:
            sql = client.open("sql", "payroll")
            with pytest.raises(errors.RateLimitExceeded):
                client.execute(sql, "SELECT pid FROM pay WHERE pid = 0")

    def test_overload_sheds_with_clear_error(self, served):
        # Fill the single execution slot with a statement blocked on a
        # kernel lock, then watch the next statement get shed (queue 0).
        # Snapshot reads mean a SELECT no longer parks on the writer's
        # lock, so the slot-filler is a conflicting INSERT — writers
        # still serialize per file under strict 2PL.
        blocker = connect(served)
        blocked = connect(served)
        shed = connect(served)
        try:
            b = blocker.open("sql", "payroll")
            blocker.begin()
            blocker.execute(b, "INSERT INTO pay VALUES (77, 7.0)")

            blocked_sql = blocked.open("sql", "payroll")
            result: list = []

            def run_blocked():
                result.append(
                    blocked.execute(
                        blocked_sql, "INSERT INTO pay VALUES (78, 8.0)"
                    )
                )

            thread = threading.Thread(target=run_blocked)
            thread.start()
            server = served.server
            for _ in range(200):  # wait until it occupies the slot
                if server.admission.stats()["inflight"] >= 1:
                    break
                time.sleep(0.01)
            assert server.admission.stats()["inflight"] == 1

            shed_sql = shed.open("sql", "payroll")
            with pytest.raises(errors.ServerOverloaded, match="retry"):
                shed.execute(shed_sql, "SELECT pid FROM pay WHERE pid = 0")

            blocker.commit()  # release the lock; the blocked writer finishes
            thread.join(timeout=15)
            assert result
            rows = shed.execute(shed_sql, "SELECT pid FROM pay WHERE pid = 78")
            assert rows[0]["rows"] == [{"pid": 78}]
        finally:
            blocker.close()
            blocked.close()
            shed.close()


class TestMetricsEndpoint:
    def test_metrics_open_to_unauthenticated_scrapes(self, served):
        with ServerClient(served.host, served.port) as client:
            snapshot = client.metrics()
            assert set(snapshot) == {"obs", "server", "locks"}

    def test_metrics_never_leak_tokens(self, served):
        # The metrics op is open to unauthenticated scrapes, so no raw
        # credential token may appear anywhere in the snapshot.
        with connect(served) as client:
            sql = client.open("sql", "payroll")
            client.execute(sql, "SELECT pid FROM pay WHERE pid = 0")
        with ServerClient(served.host, served.port) as scraper:
            wire = repr(scraper.metrics())
        for token in ("open-sesame", "narrow", "throttled", "reconnect-throttle"):
            assert token not in wire
        assert "alice" in wire  # accounting is still published, by user

    def test_metrics_reflect_served_traffic(self, served):
        with connect(served) as client:
            sql = client.open("sql", "payroll")
            client.execute(sql, "SELECT pid FROM pay WHERE pid = 0")
            snapshot = client.metrics()
        server_stats = snapshot["server"]
        assert server_stats["statements_total"] >= 1
        assert server_stats["connections_total"] >= 2
        assert server_stats["admission"]["admitted_total"] >= 1
        assert "acquired" in snapshot["locks"]
        assert "metrics" in snapshot["obs"]  # the obs registry JSON

    def test_gc_pauses_are_counted_on_an_instrumented_server(self, served):
        def probes():
            return [cb for cb in gc.callbacks if isinstance(getattr(cb, "__self__", None), GcProbe)]

        assert probes() == []  # the module's server has obs=None: nothing installed
        mlds = MLDS(backend_count=1, obs=Observability())
        authenticator = Authenticator()
        try:
            with MLDSServer(mlds, authenticator).serve_in_thread() as handle:
                assert len(probes()) == 1
                gc.collect()  # a full (generation 2) pass
                with ServerClient(handle.host, handle.port) as client:
                    metrics = client.metrics()["obs"]["metrics"]
                assert metrics["proc.gc.collections.gen2"]["value"] >= 1
                assert metrics["proc.gc.pause_s.gen2"]["value"] > 0
            assert probes() == []  # shutdown removed it
        finally:
            mlds.kds.shutdown()


class TestDoomedTransactionOverTheWire:
    """A mutation that fails after it was journaled dooms its transaction:
    the error reaches the client typed, ``commit`` is refused typed, and
    the ``metrics`` op shows the kernel holding nothing for it."""

    @pytest.fixture()
    def durable(self, tmp_path):
        from repro.wal.recovery import recover_mlds

        wal_dir = tmp_path / "wal"
        mlds = MLDS(backend_count=2, wal=wal_dir)
        mlds.define_relational_database(REL_DDL)
        authenticator = Authenticator()
        authenticator.register(Credential(token="open-sesame", user="alice"))
        handle = MLDSServer(mlds, authenticator).serve_in_thread()
        yield handle, mlds
        handle.stop()
        mlds.kds.shutdown()
        recover_mlds(wal_dir, attach_wal=False).kds.shutdown()  # the log replays

    def test_execute_error_then_commit_is_a_typed_refusal(self, durable, monkeypatch):
        handle, mlds = durable
        engine = mlds.kds.controller.engine
        real = engine.execute_one

        def fail_once(backend, request, *args, **kwargs):
            if request.operation != "INSERT":  # the key-uniqueness probe
                return real(backend, request, *args, **kwargs)
            monkeypatch.setattr(engine, "execute_one", real)
            raise errors.ExecutionError("backend died mid-apply")

        with connect(handle) as client:
            sql = client.open("sql", "payroll")
            client.execute(sql, "INSERT INTO pay VALUES (1, 1.0)")
            errors_before = client.metrics()["server"]["errors_total"]
            client.begin()
            client.execute(sql, "INSERT INTO pay VALUES (2, 2.0)")
            monkeypatch.setattr(engine, "execute_one", fail_once)
            with pytest.raises(errors.ExecutionError, match="mid-apply"):
                client.execute(sql, "INSERT INTO pay VALUES (3, 3.0)")
            with pytest.raises(errors.TransactionAborted):
                client.commit()
            snapshot = client.metrics()
            assert snapshot["locks"]["held"] == 0
            assert snapshot["server"]["open_transactions"] == []
            assert snapshot["server"]["errors_total"] == errors_before + 2
            # The whole transaction went, the connection did not.
            rows = client.execute(sql, "SELECT pid FROM pay WHERE pid >= 1")
            assert rows[0]["rows"] == [{"pid": 1}]
            client.execute(sql, "INSERT INTO pay VALUES (4, 4.0)")
