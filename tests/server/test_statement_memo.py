"""The statement memo is reachable from the served path, in every language.

The server hands ``session.run(text)`` the statement text it received;
each language's engine must look that text up in the one process-wide
memo, so the second arrival of a statement is a hit whichever language
it is written in — counted here from the ``metrics`` op, the way a
scrape would see it.
"""

from __future__ import annotations

import pytest

from repro import MLDS
from repro.obs import Observability
from repro.qc import runtime as qc_runtime
from repro.server import Authenticator, Credential, MLDSServer, ServerClient, protocol
from repro.university import generate_university, load_university

from tests.server.test_service import HIE_DDL, NET_DDL, REL_DDL

#: language -> (database, a read whose answer does not depend on currency)
READS = {
    "sql": ("payroll", "SELECT amount FROM pay WHERE pid = 1"),
    "daplex": ("university", "FOR EACH s IN student PRINT name(s);"),
    "codasyl": ("fleet", "FIND FIRST ship WITHIN system_ship; GET"),
    "dli": ("archive", "GU box (label = 'b-9')"),
}


@pytest.fixture()
def served():
    qc_runtime.reset()
    mlds = MLDS(backend_count=2, obs=Observability())
    load_university(mlds, generate_university(persons=8, courses=3, seed=7))
    mlds.define_network_database(NET_DDL)
    mlds.define_relational_database(REL_DDL)
    mlds.define_hierarchical_database(HIE_DDL)
    # Loaded with execute(), which parses one statement and memoises nothing.
    mlds.open_sql_session("payroll").execute("INSERT INTO pay VALUES (1, 99.5)")
    fleet = mlds.open_codasyl_session("fleet")
    for statement in ("MOVE 'Nimitz' TO sname IN ship", "MOVE 68 TO hull IN ship", "STORE ship"):
        fleet.execute(statement)
    archive = mlds.open_dli_session("archive")
    archive.execute("FLD label = 'b-9'")
    archive.execute("ISRT box")
    authenticator = Authenticator()
    authenticator.register(Credential(token="open-sesame", user="alice"))
    handle = MLDSServer(mlds, authenticator).serve_in_thread()
    yield handle
    handle.stop()
    mlds.kds.shutdown()
    qc_runtime.reset()


def memo_counters(client: ServerClient) -> tuple[int, int]:
    registry = client.metrics()["obs"]["metrics"]
    return tuple(
        registry.get(f"qc.parse.{name}", {"value": 0})["value"] for name in ("hits", "misses")
    )


def test_each_language_hits_the_memo_on_a_repeated_statement(served):
    with ServerClient(served.host, served.port) as client:
        client.auth("open-sesame")
        sessions = {
            language: client.open(language, database)
            for language, (database, _) in READS.items()
        }
        assert memo_counters(client) == (0, 0)
        replies = {}
        for language, (_, statement) in READS.items():
            for _ in range(2):
                reply = client.call("execute", session=sessions[language], statement=statement)
                del reply["id"]  # the echoed request id is all that may differ
                replies.setdefault(language, []).append(protocol.encode(reply))
        assert memo_counters(client) == (4, 4)
    for language, (first, second) in replies.items():
        assert first == second, language
        assert b'"results"' in first
    # Every reply carried an answer, not an empty result both times.
    assert b"99.5" in replies["sql"][0]
    assert b"Nimitz" in replies["codasyl"][0]
    assert b"b-9" in replies["dli"][0]
    assert b"name(s)" in replies["daplex"][0]
