"""Observability end to end: one transaction, one span tree, all layers.

The ISSUE's acceptance shape: a single traced transaction yields one
span tree covering LIL, KMS, KC, KDS, backend, and WAL phases under both
execution engines, with simulated-time span totals bit-identical to the
engine's own reports.
"""

import json

import pytest

from repro import MLDS
from repro.cli import MLDSShell, build_parser
from repro.obs import NULL_OBS, Observability

RELATIONAL_DDL = """
DATABASE registrar;
CREATE TABLE student (sid INT, sname CHAR(30), major CHAR(20), PRIMARY KEY (sid));
"""

NETWORK_DDL = """
SCHEMA NAME IS plant;

RECORD NAME IS part;
    pno TYPE IS CHARACTER 8;
    weight TYPE IS INTEGER;
"""


@pytest.fixture(params=["serial", "process"])
def traced(request, tmp_path):
    obs = Observability(tracing=True)
    mlds = MLDS(
        backend_count=3,
        engine=request.param,
        wal=tmp_path / "wal",
        obs=obs,
    )
    mlds.define_relational_database(RELATIONAL_DDL)
    yield mlds, obs
    mlds.kds.shutdown()


class TestSingleTransactionTrace:
    def test_insert_trace_covers_every_layer(self, traced):
        mlds, obs = traced
        session = mlds.open_sql_session("registrar")
        session.execute("INSERT INTO student VALUES (1, 'Ann', 'cs')")
        root = obs.last_trace
        names = {span.name for span in root.walk()}
        assert root.name == "lil.session"
        assert "kms.translate" in names
        assert "kc.dispatch" in names
        assert "kds.execute" in names
        assert "wal.append" in names
        assert "wal.commit" in names
        assert any(name.startswith("backend[") for name in names)
        assert all(span.closed for span in root.walk())

    def test_retrieve_trace_has_backend_phases(self, traced):
        mlds, obs = traced
        session = mlds.open_sql_session("registrar")
        session.execute("INSERT INTO student VALUES (1, 'Ann', 'cs')")
        session.execute("SELECT sname FROM student WHERE major = 'cs'")
        root = obs.last_trace
        names = {span.name for span in root.walk()}
        # Every request but an INSERT reaches every backend.
        assert {f"backend[{i}].broadcast" for i in range(3)} <= names

    def test_simulated_totals_bit_identical_to_clock(self, traced):
        mlds, obs = traced
        session = mlds.open_sql_session("registrar")
        for i in range(8):
            session.execute(f"INSERT INTO student VALUES ({i}, 'u{i}', 'cs')")
        session.execute("SELECT * FROM student WHERE major = 'cs'")
        total = 0.0
        for trace in obs.tracer.traces:
            for span in trace.walk():
                if span.name == "kds.execute":
                    total += span.simulated_ms
        assert total == mlds.kds.clock.total_ms  # bit-identical, not approx

    def test_backend_spans_report_simulated_and_scan_attrs(self, traced):
        mlds, obs = traced
        session = mlds.open_sql_session("registrar")
        session.execute("INSERT INTO student VALUES (1, 'Ann', 'cs')")
        session.execute("SELECT * FROM student WHERE sid = 1")
        root = obs.last_trace
        backend_spans = [
            span for span in root.walk() if span.name.startswith("backend[")
        ]
        assert backend_spans
        for span in backend_spans:
            assert span.simulated_ms > 0
            assert "records_examined" in span.attrs
            assert "index_hits" in span.attrs

    def test_multi_statement_run_is_one_trace(self, traced):
        mlds, obs = traced
        session = mlds.open_sql_session("registrar")
        obs.tracer.clear()
        session.run(
            "INSERT INTO student VALUES (1, 'Ann', 'cs');"
            "INSERT INTO student VALUES (2, 'Bob', 'math');"
        )
        assert len(obs.tracer.traces) == 1
        root = obs.last_trace
        assert len(root.find("kms.translate")) == 2

    def test_phase_labels_match_response_phases(self, traced):
        """Span names and BroadcastPhase labels come from one constant."""
        mlds, obs = traced
        session = mlds.open_sql_session("registrar")
        session.execute("INSERT INTO student VALUES (1, 'Ann', 'cs')")
        session.execute("SELECT * FROM student WHERE sid = 1")
        for trace in list(obs.tracer.traces)[-2:]:
            kds_span = trace.find("kds.execute")[-1]
            suffixes = {
                span.name.split(".", 1)[1]
                for span in kds_span.walk()
                if span.name.startswith("backend[")
            }
            assert suffixes <= {"insert", "broadcast", "left", "right"}


class TestMetricsAcrossRequests:
    def test_registry_aggregates(self, traced):
        mlds, obs = traced
        session = mlds.open_sql_session("registrar")
        session.execute("INSERT INTO student VALUES (1, 'Ann', 'cs')")
        session.execute("SELECT * FROM student WHERE sid = 1")
        metrics = obs.metrics
        assert metrics.counter_value("kds.requests") >= 2
        assert metrics.counter_value("kds.requests.insert") >= 1
        assert metrics.counter_value("kds.requests.retrieve") >= 1
        assert metrics.counter_value("wal.ops") >= 1
        assert metrics.counter_value("wal.commits") >= 1
        assert metrics.counter_value("backend.requests") >= 1
        assert metrics.get("kds.request.simulated_ms").count >= 2

    def test_export_is_json_serialisable(self, traced):
        mlds, obs = traced
        session = mlds.open_sql_session("registrar")
        session.execute("INSERT INTO student VALUES (1, 'Ann', 'cs')")
        payload = json.loads(json.dumps(obs.as_dict()))
        assert "metrics" in payload and "slowlog" in payload


class TestLanguageRoots:
    """Every language interface opens the lil.session root span."""

    def test_codasyl_root(self):
        obs = Observability(tracing=True)
        mlds = MLDS(backend_count=2, obs=obs)
        mlds.define_network_database(NETWORK_DDL)
        session = mlds.open_codasyl_session("plant")
        session.run("MOVE 'p1' TO pno IN part\nSTORE part")
        root = obs.last_trace
        assert root.name == "lil.session"
        assert root.attrs["language"] == "codasyl"
        assert root.find("kms.translate")

    def test_sql_root_attrs(self):
        obs = Observability(tracing=True)
        mlds = MLDS(backend_count=2, obs=obs)
        mlds.define_relational_database(RELATIONAL_DDL)
        session = mlds.open_sql_session("registrar")
        session.execute("INSERT INTO student VALUES (1, 'Ann', 'cs')")
        root = obs.last_trace
        assert root.attrs == {
            "language": "sql",
            "database": "registrar",
            "user": "user",
        }


class TestDefaultIsNull:
    def test_untraced_system_uses_shared_null_bundle(self):
        mlds = MLDS(backend_count=2)
        assert mlds.obs is NULL_OBS
        assert not mlds.obs.enabled

    def test_untraced_system_still_answers(self):
        mlds = MLDS(backend_count=2)
        mlds.define_relational_database(RELATIONAL_DDL)
        session = mlds.open_sql_session("registrar")
        session.execute("INSERT INTO student VALUES (1, 'Ann', 'cs')")
        result = session.execute("SELECT sname FROM student WHERE sid = 1")
        assert result.rows == [{"sname": "Ann"}]


class TestCli:
    def test_parser_flags(self):
        parser = build_parser()
        args = parser.parse_args(
            ["--trace", "--slow-ms", "5", "--metrics-out", "m.json"]
        )
        assert args.trace and args.slow_ms == 5.0
        assert args.metrics_out == "m.json"

    def test_stats_command_dumps_metrics(self):
        obs = Observability(tracing=True)
        shell = MLDSShell(MLDS(backend_count=2, obs=obs))
        shell.handle_line(".open sql registrar")  # fails: db undefined — fine
        shell.mlds.define_relational_database(RELATIONAL_DDL)
        shell.handle_line(".open sql registrar")
        shell.handle_line("INSERT INTO student VALUES (1, 'Ann', 'cs')")
        payload = json.loads(shell.handle_line(".stats"))
        assert payload["kds.requests"]["value"] >= 1

    def test_trace_command_renders_tree(self):
        obs = Observability(tracing=True)
        shell = MLDSShell(MLDS(backend_count=2, obs=obs))
        shell.mlds.define_relational_database(RELATIONAL_DDL)
        shell.handle_line(".open sql registrar")
        shell.handle_line("INSERT INTO student VALUES (1, 'Ann', 'cs')")
        output = shell.handle_line(".trace")
        assert output.startswith("lil.session")
        assert "kds.execute" in output

    def test_trace_command_off_by_default(self):
        shell = MLDSShell(MLDS(backend_count=2))
        assert "tracing is off" in shell.handle_line(".trace")

    def test_slow_command(self):
        obs = Observability(slow_ms=0.0)
        shell = MLDSShell(MLDS(backend_count=2, obs=obs))
        shell.mlds.define_relational_database(RELATIONAL_DDL)
        shell.handle_line(".open sql registrar")
        shell.handle_line("INSERT INTO student VALUES (1, 'Ann', 'cs')")
        output = shell.handle_line(".slow")
        assert "lil.session" in output

    def test_slow_command_off_by_default(self):
        shell = MLDSShell(MLDS(backend_count=2))
        assert "slow logging is off" in shell.handle_line(".slow")


class TestObsSurvivesSwaps:
    def test_recovered_system_keeps_tracing(self, tmp_path):
        from repro.wal.recovery import recover_mlds

        obs = Observability(tracing=True)
        mlds = MLDS(backend_count=2, wal=tmp_path / "wal", obs=obs)
        mlds.define_relational_database(RELATIONAL_DDL)
        session = mlds.open_sql_session("registrar")
        session.execute("INSERT INTO student VALUES (1, 'Ann', 'cs')")
        mlds.kds.shutdown()

        recovered = recover_mlds(tmp_path / "wal", obs=obs)
        assert recovered.obs is obs
        assert recovered.kds.wal.obs is obs  # attach_wal re-bound the bundle
        recovered.kds.shutdown()
