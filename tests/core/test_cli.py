"""The interactive MLDS shell (line-in / text-out, no terminal needed)."""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import MLDS
from repro.cli import MLDSShell
from repro.university import generate_university, load_university


@pytest.fixture()
def shell():
    mlds = MLDS(backend_count=2)
    load_university(mlds, generate_university(persons=20, courses=8, seed=3))
    return MLDSShell(mlds)


class TestCommands:
    def test_help(self, shell):
        assert ".open codasyl" in shell.handle_line(".help")

    def test_databases(self, shell):
        assert shell.handle_line(".databases") == "university"

    def test_databases_empty(self):
        assert "no databases" in MLDSShell(MLDS(backend_count=1)).handle_line(".databases")

    def test_schema_functional_shows_transformed(self, shell):
        output = shell.handle_line(".schema university")
        assert "transformed network view" in output
        assert "SET NAME IS person_student;" in output

    def test_schema_unknown(self, shell):
        assert "no database" in shell.handle_line(".schema ghost")

    def test_quit(self, shell):
        assert shell.handle_line(".quit") == "bye"
        assert shell.done

    def test_unknown_command(self, shell):
        assert "unknown command" in shell.handle_line(".frob")

    def test_blank_and_comment_lines(self, shell):
        assert shell.handle_line("") == ""
        assert shell.handle_line("-- a comment") == ""


class TestSessions:
    def test_prompt_follows_session(self, shell):
        assert shell.prompt == "mlds> "
        shell.handle_line(".open codasyl university")
        assert shell.prompt == "codasyl:university> "
        shell.handle_line(".open daplex university")
        assert shell.prompt == "daplex:university> "
        shell.handle_line(".close")
        assert shell.prompt == "mlds> "

    def test_statement_without_session(self, shell):
        assert "no session open" in shell.handle_line("GET")

    def test_open_usage_errors(self, shell):
        assert "usage" in shell.handle_line(".open codasyl")
        assert "usage" in shell.handle_line(".open cobol university")
        # SQL sessions only open on relational databases.
        assert "error:" in shell.handle_line(".open sql university")

    def test_open_unknown_database_reports_error(self, shell):
        assert "error:" in shell.handle_line(".open codasyl ghost")


class TestCodasylFlow:
    def test_find_and_get(self, shell):
        shell.handle_line(".open codasyl university")
        shell.handle_line("MOVE 'fall' TO semester IN course")
        output = shell.handle_line("FIND ANY course USING semester IN course")
        assert output.startswith("ok")
        output = shell.handle_line("GET")
        assert "title" in output

    def test_error_rendered_not_raised(self, shell):
        shell.handle_line(".open codasyl university")
        assert shell.handle_line("ERASE course").startswith("error:")

    def test_cit_and_uwa(self, shell):
        shell.handle_line(".open codasyl university")
        shell.handle_line("MOVE 'fall' TO semester IN course")
        shell.handle_line("FIND ANY course USING semester IN course")
        cit = shell.handle_line(".cit")
        assert "run-unit" in cit and "course" in cit
        uwa = shell.handle_line(".uwa")
        assert "semester = 'fall'" in uwa

    def test_cit_without_session(self, shell):
        assert "no CODASYL session" in shell.handle_line(".cit")
        shell.handle_line(".open daplex university")
        assert "no CODASYL session" in shell.handle_line(".cit")

    def test_log(self, shell):
        shell.handle_line(".open codasyl university")
        assert "(no requests yet)" in shell.handle_line(".log")
        shell.handle_line("MOVE 'fall' TO semester IN course")
        shell.handle_line("FIND ANY course USING semester IN course")
        assert "RETRIEVE" in shell.handle_line(".log 1")

    def test_log_without_session(self, shell):
        assert "no session" in shell.handle_line(".log")


class TestDaplexFlow:
    def test_query_renders_table(self, shell):
        shell.handle_line(".open daplex university")
        output = shell.handle_line("FOR EACH p IN person PRINT name(p);")
        assert "name(p)" in output

    def test_update_reports_touched(self, shell):
        shell.handle_line(".open daplex university")
        output = shell.handle_line(
            "FOR A NEW p IN person BEGIN LET name(p) = 'Cli User'; END;"
        )
        assert "1 entity(ies) affected" in output

    def test_empty_result(self, shell):
        shell.handle_line(".open daplex university")
        output = shell.handle_line(
            "FOR EACH p IN person SUCH THAT name(p) = 'Nobody At All' PRINT p;"
        )
        assert output == "(no output)"

    def test_parse_error_rendered(self, shell):
        shell.handle_line(".open daplex university")
        assert shell.handle_line("FOR EACH broken").startswith("error:")


class TestDliFlow:
    @pytest.fixture()
    def hier_shell(self):
        mlds = MLDS(backend_count=2)
        mlds.define_hierarchical_database(
            "DATABASE depot;\nSEGMENT bin ROOT (tag CHAR(5));\n"
            "SEGMENT part UNDER bin (pname CHAR(10));"
        )
        return MLDSShell(mlds)

    def test_open_and_prompt(self, hier_shell):
        hier_shell.handle_line(".open dli depot")
        assert hier_shell.prompt == "dli:depot> "

    def test_calls_render_status(self, hier_shell):
        hier_shell.handle_line(".open dli depot")
        hier_shell.handle_line("FLD tag = 'b1'")
        assert "status" in hier_shell.handle_line("ISRT bin")
        output = hier_shell.handle_line("GU bin(tag = 'b1')")
        assert "bin[" in output and "b1" in output

    def test_not_found_status(self, hier_shell):
        hier_shell.handle_line(".open dli depot")
        assert "'GE'" in hier_shell.handle_line("GU bin(tag = 'zz')")

    def test_schema_renders_segments(self, hier_shell):
        output = hier_shell.handle_line(".schema depot")
        assert "SEGMENT part UNDER bin" in output

    def test_sql_over_hierarchical_via_shell(self, hier_shell):
        hier_shell.handle_line(".open dli depot")
        hier_shell.handle_line("FLD tag = 'b1'")
        hier_shell.handle_line("ISRT bin")
        hier_shell.handle_line(".open sql depot")
        assert hier_shell.prompt == "sql:depot> "
        output = hier_shell.handle_line("SELECT tag FROM bin")
        assert "b1" in output


class TestPersistenceCommands:
    def test_save_and_load(self, shell, tmp_path):
        path = tmp_path / "snap.json"
        assert "saved" in shell.handle_line(f".save {path}")
        shell.handle_line(".open codasyl university")
        assert "loaded" in shell.handle_line(f".load {path}")
        # The session was closed and the system replaced.
        assert shell.prompt == "mlds> "
        assert shell.handle_line(".databases") == "university"

    def test_usage_errors(self, shell):
        assert "usage" in shell.handle_line(".save")
        assert "usage" in shell.handle_line(".load")


class TestExecCommand:
    def test_exec_transaction_file(self, shell, tmp_path):
        path = tmp_path / "txn.dml"
        path.write_text(
            "MOVE 'fall' TO semester IN course\n"
            "FIND ANY course USING semester IN course\nGET\n"
        )
        shell.handle_line(".open codasyl university")
        assert "executed 3 statement(s)" in shell.handle_line(f".exec {path}")

    def test_exec_without_session(self, shell, tmp_path):
        path = tmp_path / "txn.dml"
        path.write_text("GET")
        assert "no session" in shell.handle_line(f".exec {path}")

    def test_exec_usage(self, shell):
        assert "usage" in shell.handle_line(".exec")


class TestCachesCommand:
    def test_reports_the_statement_memo_and_per_backend_caches(self, shell, tmp_path):
        import json

        from repro.qc import runtime as qc_runtime

        path = tmp_path / "txn.dml"
        path.write_text("FIND FIRST person WITHIN system_person\nGET\n")
        qc_runtime.reset()
        try:
            shell.handle_line(".open codasyl university")
            shell.handle_line(f".exec {path}")
            shell.handle_line(f".exec {path}")
            report = json.loads(shell.handle_line(".caches"))
        finally:
            qc_runtime.reset()
        assert set(report) == {"global", "backends", "config"}
        memo = report["global"]
        assert memo["prefix"] == "qc.parse"
        assert (memo["hits"], memo["misses"], memo["size"]) == (1, 1, 1)
        assert set(report["backends"]) == {"backend[0]", "backend[1]"}
        for caches in report["backends"].values():
            assert set(caches) == {"compile", "result"}
            assert caches["compile"]["misses"] > 0
        assert report["config"] == {"compile": True, "result": True}


class TestRecoverFlags:
    def test_recover_applies_wal_and_read_path_flags(self, tmp_path, monkeypatch):
        """``--recover`` honours --group-window-ms / --no-snapshot-reads and
        sizes the farm from the WAL directory, not from --backends."""
        from repro.abdl import parse_request
        from repro.cli import main
        from repro.wal.log import WalManager

        wal_dir = tmp_path / "wal"
        writer = MLDS(backend_count=2, wal=wal_dir)
        for i in range(4):
            writer.kds.execute(parse_request(f"INSERT (<FILE, f>, <f, f${i}>, <a, {i}>)"))
        writer.kds.shutdown()
        writer.kds.wal.close()

        opened = []
        original_init = WalManager.__init__

        def counting_init(self, *args, **kwargs):
            original_init(self, *args, **kwargs)
            opened.append(self)

        seen = {}

        def fake_run(shell):
            kds = shell.mlds.kds
            seen["backends"] = kds.controller.backend_count
            seen["records"] = kds.record_count()
            seen["snapshot_reads"] = kds.snapshot_reads
            seen["wal"] = kds.wal
            session = kds.create_session()
            kds.execute(parse_request("INSERT (<FILE, f>, <f, f$9>, <a, 9>)"), session=session)
            kds.execute(parse_request("RETRIEVE (FILE = f) (a)"), session=session)
            seen["metrics"] = shell.mlds.obs.metrics.as_dict()

        monkeypatch.setattr(WalManager, "__init__", counting_init)
        monkeypatch.setattr(MLDSShell, "run", fake_run)
        assert main(
            [
                "--recover", "--wal-dir", str(wal_dir),
                "--group-window-ms", "5", "--no-snapshot-reads",
                "--metrics-out", str(tmp_path / "metrics.json"),
            ]
        ) == 0

        assert seen["backends"] == 2 and seen["records"] == 4
        assert opened == [seen["wal"]]  # exactly one manager holds the directory
        assert seen["metrics"]["wal.group_commits"]["value"] >= 1.0
        assert seen["snapshot_reads"] is False
        assert "kds.snapshot_reads" not in seen["metrics"]


class TestReplacingTheSystem:
    """``.load`` and ``.recover`` swap in a new system that keeps the
    replaced one's configuration, and release the replaced one."""

    @staticmethod
    def configured(wal_dir):
        from repro.abdl import parse_request
        from repro.wal.log import WalManager

        mlds = MLDS(
            backend_count=2,
            engine="process",
            workers=1,
            wal=WalManager(wal_dir, 2, group_window_ms=3.0),
            snapshot_reads=False,
        )
        mlds.kds.controller.add_index("id", "bal")
        for i in range(4):
            mlds.kds.execute(parse_request(f"INSERT (<FILE, f>, <f, f${i}>, <id, {i}>)"))
        return mlds

    @staticmethod
    def assert_inherited(shell, old_workers):
        import json

        kds = shell.mlds.kds
        engine = kds.controller.engine
        assert (engine.name, engine.workers) == ("process", 1)
        assert kds.snapshot_reads is False
        assert kds.record_count() == 4
        report = json.loads(shell.handle_line(".indexes"))
        for backend in report["backends"].values():
            assert backend["attributes"] == ["id", "bal"]
        # The replaced system's workers were stopped, not leaked.
        assert not any(worker._process.is_alive() for worker in old_workers)

    def test_recover_keeps_indexes_engine_read_path_and_wal_settings(self, tmp_path):
        old = self.configured(tmp_path / "wal")
        workers = list(old.kds.controller.backends)
        shell = MLDSShell(old)
        try:
            assert "checkpointed" in shell.handle_line(".checkpoint")
            assert "(4 records)" in shell.handle_line(f".recover {tmp_path / 'wal'}")
            self.assert_inherited(shell, workers)
            wal = shell.mlds.kds.wal
            assert wal is not None and wal is not old.kds.wal
            assert (wal.directory, wal.group_window_ms) == (tmp_path / "wal", 3.0)
        finally:
            shell.mlds.kds.shutdown()

    def test_load_keeps_indexes_engine_and_read_path(self, tmp_path):
        old = self.configured(tmp_path / "wal")
        workers = list(old.kds.controller.backends)
        shell = MLDSShell(old)
        try:
            assert "saved" in shell.handle_line(f".save {tmp_path / 'snap.json'}")
            assert "loaded" in shell.handle_line(f".load {tmp_path / 'snap.json'}")
            self.assert_inherited(shell, workers)
            assert shell.mlds.kds.wal is None
        finally:
            shell.mlds.kds.shutdown()

    def test_failed_recover_keeps_the_shell_on_the_old_system(self, shell, tmp_path):
        old = shell.mlds
        shut = []
        original = old.kds.shutdown
        old.kds.shutdown = lambda: (shut.append(True), original())
        bad = tmp_path / "future.json"
        bad.write_text('{"format": 3}')
        assert shell.handle_line(f".recover {tmp_path / 'nowhere'}").startswith("error:")
        assert shell.handle_line(f".load {bad}").startswith("error:")
        assert shell.mlds is old and shut == []
        shell.handle_line(".open daplex university")
        assert "(no output)" not in shell.handle_line("FOR EACH s IN student PRINT name(s);")


class TestRetiredFlags:
    """The thread-pool engine and the placement flag are gone: argparse
    refuses them with a usage error, before any system is built."""

    @pytest.mark.parametrize(
        "argv",
        [["--engine", "threads"], ["--placement", "hash-shard"]],
        ids=["engine-threads", "placement-hash-shard"],
    )
    def test_usage_error_exit_2(self, argv):
        src = str(Path(repro.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
            stdin=subprocess.DEVNULL,
            timeout=60,
        )
        assert done.returncode == 2
        assert done.stderr.startswith("usage: mlds")
        assert argv[0] in done.stderr


class TestServe:
    def test_sigint_shuts_down_and_exits_0(self):
        # Started the way a shell starts a background job (SIGINT
        # ignored), with a client mid-transaction when the signal lands.
        from repro.errors import ServerError
        from repro.server import ServerClient

        src = str(Path(repro.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
        previous = signal.signal(signal.SIGINT, signal.SIG_IGN)  # inherited
        try:
            server = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "--demo", "--serve", "--port", "0",
                 "--serve-token", "t0ken:ci"],
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
                text=True,
                env=env,
            )
        finally:
            signal.signal(signal.SIGINT, previous)
        try:
            assert server.stdout is not None
            lines = [server.stdout.readline() for _ in range(2)]
            assert lines[1].startswith("serving MLDS on"), lines
            port = int(lines[1].rsplit(":", 1)[1])
            with ServerClient("127.0.0.1", port) as client:
                client.auth("t0ken")
                daplex = client.open("daplex", "university")
                client.begin()
                client.execute(daplex, "FOR EACH s IN student PRINT name(s);")
                server.send_signal(signal.SIGINT)
                assert server.wait(timeout=30) == 0
                with pytest.raises(ServerError, match="server closed the connection"):
                    client.ping()
            assert "shutting down" in server.stdout.read()
        finally:
            server.kill()
            server.wait()
            server.stdout.close()
