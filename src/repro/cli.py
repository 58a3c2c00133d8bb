"""An interactive MLDS shell.

A small REPL for exploring MLDS databases through either language
interface::

    $ python -m repro.cli --demo
    mlds> .databases
    mlds> .open codasyl university
    codasyl:university> MOVE 'fall' TO semester IN course
    codasyl:university> FIND ANY course USING semester IN course
    codasyl:university> GET
    codasyl:university> .log 2
    codasyl:university> .open daplex university
    daplex:university> FOR EACH s IN student SUCH THAT gpa(s) >= 3.5 PRINT name(s);

Dot-commands drive the shell; anything else is handed to the open
session's language front-end.  The shell logic lives in
:class:`MLDSShell` (one line in, text out) so it is fully testable
without a terminal.
"""

from __future__ import annotations

import signal
import sys
from dataclasses import asdict
from typing import Optional

from repro.core.mlds import MLDS, MLDSConfig
from repro.core.session import CodasylSession, DaplexSession, DliSession, SqlSession
from repro.errors import MLDSError
from repro.kfs import format_table
from repro.kms.results import StatementResult

_HELP = """\
dot-commands:
  .help                      this text
  .databases                 list defined databases
  .schema <db>               show a database's schema (network form if transformed)
  .open codasyl <db>         open a CODASYL-DML session (network or functional db)
  .open daplex <db>          open a DAPLEX session (functional db)
  .open sql <db>             open a SQL session (relational or hierarchical db)
  .open dli <db>             open a DL/I session (hierarchical db)
  .close                     close the current session
  .cit                       show the currency indicator table (CODASYL sessions)
  .uwa                       show the user work area (CODASYL sessions)
  .log [n]                   show the last n ABDL requests (default 5)
  .exec <path>               run a statement file through the open session
  .save <path>               snapshot the whole system to a JSON file
  .load <path>               replace the system with a snapshot
  .ingest <n> [batch]        bulk-load n scaled University records (batched
                             BULK-INSERT journaling + deferred index builds)
  .checkpoint                checkpoint the WAL (snapshot + truncate the log)
  .recover <wal-dir>         replace the system with one recovered from a WAL
  .stats                     dump the metrics registry (counters/gauges/histograms)
  .caches                    show qc cache counters (statement memo/compile/result)
  .indexes                   show per-backend sorted indexes and hit/fallback counters
  .trace                     render the most recent request trace (needs --trace)
  .slow [n]                  show the slow log's last n entries (needs --slow-ms)
  .quit                      leave the shell
anything else is executed as a statement of the open session's language."""


class MLDSShell:
    """Line-oriented shell over one MLDS instance."""

    def __init__(self, mlds: Optional[MLDS] = None) -> None:
        self.mlds = mlds or MLDS()
        self.session: Optional[CodasylSession | DaplexSession | SqlSession | DliSession] = None
        self.done = False

    # -- prompt -----------------------------------------------------------------

    @property
    def prompt(self) -> str:
        if isinstance(self.session, CodasylSession):
            return f"codasyl:{self.session.database}> "
        if isinstance(self.session, DaplexSession):
            return f"daplex:{self.session.database}> "
        if isinstance(self.session, SqlSession):
            return f"sql:{self.session.database}> "
        if isinstance(self.session, DliSession):
            return f"dli:{self.session.database}> "
        return "mlds> "

    # -- dispatch ----------------------------------------------------------------

    def handle_line(self, line: str) -> str:
        """Process one input line and return the text to display."""
        line = line.strip()
        if not line or line.startswith("--"):
            return ""
        try:
            if line.startswith("."):
                return self._command(line)
            return self._statement(line)
        except MLDSError as exc:
            return f"error: {exc}"

    def _command(self, line: str) -> str:
        parts = line.split()
        command, args = parts[0], parts[1:]
        if command == ".help":
            return _HELP
        if command == ".quit":
            self.done = True
            return "bye"
        if command == ".databases":
            names = self.mlds.database_names()
            return "\n".join(names) if names else "(no databases defined)"
        if command == ".schema":
            if len(args) != 1:
                return "usage: .schema <db>"
            return self._schema_text(args[0])
        if command == ".open":
            if len(args) != 2 or args[0] not in ("codasyl", "daplex", "sql", "dli"):
                return "usage: .open codasyl|daplex|sql|dli <db>"
            if args[0] == "codasyl":
                self.session = self.mlds.open_codasyl_session(args[1])
            elif args[0] == "daplex":
                self.session = self.mlds.open_daplex_session(args[1])
            elif args[0] == "dli":
                self.session = self.mlds.open_dli_session(args[1])
            else:
                self.session = self.mlds.open_sql_session(args[1])
            return f"opened {self.session!r}"
        if command == ".close":
            self.session = None
            return "session closed"
        if command == ".cit":
            if not isinstance(self.session, CodasylSession):
                return "no CODASYL session open"
            return _render_cit(self.session)
        if command == ".uwa":
            if not isinstance(self.session, CodasylSession):
                return "no CODASYL session open"
            snapshot = self.session.uwa.snapshot()
            if not snapshot:
                return "(empty UWA)"
            lines = []
            for record_type, template in snapshot.items():
                lines.append(f"{record_type}:")
                for item, value in template.items():
                    lines.append(f"    {item} = {value!r}")
            return "\n".join(lines)
        if command == ".exec":
            if len(args) != 1:
                return "usage: .exec <path>"
            if self.session is None:
                return "no session open"
            results = self.session.run_file(args[0])
            return f"executed {len(results)} statement(s) from {args[0]}"
        if command == ".save":
            if len(args) != 1:
                return "usage: .save <path>"
            from repro.persistence import save_mlds

            save_mlds(self.mlds, args[0])
            return f"saved to {args[0]}"
        if command == ".load":
            if len(args) != 1:
                return "usage: .load <path>"
            from repro.persistence import load_mlds

            self._replace(load_mlds(args[0], self.mlds.config, obs=self.mlds.obs))
            return f"loaded {args[0]} ({len(self.mlds.database_names())} databases)"
        if command == ".ingest":
            if not args or len(args) > 2:
                return "usage: .ingest <records> [batch-size]"
            from repro.ingest import bulk_load, stream_university_records

            try:
                count = int(args[0])
                batch = int(args[1]) if len(args) == 2 else 10_000
            except ValueError:
                return "usage: .ingest <records> [batch-size]"
            if count < 1 or batch < 1:
                return "usage: .ingest <records> [batch-size]"
            report = bulk_load(
                self.mlds.kds,
                stream_university_records(count),
                batch_size=batch,
            )
            return _ingest_summary("ingested", report, self.mlds.kds)
        if command == ".checkpoint":
            if args:
                return "usage: .checkpoint"
            if self.mlds.kds.wal is None:
                return "no write-ahead log attached (start with --wal-dir)"
            from repro.wal.recovery import checkpoint_mlds

            path = checkpoint_mlds(self.mlds)
            return f"checkpointed to {path}"
        if command == ".recover":
            if len(args) != 1:
                return "usage: .recover <wal-dir>"
            self._replace(_recover_durably(args[0], self.mlds.config, self.mlds.obs))
            return (
                f"recovered from {args[0]} "
                f"({self.mlds.kds.record_count()} records)"
            )
        if command == ".stats":
            import json

            return json.dumps(self.mlds.obs.metrics.as_dict(), indent=1)
        if command == ".caches":
            import json

            return json.dumps(self._cache_report(), indent=1)
        if command == ".indexes":
            import json

            return json.dumps(self._index_report(), indent=1)
        if command == ".trace":
            if not self.mlds.obs.tracer.enabled:
                return "tracing is off (start with --trace or --slow-ms)"
            root = self.mlds.obs.tracer.last_trace
            if root is None:
                return "(no trace captured yet)"
            return root.render()
        if command == ".slow":
            from repro.obs import NullSlowLog

            slowlog = self.mlds.obs.slowlog
            if isinstance(slowlog, NullSlowLog):
                return "slow logging is off (start with --slow-ms)"
            count = int(args[0]) if args else 5
            entries = slowlog.entries()[-count:]
            if not entries:
                return "(no slow requests yet)"
            lines = []
            for entry in entries:
                lines.append(
                    f"{entry['name']}  wall={entry['wall_ms']:.3f}ms  "
                    f"attrs={entry.get('attrs', {})}"
                )
            return "\n".join(lines)
        if command == ".log":
            if self.session is None:
                return "no session open"
            count = int(args[0]) if args else 5
            log = self.session.request_log[-count:]
            return "\n".join(log) if log else "(no requests yet)"
        return f"unknown command {command!r} (try .help)"

    def _replace(self, mlds: MLDS) -> None:
        """Swap in *mlds* (already built from this system's config, so a
        failed build leaves the shell on the old system) and release the
        replaced system's workers and WAL handle."""
        old = self.mlds
        self.mlds = mlds
        self.session = None
        old.kds.shutdown()

    def _cache_report(self) -> dict:
        """Counters for every qc cache reachable from this shell."""
        from repro.qc import runtime as qc_runtime

        report = dict(self.mlds.kds.controller.cache_snapshots())
        report["config"] = {
            "compile": qc_runtime.config.compile_enabled,
            "result": qc_runtime.config.result_cache_enabled,
        }
        return report

    def _index_report(self) -> dict:
        """Per-backend index state plus the planner's metric counters."""
        from repro.qc import runtime as qc_runtime

        report: dict = {"plan_enabled": qc_runtime.config.plan_enabled}
        report["backends"] = self.mlds.kds.controller.index_report()
        registry = self.mlds.obs.metrics.as_dict()
        report["metrics"] = {
            name: registry[name]["value"]
            for name in (
                "backend.index_hits",
                "index.range_hits",
                "plan.fallback_scan",
                "index.aggregate_hits",
            )
            if name in registry
        }
        return report

    def _schema_text(self, name: str) -> str:
        if name not in self.mlds.database_names():
            return f"no database named {name!r}"
        try:
            return self.mlds.network_schema(name).render()
        except MLDSError:
            pass
        try:
            return self.mlds.relational_schema(name).render()
        except MLDSError:
            pass
        try:
            return self.mlds.hierarchical_schema(name).render()
        except MLDSError:
            pass
        transformation = self.mlds.transformation(name)
        return (
            f"-- functional database {name!r}, transformed network view:\n"
            + transformation.schema.render()
        )

    def _statement(self, line: str) -> str:
        if self.session is None:
            return "no session open (use .open codasyl|daplex <db>)"
        if isinstance(self.session, CodasylSession):
            result = self.session.execute(line)
            return _render_codasyl_result(result)
        if isinstance(self.session, SqlSession):
            result = self.session.execute(line)
            chunks = []
            if result.rows or result.columns:
                chunks.append(format_table(result.columns, result.rows))
            if result.touched:
                chunks.append(f"{result.touched} row(s) affected")
            return "\n".join(chunks) if chunks else "(no output)"
        if isinstance(self.session, DliSession):
            result = self.session.execute(line)
            header = f"status {result.status!r}"
            if result.dbkey:
                header += f"  {result.segment}[{result.dbkey}]"
            if result.fields:
                return header + "\n" + format_table(list(result.fields), [result.fields])
            return header
        result = self.session.execute(line)
        chunks = []
        if result.rows:
            columns = list(result.rows[0])
            chunks.append(format_table(columns, result.rows))
        if result.touched:
            chunks.append(f"{result.touched} entity(ies) affected")
        if not chunks:
            chunks.append("(no output)")
        return "\n".join(chunks)

    # -- main loop -----------------------------------------------------------------

    def run(self, stdin=None, stdout=None) -> None:  # pragma: no cover - wiring
        stdin = stdin or sys.stdin
        stdout = stdout or sys.stdout
        stdout.write("MLDS shell — .help for commands\n")
        while not self.done:
            stdout.write(self.prompt)
            stdout.flush()
            line = stdin.readline()
            if not line:
                break
            output = self.handle_line(line)
            if output:
                stdout.write(output + "\n")


def _durable_wal(wal_dir, backend_count: int):
    """The CLI's WAL on *wal_dir*: durability means a commit survives a
    power cut, so it fsyncs every commit."""
    from repro.wal.log import WalManager

    return WalManager(wal_dir, backend_count, sync=True)


def _recover_durably(wal_dir, config: MLDSConfig, obs) -> MLDS:
    """:func:`~repro.wal.recovery.recover_mlds` for the shell and the
    CLI: the durable settings come from *wal_dir*, the machine settings
    from *config*, and the recovered system journals through
    :func:`_durable_wal` whatever sync mode the directory records."""
    from repro.wal.recovery import recover_mlds

    mlds = recover_mlds(wal_dir, config=config, attach_wal=False, obs=obs)
    try:
        mlds.attach_wal(_durable_wal(wal_dir, mlds.kds.controller.backend_count))
    except BaseException:
        mlds.kds.shutdown()
        raise
    return mlds


def _ingest_summary(verb: str, report, kds) -> str:
    """One-line load report; WAL figures only when metrics observed them."""
    line = (
        f"{verb} {report.records} records in {report.batches} "
        f"batch(es): {report.records_per_second:,.0f} records/s"
    )
    if kds.controller.wal is not None and kds.obs.enabled:
        line += f", {report.commits} commit(s), {report.fsyncs} fsync(s)"
    return line


def _render_codasyl_result(result: StatementResult) -> str:
    lines = [f"{result.status.value}"]
    if result.dbkey:
        lines[0] += f"  {result.record_type}[{result.dbkey}]"
    if result.values:
        lines.append(format_table(list(result.values), [result.values]))
    return "\n".join(lines)


def _render_cit(session: CodasylSession) -> str:
    snapshot = session.cit.snapshot()
    lines = [f"run-unit: {snapshot['run_unit']}"]
    for record_type, dbkey in snapshot["records"].items():
        lines.append(f"record {record_type}: {dbkey}")
    for set_name, state in snapshot["sets"].items():
        lines.append(
            f"set {set_name}: occurrence={state['owner']} current={state['current']}"
        )
    return "\n".join(lines)


def build_parser() -> "argparse.ArgumentParser":
    """The mlds command-line interface (kernel knobs + demo loading)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="mlds",
        description="Interactive shell over the Multi-Lingual Database System.",
    )
    parser.add_argument(
        "--demo", action="store_true", help="load the University demo database"
    )
    parser.add_argument(
        "--backends",
        type=int,
        default=4,
        metavar="N",
        help="number of MBDS backends (default 4)",
    )
    parser.add_argument(
        "--engine",
        choices=("serial", "process"),
        default="serial",
        help="broadcast execution engine: 'serial' runs backends in order, "
        "'process' gives every backend its own worker process so CPU-bound "
        "scans parallelize past the GIL (default serial; simulated "
        "response times are identical for both)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="workers in flight per broadcast for --engine process "
        "(default: one per backend)",
    )
    parser.add_argument(
        "--no-snapshot-reads",
        action="store_true",
        help="disable MVCC snapshot reads: session RETRIEVEs take S locks "
        "under strict 2PL (and block on writers) instead of reading the "
        "newest stable commit seq lock-free from the version chains",
    )
    parser.add_argument(
        "--wal-dir",
        metavar="DIR",
        default=None,
        help="enable durability: journal every mutating kernel request to a "
        "write-ahead log in DIR before applying it, and fsync every commit "
        "(see .checkpoint/.recover)",
    )
    parser.add_argument(
        "--no-wal",
        action="store_true",
        help="ignore --wal-dir and run without journaling (volatile session)",
    )
    parser.add_argument(
        "--bulk-load",
        type=int,
        default=None,
        metavar="N",
        help="bulk-load N scaled University records through the streaming "
        "ingest pipeline before the shell starts (batched BULK-INSERT "
        "journaling, deferred index builds)",
    )
    parser.add_argument(
        "--bulk-batch",
        type=int,
        default=10_000,
        metavar="N",
        help="records per ingest batch for --bulk-load and .ingest (default 10000)",
    )
    parser.add_argument(
        "--recover",
        action="store_true",
        help="start from the state recovered out of --wal-dir (checkpoint "
        "snapshot plus committed WAL tail) instead of an empty system",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="capture a span tree per request (inspect with .trace); "
        "metrics are collected either way",
    )
    parser.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        metavar="MS",
        help="snapshot the full trace of any request slower than MS "
        "wall-clock milliseconds into the slow log (implies --trace; "
        "inspect with .slow)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="write the metrics registry as JSON to FILE when the shell exits",
    )
    parser.add_argument(
        "--index",
        metavar="ATTR[,ATTR...]",
        default=None,
        help="build sorted attribute indexes on every backend (comma-"
        "separated attribute names); =/range predicates over indexed "
        "attributes are answered from the index (see .indexes)",
    )
    serving = parser.add_argument_group("serving (see repro.server)")
    serving.add_argument(
        "--serve",
        action="store_true",
        help="instead of the shell, serve this system over TCP: concurrent "
        "clients authenticate with a token and run sessions in any of the "
        "four languages against the shared, lock-protected kernel",
    )
    serving.add_argument(
        "--host", default="127.0.0.1", help="bind address for --serve"
    )
    serving.add_argument(
        "--port",
        type=int,
        default=7407,
        help="bind port for --serve (0 picks a free port; default 7407)",
    )
    serving.add_argument(
        "--serve-token",
        action="append",
        metavar="TOKEN[:USER]",
        default=None,
        help="accept this auth token (repeatable); without any, a random "
        "token is generated and printed at startup",
    )
    serving.add_argument(
        "--serve-rate",
        type=float,
        default=0.0,
        metavar="N",
        help="per-connection statement rate limit in statements/second "
        "(default 0 = unlimited)",
    )
    serving.add_argument(
        "--serve-inflight",
        type=int,
        default=8,
        metavar="N",
        help="admission control: max concurrently executing statements "
        "(default 8)",
    )
    serving.add_argument(
        "--serve-queue",
        type=int,
        default=16,
        metavar="N",
        help="admission control: max statements queued for a slot before "
        "the server sheds with an overload error (default 16)",
    )
    return parser


def main(argv: Optional[list[str]] = None) -> int:  # pragma: no cover - wiring
    argv = argv if argv is not None else sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    wal_dir = None if args.no_wal else args.wal_dir
    config = MLDSConfig(
        engine=args.engine,
        workers=args.workers,
        snapshot_reads=not args.no_snapshot_reads,
    )
    obs = None
    if args.trace or args.slow_ms is not None or args.metrics_out:
        from repro.obs import Observability

        obs = Observability(tracing=args.trace, slow_ms=args.slow_ms)
    try:
        if args.recover:
            if wal_dir is None:
                parser.error("--recover requires --wal-dir")
            # The directory says how many backends it was written for and
            # which attributes its snapshot indexes; --backends only sizes
            # a fresh system.
            mlds = _recover_durably(wal_dir, config, obs)
        else:
            mlds = MLDS(
                backend_count=args.backends,
                wal=None if wal_dir is None else _durable_wal(wal_dir, args.backends),
                obs=obs,
                **asdict(config),
            )
    except ValueError as exc:
        parser.error(str(exc))
    if args.index:
        attributes = [attr.strip() for attr in args.index.split(",") if attr.strip()]
        if not attributes:
            parser.error("--index needs at least one attribute name")
        mlds.kds.controller.add_index(*attributes)
    if args.demo:
        from repro.university import load_university

        load_university(mlds)
        print("loaded the University demo database")
    if args.bulk_load:
        if args.bulk_load < 1 or args.bulk_batch < 1:
            parser.error("--bulk-load and --bulk-batch must be positive")
        from repro.ingest import bulk_load, stream_university_records

        report = bulk_load(
            mlds.kds,
            stream_university_records(args.bulk_load),
            batch_size=args.bulk_batch,
        )
        print(_ingest_summary("bulk-loaded", report, mlds.kds))
    if args.serve:
        from repro.server import Authenticator, Credential, MLDSServer
        from repro.server.auth import generate_token

        authenticator = Authenticator()
        specs = args.serve_token
        if not specs:
            token = generate_token()
            print(f"generated auth token: {token}", flush=True)
            specs = [token]
        for spec in specs:
            token, _, user = spec.partition(":")
            authenticator.register(
                Credential(
                    token=token,
                    user=user or f"user-{token[:8]}",
                    rate=args.serve_rate,
                )
            )
        server = MLDSServer(
            mlds,
            authenticator,
            host=args.host,
            port=args.port,
            max_inflight=args.serve_inflight,
            max_queue=args.serve_queue,
        )
        # A shell starts a background job with SIGINT ignored; the server
        # is stopped by SIGINT however it was started.
        signal.signal(signal.SIGINT, signal.default_int_handler)
        server.listen()
        print(f"serving MLDS on {server.host}:{server.port}", flush=True)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            print("\nshutting down", flush=True)
        finally:
            server.close()
            mlds.kds.shutdown()
        return 0
    shell = MLDSShell(mlds)
    try:
        shell.run()
    finally:
        shell.mlds.kds.shutdown()
        if args.metrics_out:
            import json
            from pathlib import Path

            Path(args.metrics_out).write_text(
                json.dumps(shell.mlds.obs.as_dict(), indent=1)
            )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
