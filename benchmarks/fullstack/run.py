"""fullstack: the served-MLDS benchmark.

One run drives one deployment through its whole life::

    set-up (launch → loaded → serving → sessions open; repeated, median)
    → warm-up → timed mix → probe → digest
    → checkpoint → tail transactions → SIGKILL with one open → restart → verify

from two closed-loop connections (two threads of this one process; the
box has two cores), each sending the deterministic op stream of
``(seed, connection)`` and checking every reply against the model in
:mod:`model`.  The workload picks sizes, engine and the timed mix; a
statement class the mix lacks is measured by the probe phase — a fixed
number of statements on the same server — so every run reports every
end-to-end metric in ``BENCHMARK.json``.  README.md has the tables.

Driver contract::

    python3 benchmarks/fullstack/run.py --workload NAME --seed N --seconds S --trace 0|1

prints one JSON object last: ``correct``, ``attempted``, ``failed`` and
the end-to-end (``--trace 0``) or per-layer (``--trace 1``) metrics.
Without ``--workload`` every workload runs and a table is printed;
``--out FILE`` keeps the runs for ``compare.py``.
"""

from __future__ import annotations

import argparse
import atexit
import hashlib
import json
import math
import os
import platform
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterable, Iterator, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import calibrate  # noqa: E402
import model  # noqa: E402
import trace  # noqa: E402
from model import CLASSES, PROBE_CLASSES, SESSIONS, TOKEN, WORKLOADS, Op  # noqa: E402

MANIFEST = ROOT / "BENCHMARK.json"
#: Scratch space inside the checkout (WAL directories, stderr logs).
WORK = ROOT / ".bench_work"
CONNECTIONS = 2
PINGS = 200
DIGEST_CHUNK = 4000
DEFAULT_SEED = 1987
FLUSH_POLICY = "WalManager(dir, 4, sync=True), no group window: fsync per commit"


@dataclass(frozen=True)
class Settings:
    """Everything about a run that is not its workload or seed."""

    seconds: float  #: the timed phase (run_seconds in BENCHMARK.json)
    warmup_s: float = 1.0  #: caches fill, lazy set-up done, samples discarded
    probe_s: float = 2.0  #: classes the timed mix lacks, round-robin
    #: A traced run spends this share of the timed phase with the recorder
    #: off, half before and half after the traced part: the plain
    #: reference trace.overhead_frac is taken against.
    reference_share: float = 0.2
    shrink: int = 1  #: sizes are divided by this (smoke mode)
    # Short single-shot work is at the mercy of a noisy box, so it is
    # repeated and the median reported.
    setup_repeats: int = 3
    checkpoint_repeats: int = 3
    recover_repeats: int = 2


#: ``--smoke``: every phase of every workload, as briefly as it will go.
SMOKE = Settings(
    seconds=1.0, warmup_s=0.3, probe_s=0.5, shrink=20,
    setup_repeats=1, checkpoint_repeats=1, recover_repeats=1,
)


# -- the child ----------------------------------------------------------------------

_live: list = []


class ChildDied(RuntimeError):
    pass


class Child:
    """One launcher process (see serve.py) in a process group of its own."""

    def __init__(self, arguments: list, log: Path) -> None:
        self._log = open(log, "ab")
        self.launched = perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "serve.py"), *arguments],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._log,
            start_new_session=True,
            # Hash randomisation reshuffles every dict and set per process;
            # pinned so two runs of one seed execute the same program.
            env={**os.environ, "PYTHONHASHSEED": "0"},
        )
        self._lines: queue.Queue = queue.Queue()
        threading.Thread(target=self._read, daemon=True).start()
        _live.append(self)

    def _read(self) -> None:
        for line in self.process.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def receive(self, timeout: float) -> dict:
        try:
            line = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise ChildDied(f"launcher silent for {timeout:.0f}s") from None
        if line is None:
            raise ChildDied(f"launcher exited with {self.process.wait()}")
        return json.loads(line)

    def command(self, name: str, timeout: float = 120.0, **fields) -> dict:
        try:
            self.process.stdin.write(json.dumps({"cmd": name, **fields}).encode() + b"\n")
            self.process.stdin.flush()
        except OSError as exc:
            raise ChildDied(f"launcher pipe closed: {exc}") from None
        return self.receive(timeout)

    def kill(self) -> None:
        """SIGKILL the launcher and everything it started, and reap it."""
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()
        for stream in (self.process.stdin, self.process.stdout, self._log):
            try:
                stream.close()
            except OSError:
                pass
        if self in _live:
            _live.remove(self)

    def stop(self) -> None:
        """Ask for a clean exit; kill whatever is left either way."""
        try:
            self.command("exit", timeout=10.0)
            self.process.wait(timeout=10.0)
        except (ChildDied, subprocess.TimeoutExpired):
            pass
        self.kill()


class Calibrators:
    """One calibrate.py per core the server may use (see that module)."""

    def __init__(self, cores: list) -> None:
        self.processes = [
            subprocess.Popen(
                [sys.executable, str(HERE / "calibrate.py"), str(core)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            )
            for core in cores
        ]
        self.samples: list = []
        _live.append(self)

    def fetch(self) -> None:
        """Collect every core's samples so far."""
        self.samples = []
        for process in self.processes:
            process.stdin.write(b"\n")
            process.stdin.flush()
            self.samples.append(json.loads(process.stdout.readline()))

    def factor(self, began: float, ended: float) -> float:
        """``REFERENCE_S`` over the mean burst time of the window: what a
        time measured in it is multiplied by (a rate divided by)."""
        means = []
        for samples in self.samples:
            # A window shorter than the sampling interval borrows its neighbours.
            inside = [cpu for at, cpu in samples if began - 0.1 <= at <= ended + 0.1]
            means.append(statistics.mean(inside or [cpu for _, cpu in samples]))
        return calibrate.REFERENCE_S / statistics.mean(means)

    def kill(self) -> None:
        for process in self.processes:
            process.kill()
            process.wait()
            process.stdin.close()
            process.stdout.close()
        if self in _live:
            _live.remove(self)


def _kill_live() -> None:
    for child in list(_live):
        child.kill()


def _on_signal(signum, frame) -> None:
    raise SystemExit(128 + signum)


# -- connections and phases -----------------------------------------------------------


class Connection:
    """One client connection with the five LIL sessions open on it."""

    def __init__(self, port: int) -> None:
        from repro.server import ServerClient

        self.client = ServerClient("127.0.0.1", port, timeout=120.0)
        self.client.auth(TOKEN)
        self.sids = {
            name: self.client.open(language, database)
            for name, (language, database) in SESSIONS.items()
        }

    def send(self, op: Op) -> list:
        client, sid = self.client, self.sids[op.session]
        if not op.txn:
            return [client.execute(sid, text) for text in op.statements]
        client.begin()
        try:
            replies = [client.execute(sid, text) for text in op.statements]
            client.commit()
        except Exception:
            self.abort()
            raise
        return replies

    def abort(self) -> None:
        from repro.errors import MLDSError

        try:
            self.client.abort()
        except (MLDSError, OSError):
            pass

    def close(self) -> None:
        self.client.close()


class Tally:
    """What one connection saw in one phase."""

    def __init__(self) -> None:
        self.latency: dict = {}  # class -> [seconds]
        self.attempted = 0
        self.failed = 0
        self.executes = 0
        self.rows = 0
        self.user_bytes = 0
        self.elapsed = 0.0
        self.errors: list = []


def drive(connection: Connection, ops: Iterable[Op], stop: Callable[[], bool]) -> Tally:
    """Closed loop: send, wait, check, then the next op."""
    from repro.errors import MLDSError

    tally = Tally()
    ops = iter(ops)
    started = perf_counter()
    while not stop():
        op = next(ops, None)
        if op is None:
            break
        tally.attempted += 1
        begun = perf_counter()
        try:
            replies = connection.send(op)
        except MLDSError as exc:
            tally.failed += 1
            tally.errors.append(f"{op.cls}: {type(exc).__name__}: {exc}")
            continue
        ended = perf_counter()
        if not op.check(replies):
            tally.failed += 1
            tally.errors.append(f"{op.cls}: wrong answer to {op.statements[0][:80]}")
            continue
        if op.apply is not None:
            op.apply()
        tally.latency.setdefault(op.cls, []).append(ended - begun)
        tally.executes += len(op.statements)
        tally.user_bytes += op.user_bytes
        for reply in replies:
            for result in reply:
                tally.rows += len(result["rows"]) if "rows" in result else 1
    tally.elapsed = perf_counter() - started
    return tally


def run_phase(connections: list, streams: list, seconds: float) -> list:
    """Drive every connection from its own thread for *seconds*; one
    Tally each.  A thread's exception (a dead server) re-raises here."""
    deadline = perf_counter() + seconds

    def stop() -> bool:
        return perf_counter() >= deadline

    results: list = [None] * len(connections)

    def work(index: int) -> None:
        try:
            results[index] = drive(connections[index], streams[index], stop)
        except BaseException as exc:  # re-raised on the main thread below
            results[index] = exc

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(connections))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for result in results:
        if isinstance(result, BaseException):
            raise result
    return results


def rate_of(tallies: list) -> float:
    """Acknowledged, correct ``execute`` ops per second, all connections."""
    return sum(tally.executes / tally.elapsed for tally in tallies)


def merged(tallies: list) -> dict:
    latency: dict = {}
    for tally in tallies:
        for cls, values in tally.latency.items():
            latency.setdefault(cls, []).extend(values)
    return latency


# -- measuring from outside -------------------------------------------------------------


def peak_rss_mb(pid: int) -> float:
    """Peak resident set of *pid* and its descendants, from /proc."""
    parents: dict = {}
    peaks: dict = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            status = Path("/proc", entry, "status").read_text()
        except OSError:
            continue
        fields = dict(
            line.split(":", 1) for line in status.splitlines() if ":" in line
        )
        parents[int(entry)] = int(fields.get("PPid", "0"))
        peaks[int(entry)] = int(fields.get("VmHWM", "0 kB").split()[0])
    family = {pid}
    grew = True
    while grew:
        grew = False
        for child, parent in parents.items():
            if parent in family and child not in family:
                family.add(child)
                grew = True
    return sum(peaks.get(member, 0) for member in family) / 1024.0


def pin_generator() -> list:
    """Pin this process to the first core; returns every core it had.

    The first core is where this box handles its block-device
    interrupts: an fsync issued from it takes twice as long, so the
    server is kept off it (see server_cores).  On one core nothing moves.
    """
    cores = sorted(os.sched_getaffinity(0))
    if len(cores) > 1:
        os.sched_setaffinity(0, {cores[0]})
    return cores


def server_cores(cores: list, engine: str) -> list:
    """The serial engine is one GIL-bound process and loses nothing by
    staying off the generator's core; the process engine keeps every
    core, because its workers are the point."""
    return cores if engine == "process" or len(cores) < 2 else cores[1:]


def directory_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def p50(values: list) -> float:
    return statistics.median(values)


def p95(values: list) -> float:
    ordered = sorted(values)
    return ordered[math.ceil(0.95 * len(ordered)) - 1]


def fingerprint() -> dict:
    """Where a result file was measured; ``id`` names the host's baseline."""
    commit = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    host = {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }
    digest = hashlib.sha256(json.dumps(host, sort_keys=True).encode()).hexdigest()
    return {**host, "commit": commit, "id": digest[:12]}


# -- one run ------------------------------------------------------------------------------


class Run:
    """One workload, one seed, one mode: the whole life cycle."""

    def __init__(
        self, workload: str, seed: int, settings: Settings, traced: bool,
        out_dir: Optional[Path], cores: list,
    ) -> None:
        self.workload = WORKLOADS[workload]
        self.settings = settings
        self.sizes = self.workload.sizes.shrunk(settings.shrink)
        self.seed = seed
        self.traced = traced
        self.out_dir = out_dir
        WORK.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
        self.child: Optional[Child] = None
        self.connections: list = []
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.user_bytes = 0
        self.detail: dict = {
            "sizes": vars(self.sizes), "engine": self.workload.engine, "phase_s": {},
        }
        self._phase_began = perf_counter()
        self.server_cores = server_cores(cores, self.workload.engine)
        self.speed: Optional[Calibrators] = None
        #: metric -> [(value as measured, window it was measured in, is a rate)]
        self._measured: dict = {}

    # -- plumbing ---------------------------------------------------------------

    def launch(self, wal_dir: Path, recover: bool = False) -> dict:
        arguments = [
            "--workload", self.workload.name, "--seed", str(self.seed),
            "--wal-dir", str(wal_dir), "--shrink", str(self.settings.shrink),
            "--cores", ",".join(map(str, self.server_cores)),
        ]
        if self.traced:
            arguments.append("--traced")
        if recover:
            arguments.append("--recover")
        self.child = Child(arguments, self.work / "launcher.log")
        ready = self.child.receive(timeout=170.0)
        self.connections = [Connection(ready["port"]) for _ in range(CONNECTIONS)]
        ready["window"] = (self.child.launched, perf_counter())
        return ready

    def disconnect(self) -> None:
        for connection in self.connections:
            try:
                connection.close()
            except OSError:
                pass
        self.connections = []

    def count(self, tallies: list) -> None:
        for tally in tallies:
            self.attempted += tally.attempted
            self.failed += tally.failed
            self.errors.extend(tally.errors)
            self.user_bytes += tally.user_bytes

    def phase_done(self, name: str) -> None:
        """Record how long the run spent since the previous phase ended."""
        now = perf_counter()
        self.detail["phase_s"][name] = now - self._phase_began
        self._phase_began = now

    def measured(
        self, name: str, value: float, window: Optional[tuple] = None, rate: bool = False
    ) -> None:
        """Note one measurement; *window* is the ``(began, ended)`` a time
        or rate was taken in, for the speed calibration."""
        self._measured.setdefault(name, []).append((value, window, rate))

    def timed_phase(self, streams: list, seconds: float) -> tuple:
        """``(tallies, window)`` of one phase driven on every connection."""
        began = perf_counter()
        tallies = run_phase(self.connections, streams, seconds)
        self.count(tallies)
        return tallies, (began, perf_counter())

    def check(self, ok: bool, what: str) -> None:
        """One verification outside the op streams."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)

    def streams(self, mix: dict) -> list:
        return [plan.stream(mix) for plan in self.plans]

    # -- the life cycle ---------------------------------------------------------------

    def execute(self) -> dict:
        try:
            return self._execute()
        finally:
            self.disconnect()
            for process in (self.child, self.speed):
                if process is not None:
                    process.kill()
            shutil.rmtree(self.work, ignore_errors=True)
            try:
                WORK.rmdir()  # unless another run is using it
            except OSError:
                pass

    def _execute(self) -> dict:
        wal_dir = self.work / "wal"
        self.speed = Calibrators(self.server_cores)

        # Set-up, several times over: the median is the metric, the last
        # deployment is the one measured.  The model is built meanwhile.
        ready: dict = {}
        for attempt in range(self.settings.setup_repeats):
            if self.child is not None:
                self.disconnect()
                self.child.kill()
                shutil.rmtree(wal_dir)
            if attempt == 0:
                builder = threading.Thread(target=self._build_model)
                builder.start()
            ready = self.launch(wal_dir)
            began, ended = ready["window"]
            self.measured("setup_s", ended - began, ready["window"])
            self.measured(
                "ingest_records_per_s", ready["bulk_records"] / ready["bulk_wall_s"],
                ready["window"], rate=True,
            )
            if attempt == 0:
                builder.join()
        self.phase_done("setup")
        self.user_bytes = ready["user_bytes"]
        self.loaded_records = ready["record_count"]
        layer: dict = {"ready": ready}

        mix = self.workload.mix
        self.timed_phase(self.streams(mix), self.settings.warmup_s)
        self.phase_done("warmup")

        seconds = self.settings.seconds
        if self.traced:
            layer["ping_ms"] = self._pings()
            # The plain reference runs half before and half after the
            # traced part, so a statement that slows as its table grows
            # does not read as tracing overhead.
            reference_s = seconds * self.settings.reference_share / 2
            seconds -= 2 * reference_s
            self._reference(mix, reference_s)
            layer["before"] = self.connections[0].client.metrics()
            layer["wal_before"] = directory_bytes(wal_dir)
            self.child.command("trace", on=True)
            trace.RECORDER.clear()
            trace.RECORDER.on = True
        timed, timed_window = self.timed_phase(self.streams(mix), seconds)
        if self.traced:
            trace.RECORDER.on = False
            self.child.command("trace", on=False)
            layer["after"] = self.connections[0].client.metrics()
            layer["wal_after"] = directory_bytes(wal_dir)
            self._reference(mix, reference_s)
            layer["client"] = trace.RECORDER.summary()
            layer["server"] = self._spans("server")
            if self.out_dir is not None:
                trace.RECORDER.dump(self._spans_path(), "client")
        self.phase_done("timed")
        self.measured("stmts_per_s", rate_of(timed), timed_window, rate=True)

        # Classes the mix lacks, round-robin, on the same server.
        latency = {"timed": (merged(timed), timed_window)}
        if not self.traced:
            latency["probe"] = self._probe(set(latency["timed"][0]))
            self._latency_metrics(latency)
        for phase, (classes, _) in latency.items():
            self.detail[f"{phase}_classes"] = {
                cls: {"samples": len(v), "p50_ms": p50(v) * 1000.0}
                for cls, v in sorted(classes.items())
            }
        self.phase_done("probe")

        self._digest("timed phase")
        self.phase_done("digest")
        self.measured("server_rss_mb", peak_rss_mb(self.child.process.pid))
        self.measured("wal_bytes_per_user_byte", directory_bytes(wal_dir) / self.user_bytes)

        if self.traced:
            self.child.command("trace", on=True)
        for _ in range(self.settings.checkpoint_repeats):
            began = perf_counter()
            checkpoint = self.child.command("checkpoint")
            self.measured("checkpoint_s", checkpoint["seconds"], (began, perf_counter()))
        if self.traced:
            self.child.command("trace", on=False)
            layer["checkpoint"] = self._spans("server")
            layer["snapshot_bytes"] = checkpoint["snapshot_bytes"]
            layer["user_bytes"] = self.user_bytes
        self.phase_done("checkpoint")

        # The tail recovery must replay: a fixed number of acknowledged
        # single-INSERT transactions, then one left open when SIGKILL lands.
        tail = (self.plans[0].op("insert_txn") for _ in range(self.sizes.tail_txns))
        self.count([drive(self.connections[0], tail, lambda: False)])
        victim = self.connections[1]
        orphan = self.plans[1].op("insert_txn")
        victim.client.begin()
        victim.client.execute(victim.sids[orphan.session], orphan.statements[0])
        self.child.kill()
        self.disconnect()
        self.phase_done("tail")

        # Nothing is written between restarts, so each one loads the same
        # snapshot and replays the same tail; the last is the one verified.
        for attempt in range(self.settings.recover_repeats):
            if attempt:
                self.disconnect()
                self.child.kill()
            recovered = self.launch(wal_dir, recover=True)
            began, ended = recovered["window"]
            self.measured("recover_s", ended - began, recovered["window"])
        self.check(
            recovered["record_count"] == self._expected_records(),
            f"record_count {recovered['record_count']} after recovery, "
            f"oracle {self._expected_records()}",
        )
        self._digest("recovery")  # acknowledged keys present, the orphan absent
        self.count([drive(self.connections[0], [self.plans[0].op("point")], lambda: False)])
        if self.traced:
            layer["recovery"] = recovered["summary"]
            if self.out_dir is not None:
                self._spans("recovery")
        self.disconnect()
        self.child.stop()
        self.child = None
        self.phase_done("recover+verify")

        metrics = self._at_reference_speed()
        if self.traced:
            import budget

            layer["reference_rate"] = metrics["reference_rate"]
            layer["traced_rate"] = metrics["stmts_per_s"]
            metrics = budget.per_layer(layer, timed, self.detail)
        return metrics

    def _reference(self, mix: dict, seconds: float) -> None:
        tallies, window = self.timed_phase(self.streams(mix), seconds)
        self.measured("reference_rate", rate_of(tallies), window, rate=True)

    def _at_reference_speed(self) -> dict:
        """Every measurement scaled to the calibrators' reference speed —
        a time multiplied, a rate divided, by the factor of its own window
        — and the median taken where a phase was repeated."""
        self.speed.fetch()
        metrics, raw, factors = {}, {}, {}
        for name, entries in self._measured.items():
            scaled = []
            for value, window, is_rate in entries:
                factor = self.speed.factor(*window) if window else 1.0
                factors.setdefault(name, []).append(factor)
                scaled.append(value / factor if is_rate else value * factor)
            metrics[name] = statistics.median(scaled)
            raw[name] = statistics.median(value for value, _, _ in entries)
        self.detail["as_measured"] = raw
        self.detail["speed_factor"] = {n: statistics.median(f) for n, f in factors.items()}
        return metrics

    def _build_model(self) -> None:
        led = model.LedModel(self.seed, self.sizes.led)
        pools = model.ReadPools(self.seed, self.sizes)
        self.plans = [
            model.ConnectionPlan(self.seed, index, CONNECTIONS, self.sizes, led, pools)
            for index in range(CONNECTIONS)
        ]

    def _pings(self) -> list:
        client = self.connections[0].client
        samples = []
        for _ in range(PINGS):
            begun = perf_counter()
            client.ping()
            samples.append((perf_counter() - begun) * 1000.0)
        return samples

    def _spans_path(self) -> Optional[str]:
        if self.out_dir is None:
            return None
        return str(self.out_dir / f"spans-{self.workload.name}.jsonl")

    def _spans(self, process: str) -> dict:
        """The launcher's span summary; with --out its spans join the file."""
        reply = self.child.command("spans", path=self._spans_path(), process=process)
        return reply["summary"]

    def _probe(self, measured: set) -> tuple:
        """Every class the timed mix lacks, round-robin for probe_s, so each
        class's samples span the whole phase rather than one burst of it.

        One connection sends, the other idles: next to a second stream a
        short statement's latency has two modes (it met the other
        connection's bytecode or it did not) and its median flips between
        them from run to run; alone it has one."""
        def group(cls: str):
            language, kind, _ = CLASSES[cls]
            return (language, kind) if kind == "read" else kind

        covered = {group(cls) for cls in measured}
        wanted = [cls for cls in PROBE_CLASSES if group(cls) not in covered]
        if not wanted:
            return {}, None

        def round_robin() -> Iterator[Op]:
            while True:
                for cls in wanted:
                    yield self.plans[0].op(cls)

        began = perf_counter()
        deadline = began + self.settings.probe_s
        tally = drive(self.connections[0], round_robin(), lambda: perf_counter() >= deadline)
        self.count([tally])
        return tally.latency, (began, perf_counter())

    def _latency_metrics(self, latency: dict) -> None:
        """The latency metrics, each from the timed phase where its mix
        has such statements and from the probe where it has none."""

        def pooled(language: Optional[str], kind: str) -> tuple:
            for classes, window in latency.values():
                values = [
                    value * 1000.0
                    for cls, samples in classes.items()
                    if CLASSES[cls][1] == kind and language in (None, CLASSES[cls][0])
                    for value in samples
                ]
                if values:
                    return values, window
            raise ValueError(f"no {language or 'any'} {kind} statement was measured")

        reads, window = pooled(None, "read")
        self.detail["read_samples"] = len(reads)
        self.measured("read_p50_ms", p50(reads), window)
        self.measured("read_p95_ms", p95(reads), window)
        for name, language, kind in (
            ("write_p50_ms", None, "write"), ("txn_p50_ms", None, "txn"),
            ("sql_p50_ms", "sql", "read"), ("daplex_p50_ms", "daplex", "read"),
            ("codasyl_p50_ms", "codasyl", "read"), ("dli_p50_ms", "dli", "read"),
        ):
            values, window = pooled(language, kind)
            self.measured(name, p50(values), window)

    def _expected_acct(self) -> dict:
        rows = {}
        for plan in self.plans:
            for key, bal in plan.acct.bal.items():
                rows[key] = model.acct_row(key, bal)
        return rows

    def _expected_records(self) -> int:
        rows = sum(len(plan.acct.bal) for plan in self.plans)
        return self.loaded_records + rows - self.sizes.acct

    def _digest(self, when: str) -> None:
        """The whole written table over the wire against the model."""
        expected = self._expected_acct()
        connection = self.connections[0]
        sid = connection.sids["bank"]
        got = {}
        for low in range(0, max(expected) + 1, DIGEST_CHUNK):
            (result,) = connection.client.execute(
                sid,
                "SELECT id, branch, bal, note FROM acct "
                f"WHERE id >= {low} AND id < {low + DIGEST_CHUNK}",
            )
            for row in result["rows"]:
                got[row["id"]] = (row["id"], row["branch"], row["bal"], row["note"])
        (result,) = connection.client.execute(sid, "SELECT COUNT(*) FROM acct")
        total = result["rows"][0]["COUNT(*)"]
        self.check(
            got == expected and total == len(expected),
            f"acct digest after {when}: {len(got)} rows read, COUNT(*) {total}, "
            f"oracle {len(expected)}; "
            f"{sum(1 for k in expected if got.get(k) != expected[k])} differ",
        )
        self.detail[f"digest after {when}"] = hashlib.sha256(
            repr(sorted(got.values())).encode()
        ).hexdigest()[:16]


# -- command line -----------------------------------------------------------------------------


def result_line(run: Run, metrics: dict, manifest: dict) -> dict:
    """The driver's JSON object: exactly the manifest's names, with units."""
    section = manifest["per_layer" if run.traced else "end_to_end"]
    out = {}
    for entry in section:
        value = metrics[entry["name"]]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError(f"{entry['name']} is {value!r}")
        out[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": out,
    }


def print_table(record: dict) -> None:
    mode = "traced" if record["traced"] else "plain"
    print(
        f"\n== {record['workload']} ({mode}, seed {record['seed']}, "
        f"T={record['seconds']}s): attempted {record['attempted']}, "
        f"failed {record['failed']} "
        f"(failed_frac {record['failed'] / record['attempted']:.6f})"
    )
    for name, cell in record["metrics"].items():
        print(f"  {name:<44} {cell['value']:>16.6g} {cell['unit']}")
    for error in record["errors"][:10]:
        print(f"  ! {error}")


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed phase length (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="sizes / 20, T = 1 s, every workload, plain and traced")
    parser.add_argument("--runs", type=int, default=1, help="repeat each workload (with --out)")
    parser.add_argument("--out", type=Path, help="write every run to this JSON file "
                        "(spans-<workload>.jsonl beside it when traced)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"fullstack: no system to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    manifest = json.loads(MANIFEST.read_text())
    signal.signal(signal.SIGTERM, _on_signal)
    atexit.register(_kill_live)

    seconds = args.seconds if args.seconds is not None else float(manifest["run_seconds"])
    settings = Settings(seconds=seconds)
    modes = [bool(args.trace or args.traced)]
    if args.smoke:
        settings, modes = SMOKE, [False, True]
    if any(modes):
        trace.install_client()
    cores = pin_generator()
    names = [args.workload] if args.workload else list(WORKLOADS)
    out_dir = None
    if args.out is not None:
        out_dir = args.out.resolve().parent
        out_dir.mkdir(parents=True, exist_ok=True)

    records, failed = [], False
    last = None
    for name in names:
        for traced in modes:
            for _ in range(args.runs):
                run = Run(name, args.seed, settings, traced, out_dir, cores)
                metrics = run.execute()
                last = result_line(run, metrics, manifest)
                failed = failed or run.failed > 0
                record = {
                    "workload": name, "seed": args.seed, "seconds": settings.seconds,
                    "traced": traced, "errors": run.errors, "detail": run.detail,
                    **last,
                }
                records.append(record)
                if args.workload is None or args.out is not None:
                    print_table(record)
    if args.out is not None:
        args.out.write_text(
            json.dumps(
                {
                    "fingerprint": fingerprint(),
                    "settings": {
                        **asdict(settings), "connections": CONNECTIONS,
                        "flush_policy": FLUSH_POLICY,
                    },
                    "runs": records,
                },
                indent=1,
            )
        )
    if args.workload is not None and len(records) == 1:
        for error in records[0]["errors"][:10]:
            print(f"fullstack: {error}", file=sys.stderr)
        print(json.dumps(last))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
