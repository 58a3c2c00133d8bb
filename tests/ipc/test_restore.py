"""The process engine's restore: frozen workers, every dump sent at once.

Two properties carry a restart's speed on the process engine, and one
carries its safety:

* every worker — first spawned or respawned by ``heal_workers`` — moves
  the heap it inherited at fork out of the collector's reach
  (``gc.freeze()``) before it answers any command, and leaves the
  collector on or off as it was at birth;
* ``restore_farm`` sends every backend's dump before it waits for any
  reply, and the farm it builds equals the serial engine's, record for
  record and index for index, whether reached by ``load_mlds``,
  ``recover_mlds`` or ``heal_workers``;
* a worker that dies while restore is in flight surfaces as a typed
  :class:`~repro.errors.WorkerCrashed`, never a hang.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import signal
import threading

import pytest

from repro.abdl import parse_request
from repro.abdl.ast import Modifier
from repro.core.mlds import MLDS, MLDSConfig
from repro.errors import WorkerCrashed
from repro.ipc import worker as worker_module
from repro.ipc.proxy import ProcessBackend
from repro.persistence import _snapshot, collector_paused, load_mlds
from repro.wal.log import CHECKPOINT_NAME
from repro.wal.recovery import checkpoint_mlds, recover_mlds, restore_farm

from tests.ipc.test_worker_crash import within
from tests.wal.conftest import delete, farm_image, insert, update

PROCESS = MLDSConfig(engine="process")
RETRIEVE = parse_request("RETRIEVE (FILE = f) (*)")


def pids(mlds) -> list[int]:
    return [backend._process.pid for backend in mlds.kds.controller.backends]


def kill_backend(mlds, backend_id) -> None:
    process = mlds.kds.controller.backends[backend_id]._process
    process.kill()
    process.join(timeout=10)


def store_image(mlds) -> list:
    """Each backend's records in store order, with its index layout."""
    image = []
    for backend in mlds.kds.controller.backends:
        indexes = backend.store.index_snapshot()
        image.append(
            (backend.store.snapshot(), indexes["attributes"], indexes["files"])
        )
    return image


# -- every worker freezes what it inherited ----------------------------------------


@pytest.fixture()
def worker_log(tmp_path, monkeypatch):
    """One log file per worker pid: its ``gc.freeze`` call and each command.

    Both spies are patched in the parent, so every worker forked while
    the fixture is active inherits them.
    """
    log_dir = tmp_path / "workers"
    log_dir.mkdir()

    def log(line: str) -> None:
        with open(log_dir / str(os.getpid()), "a") as out:
            out.write(line + "\n")

    real_freeze, real_handle = gc.freeze, worker_module._Worker.handle

    def freeze() -> None:
        real_freeze()
        log(f"freeze {gc.get_freeze_count()}")

    def handle(self, message):
        log(f"{message['cmd']} collector={'on' if gc.isenabled() else 'off'}")
        return real_handle(self, message)

    monkeypatch.setattr(gc, "freeze", freeze)
    monkeypatch.setattr(worker_module._Worker, "handle", handle)

    def read(pid: int) -> list[str]:
        return (log_dir / str(pid)).read_text().splitlines()

    return read


def assert_froze_first(lines: list[str], collector: str = "on") -> None:
    assert lines, "the worker never logged"
    kind, count = lines[0].split()
    assert kind == "freeze" and int(count) > 0, lines
    commands = lines[1:]
    assert commands, "the worker answered no command"
    assert all(line.endswith(f"collector={collector}") for line in commands), lines


class TestWorkersFreezeWhatTheyInherit:
    def test_spawned_and_respawned_workers_freeze_before_any_command(
        self, worker_log, tmp_path
    ):
        mlds = MLDS(backend_count=3, engine="process", wal=tmp_path / "wal")
        try:
            for i in range(6):
                mlds.kds.execute(insert("f", a=i))
            checkpoint_mlds(mlds)
            mlds.kds.execute(insert("f", a=99))
            first = pids(mlds)
            for pid in first:
                assert_froze_first(worker_log(pid))

            kill_backend(mlds, 1)
            mlds.kds.heal_workers()
            second = pids(mlds)
            assert not set(first) & set(second)
            for pid in second:
                lines = worker_log(pid)
                assert_froze_first(lines)
                # The respawned farm was rebuilt from the checkpoint after
                # the freeze; backend 1 held none of its tail.
                assert any(line.startswith("restore ") for line in lines)
        finally:
            mlds.kds.shutdown()

    def test_workers_forked_by_load_freeze_before_the_restore(
        self, worker_log, tmp_path
    ):
        source = MLDS(backend_count=2, wal=tmp_path / "wal")
        for i in range(4):
            source.kds.execute(insert("f", a=i))
        checkpoint = checkpoint_mlds(source)
        source.kds.shutdown()

        loaded = load_mlds(checkpoint, PROCESS)
        try:
            for pid in pids(loaded):
                lines = worker_log(pid)
                assert_froze_first(lines)
                assert any(line.startswith("restore ") for line in lines)
        finally:
            loaded.kds.shutdown()

    def test_a_worker_born_with_the_collector_off_keeps_it_off(self, worker_log):
        with collector_paused():
            mlds = MLDS(backend_count=2, engine="process")
        try:
            mlds.kds.execute(insert("f", a=1))
            mlds.kds.record_count()  # every worker answers a command
            for pid in pids(mlds):
                assert_froze_first(worker_log(pid), collector="off")
            assert gc.isenabled()
        finally:
            mlds.kds.shutdown()


# -- the restored farm equals the serial engine's -----------------------------------


def populate(mlds) -> None:
    """Indexes, a checkpoint over dumps of 3, 2, 1 and 0 records, a WAL tail.

    Placement is round-robin per file, so each file's first record
    lands on backend 0.
    """
    mlds.kds.controller.add_index("a")
    for i in range(3):
        mlds.kds.execute(insert("f", text=f"t{i}", a=i, b=i % 3))
    for i in range(2):
        mlds.kds.execute(insert("g", a=10 + i, c=f"g{i}"))
    mlds.kds.execute(insert("e", d=0.5))
    checkpoint_mlds(mlds)
    mlds.kds.execute(insert("f", a=50, b=1))
    mlds.kds.execute(delete(("FILE", "=", "f"), ("a", "=", 1)))
    mlds.kds.execute(update(Modifier("b", value=7), ("FILE", "=", "f"), ("b", "=", 2)))
    mlds.kds.execute(insert("h", d=1.5))


@pytest.fixture()
def reference(tmp_path):
    """A serial 4-backend system, populated, with its WAL directory."""
    mlds = MLDS(backend_count=4, wal=tmp_path / "serial")
    populate(mlds)
    yield mlds
    mlds.kds.shutdown()


class TestRestoredFarmMatchesSerial:
    def test_load_mlds(self, reference):
        checkpoint = reference.kds.wal.directory / CHECKPOINT_NAME
        dumps = json.loads(checkpoint.read_text())["backends"]
        assert [len(rows) for rows in dumps] == [3, 2, 1, 0]
        serial, process = load_mlds(checkpoint), load_mlds(checkpoint, PROCESS)
        try:
            assert farm_image(process) == farm_image(serial)
            assert store_image(process) == store_image(serial)
            assert process.kds.controller.indexed_attributes == ["a"]
        finally:
            serial.kds.shutdown()
            process.kds.shutdown()

    def test_recover_mlds_with_a_wal_tail(self, reference):
        wal_dir = reference.kds.wal.directory
        serial = recover_mlds(wal_dir, attach_wal=False)
        process = recover_mlds(wal_dir, config=PROCESS, attach_wal=False)
        try:
            assert farm_image(process) == farm_image(serial) == farm_image(reference)
            assert store_image(process) == store_image(serial)
        finally:
            serial.kds.shutdown()
            process.kds.shutdown()

    def test_heal_workers(self, reference, tmp_path):
        process = MLDS(backend_count=4, engine="process", wal=tmp_path / "process")
        try:
            populate(process)
            kill_backend(process, 2)
            process.kds.heal_workers()
            assert farm_image(process) == farm_image(reference)
            assert store_image(process) == store_image(reference)
        finally:
            process.kds.shutdown()


class TestEveryDumpGoesOutFirst:
    def test_no_worker_waits_on_another(self):
        snapshot = small_snapshot(3)
        serial = MLDS(backend_count=3)
        restore_farm(serial.kds.controller, snapshot)
        mlds = MLDS(backend_count=3, engine="process")
        backends = mlds.kds.controller.backends
        first = backends[0]._process.pid
        os.kill(first, signal.SIGSTOP)
        loading = threading.Thread(
            target=restore_farm, args=(mlds.kds.controller, snapshot), daemon=True
        )
        loading.start()
        try:
            # Backend 0 cannot answer, yet the others have their dumps
            # and have answered: nothing waited for backend 0's reply.
            for backend in backends[1:]:
                assert backend._transport.poll(10.0)
        finally:
            os.kill(first, signal.SIGCONT)
            loading.join(10.0)
        try:
            assert not loading.is_alive()
            assert farm_image(mlds) == farm_image(serial)
        finally:
            mlds.kds.shutdown()


# -- a worker dying mid-restore is typed, not a hang --------------------------------


def die_after_restore_frame(backend) -> None:
    """Arm one fault: *backend*'s worker dies holding its unanswered dump.

    The worker is stopped before its dump is sent, so it cannot answer,
    then killed once the frame is on its pipe.  One-shot, and armed on
    the proxy, so it hits whichever process the proxy runs when the
    restore starts (a heal respawns first).
    """

    def start_then_kill(rows):
        del backend.start_restore
        process = backend._process
        os.kill(process.pid, signal.SIGSTOP)
        original(rows)
        process.kill()  # SIGKILL also ends a stopped process
        process.join(timeout=10)

    original = backend.start_restore
    backend.start_restore = start_then_kill


def small_snapshot(backend_count: int) -> dict:
    source = MLDS(backend_count=backend_count)
    for i in range(3 * backend_count):
        source.kds.execute(insert("f", a=i))
    return json.loads(json.dumps(_snapshot(source)))


class TestWorkerDiesDuringRestore:
    def test_dump_sent_then_worker_killed(self):
        mlds = MLDS(backend_count=3, engine="process")
        try:
            die_after_restore_frame(mlds.kds.controller.backends[1])
            with pytest.raises(WorkerCrashed) as exc:
                within(20, lambda: restore_farm(mlds.kds.controller, small_snapshot(3)))
            assert exc.value.backend_id == 1
            # The crash is latched: the next dispatch fails fast, typed.
            assert mlds.kds.controller.engine.crashed is exc.value
            controller = mlds.kds.controller
            with pytest.raises(WorkerCrashed):
                within(20, lambda: controller.engine.run(controller.backends, RETRIEVE))
        finally:
            mlds.kds.shutdown()

    def test_load_mlds_stops_its_workers_when_restore_fails(
        self, reference, monkeypatch
    ):
        def start_then_kill(backend, rows):
            if backend.backend_id == 1:
                os.kill(backend._process.pid, signal.SIGSTOP)
            original(backend, rows)
            if backend.backend_id == 1:
                backend._process.kill()
                backend._process.join(timeout=10)

        original = ProcessBackend.start_restore
        monkeypatch.setattr(ProcessBackend, "start_restore", start_then_kill)
        before = {p.pid for p in multiprocessing.active_children()}
        checkpoint = reference.kds.wal.directory / CHECKPOINT_NAME
        with pytest.raises(WorkerCrashed) as exc:
            within(20, lambda: load_mlds(checkpoint, PROCESS))
        assert exc.value.backend_id == 1
        left = {p.pid for p in multiprocessing.active_children()} - before
        assert not left

    def test_worker_killed_while_its_dump_is_still_being_sent(self):
        # A dump far past the pipe's buffer: the send blocks on a stopped
        # worker, and its death must break the send, not hang it.
        snapshot = small_snapshot(2)
        snapshot["backends"][0] = [
            {"pairs": [["FILE", "f"], ["a", i], ["pad", "x" * 64]], "text": ""}
            for i in range(20_000)
        ]
        mlds = MLDS(backend_count=2, engine="process")
        victim = mlds.kds.controller.backends[0]
        os.kill(victim._process.pid, signal.SIGSTOP)
        fuse = threading.Timer(0.5, victim._process.kill)
        fuse.start()
        try:
            with pytest.raises(WorkerCrashed) as exc:
                within(20, lambda: restore_farm(mlds.kds.controller, snapshot))
            assert exc.value.backend_id == 0
        finally:
            fuse.cancel()
            victim._process.kill()
            mlds.kds.shutdown()

    def test_crash_during_heal_is_typed_and_the_next_heal_succeeds(
        self, reference, tmp_path
    ):
        process = MLDS(backend_count=4, engine="process", wal=tmp_path / "process")
        try:
            populate(process)
            kill_backend(process, 0)
            die_after_restore_frame(process.kds.controller.backends[1])
            with pytest.raises(WorkerCrashed) as exc:
                within(20, process.kds.heal_workers)
            assert exc.value.backend_id == 1
            assert process.kds.controller.engine.needs_heal
            process.kds.heal_workers()
            assert farm_image(process) == farm_image(reference)
        finally:
            process.kds.shutdown()
