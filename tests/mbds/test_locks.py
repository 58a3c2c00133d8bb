"""The kernel lock manager: modes, compatibility, 2PL bookkeeping."""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import LockTimeout
from repro.mbds.locks import (
    GLOBAL_RESOURCE,
    LockManager,
    LockMode,
    compatible,
    lock_items,
    supremum,
)

from tests.wal.conftest import delete, insert, update
from repro.abdl.ast import Modifier


class TestCompatibility:
    def test_intention_modes_are_mutually_compatible(self):
        for a in (LockMode.IS, LockMode.IX):
            for b in (LockMode.IS, LockMode.IX):
                assert compatible(a, b)

    def test_shared_compatible_with_shared_and_is(self):
        assert compatible(LockMode.S, LockMode.S)
        assert compatible(LockMode.S, LockMode.IS)
        assert not compatible(LockMode.S, LockMode.IX)

    def test_exclusive_compatible_with_nothing(self):
        for mode in LockMode:
            assert not compatible(LockMode.X, mode)
            assert not compatible(mode, LockMode.X)

    def test_supremum_upgrades(self):
        assert supremum(LockMode.IS, LockMode.S) is LockMode.S
        assert supremum(LockMode.S, LockMode.IS) is LockMode.S
        assert supremum(LockMode.IX, LockMode.X) is LockMode.X
        # No SIX mode: the conservative escalation is X.
        assert supremum(LockMode.S, LockMode.IX) is LockMode.X
        assert supremum(LockMode.IX, LockMode.S) is LockMode.X


class TestLockItems:
    def test_pinned_insert(self):
        items = dict(lock_items(insert("f", a=1)))
        assert items[GLOBAL_RESOURCE] is LockMode.IX
        assert items["f"] is LockMode.X

    def test_pinned_delete_and_update(self):
        for request in (
            delete(("FILE", "=", "f"), ("a", "=", 1)),
            update(Modifier("a", value=2), ("FILE", "=", "f")),
        ):
            items = dict(lock_items(request))
            assert items[GLOBAL_RESOURCE] is LockMode.IX
            assert items["f"] is LockMode.X

    def test_unpinned_mutation_locks_globally(self):
        items = dict(lock_items(delete(("a", "=", 1))))
        assert items == {GLOBAL_RESOURCE: LockMode.X}

    def test_retrieve_takes_shared_locks(self):
        from repro.abdl import parse_request

        items = dict(lock_items(parse_request("RETRIEVE (FILE = f) (*)")))
        assert items[GLOBAL_RESOURCE] is LockMode.IS
        assert items["f"] is LockMode.S

    def test_global_resource_sorts_first(self):
        items = lock_items(insert("f", a=1))
        assert items[0][0] == GLOBAL_RESOURCE


class TestLockManager:
    def test_readers_share(self):
        locks = LockManager()
        locks.acquire("r1", [("f", LockMode.S)])
        locks.acquire("r2", [("f", LockMode.S)])  # must not block
        assert set(locks.holders("f")) == {"r1", "r2"}

    def test_writer_excludes_reader(self):
        locks = LockManager(timeout=0.05)
        locks.acquire("w", [("f", LockMode.X)])
        with pytest.raises(LockTimeout) as exc:
            locks.acquire("r", [("f", LockMode.S)])
        assert "w" in str(exc.value) and "f" in str(exc.value)

    def test_reacquire_is_idempotent(self):
        locks = LockManager()
        locks.acquire("a", [("f", LockMode.X)])
        locks.acquire("a", [("f", LockMode.X)])
        locks.acquire("a", [("f", LockMode.S)])  # subsumed by X
        assert locks.held_by("a")["f"] is LockMode.X

    def test_upgrade_shared_to_exclusive(self):
        locks = LockManager()
        locks.acquire("a", [("f", LockMode.S)])
        locks.acquire("a", [("f", LockMode.X)])
        assert locks.held_by("a")["f"] is LockMode.X

    def test_release_wakes_waiter(self):
        locks = LockManager(timeout=5.0)
        locks.acquire("w", [("f", LockMode.X)])
        acquired = threading.Event()

        def waiter():
            locks.acquire("r", [("f", LockMode.S)])
            acquired.set()

        thread = threading.Thread(target=waiter)
        thread.start()
        assert not acquired.wait(0.05)
        locks.release_all("w")
        assert acquired.wait(2.0)
        thread.join()

    def test_release_all_forgets_owner(self):
        locks = LockManager()
        locks.acquire("a", [("f", LockMode.X), ("g", LockMode.S)])
        locks.release_all("a")
        assert locks.held_by("a") == {}
        locks.acquire("b", [("f", LockMode.X)])  # free again

    def test_stats_count_waits_and_timeouts(self):
        locks = LockManager(timeout=0.05)
        locks.acquire("w", [("f", LockMode.X)])
        with pytest.raises(LockTimeout):
            locks.acquire("r", [("f", LockMode.S)])
        stats = locks.stats()
        assert stats["timeouts"] == 1
        assert stats["acquired"] >= 1

    def test_symmetric_upgrade_deadlock_fails_fast(self):
        # Both sessions read f, then both want to write it: under 2PL
        # neither can release its S lock, so the second upgrader must
        # fail immediately rather than stalling for the full timeout.
        locks = LockManager(timeout=30.0)
        locks.acquire("a", [("f", LockMode.S)])
        locks.acquire("b", [("f", LockMode.S)])
        upgraded = threading.Event()

        def upgrader():
            locks.acquire("a", [("f", LockMode.X)])
            upgraded.set()

        thread = threading.Thread(target=upgrader)
        thread.start()
        deadline = time.monotonic() + 5.0
        while "f" not in locks._upgrade_waiters:  # a is parked upgrading
            assert time.monotonic() < deadline
            time.sleep(0.005)
        start = time.monotonic()
        with pytest.raises(LockTimeout, match="upgrad"):
            locks.acquire("b", [("f", LockMode.X)])
        assert time.monotonic() - start < 5.0  # not the 30s deadline
        assert locks.stats()["upgrade_deadlocks"] == 1
        # The loser aborts (releasing its locks); the survivor upgrades.
        locks.release_all("b")
        assert upgraded.wait(5.0)
        thread.join()
        assert locks.held_by("a")["f"] is LockMode.X
        locks.release_all("a")


class TestDeadlockDetection:
    def _park(self, locks, owner: str, resource: str) -> None:
        """Spin until *owner* is parked waiting (its wait info recorded)."""
        deadline = time.monotonic() + 5.0
        while True:
            with locks._cv:
                info = locks._waiting.get(owner)
            if info is not None and info[0] == resource:
                return
            assert time.monotonic() < deadline, f"{owner} never parked"
            time.sleep(0.005)

    def test_cross_cycle_aborts_youngest(self):
        # a holds f and waits for g; b holds g and wants f — a cycle no
        # release can break under 2PL.  b locked most recently, so b is
        # the victim and raises immediately; the timeout (30s) is never
        # the mechanism.
        from repro.errors import DeadlockDetected

        locks = LockManager(timeout=30.0)
        locks.acquire("a", [("f", LockMode.X)])
        locks.acquire("b", [("g", LockMode.X)])
        survivor_done = threading.Event()

        def survivor():
            locks.acquire("a", [("g", LockMode.X)])
            survivor_done.set()

        thread = threading.Thread(target=survivor)
        thread.start()
        self._park(locks, "a", "g")
        start = time.monotonic()
        with pytest.raises(DeadlockDetected, match="victim"):
            locks.acquire("b", [("f", LockMode.X)])
        assert time.monotonic() - start < 5.0  # detected, not timed out
        assert locks.stats()["deadlocks"] == 1
        # The victim aborts: its release unblocks the survivor.
        locks.release_all("b")
        assert survivor_done.wait(5.0)
        thread.join()
        assert locks.held_by("a")["g"] is LockMode.X
        locks.release_all("a")

    def test_parked_victim_is_woken_and_aborted(self):
        # When the *closing* request belongs to the elder, the detector
        # must reach across and abort the younger owner that is already
        # parked — it wakes and raises instead of the elder failing.
        from repro.errors import DeadlockDetected

        locks = LockManager(timeout=30.0)
        locks.acquire("elder", [("f", LockMode.X)])
        locks.acquire("younger", [("g", LockMode.X)])
        failures: list = []

        def younger():
            try:
                locks.acquire("younger", [("f", LockMode.X)])
            except DeadlockDetected as exc:
                failures.append(exc)
                locks.release_all("younger")  # what the kernel's abort does

        thread = threading.Thread(target=younger)
        thread.start()
        self._park(locks, "younger", "f")
        # Elder closes the cycle and must NOT be chosen: it acquires g
        # as soon as the younger victim aborts and releases.
        locks.acquire("elder", [("g", LockMode.X)])
        thread.join(5.0)
        assert not thread.is_alive()
        assert len(failures) == 1
        assert locks.stats()["deadlocks"] == 1
        locks.release_all("elder")

    def test_deadlock_is_a_lock_timeout_subclass(self):
        # Every existing abort-and-retry loop catches LockTimeout; the
        # detector's error must flow through those handlers unchanged.
        from repro.errors import DeadlockDetected

        assert issubclass(DeadlockDetected, LockTimeout)

    def test_deadlock_metric_exported_when_bound(self):
        from repro.errors import DeadlockDetected
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        locks = LockManager(timeout=30.0)
        locks.bind_metrics(registry)
        locks.acquire("a", [("f", LockMode.X)])
        locks.acquire("b", [("g", LockMode.X)])
        thread = threading.Thread(
            target=lambda: locks.acquire("a", [("g", LockMode.X)])
        )
        thread.start()
        self._park(locks, "a", "g")
        with pytest.raises(DeadlockDetected):
            locks.acquire("b", [("f", LockMode.X)])
        locks.release_all("b")
        thread.join(5.0)
        assert registry.counter_value("lock.deadlocks") == 1
        locks.release_all("a")


class TestFairQueueing:
    def test_readers_cannot_starve_a_parked_writer(self):
        # Reader preference is the classic pathology: S is compatible
        # with S, so with naive grants a steady read stream holds the
        # resource forever and a parked X writer waits unboundedly.
        # Fair queueing bars the late reader until the writer is done.
        locks = LockManager(timeout=30.0)
        locks.acquire("r1", [("f", LockMode.S)])
        order: list[str] = []

        def writer():
            locks.acquire("w", [("f", LockMode.X)])
            order.append("w")
            locks.release_all("w")

        def late_reader():
            locks.acquire("r2", [("f", LockMode.S)])
            order.append("r2")
            locks.release_all("r2")

        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        deadline = time.monotonic() + 5.0
        while True:  # wait until w is queued on f
            with locks._cv:
                queued = any(o == "w" for _, o, _ in locks._queue.get("f", ()))
            if queued:
                break
            assert time.monotonic() < deadline
            time.sleep(0.005)
        reader_thread = threading.Thread(target=late_reader)
        reader_thread.start()
        time.sleep(0.05)
        assert order == []  # r2 yields to the queued writer
        locks.release_all("r1")
        writer_thread.join(5.0)
        reader_thread.join(5.0)
        assert order == ["w", "r2"]

    def test_upgrade_jumps_the_queue(self):
        # The S holder upgrading to X must not queue behind a stranger's
        # fresh X request — the stranger cannot be granted before the
        # holder releases anyway, so queueing the upgrade would deadlock.
        locks = LockManager(timeout=30.0)
        locks.acquire("a", [("f", LockMode.S)])
        granted = threading.Event()

        def stranger():
            locks.acquire("b", [("f", LockMode.X)])
            granted.set()
            locks.release_all("b")

        thread = threading.Thread(target=stranger)
        thread.start()
        deadline = time.monotonic() + 5.0
        while True:
            with locks._cv:
                queued = any(o == "b" for _, o, _ in locks._queue.get("f", ()))
            if queued:
                break
            assert time.monotonic() < deadline
            time.sleep(0.005)
        locks.acquire("a", [("f", LockMode.X)])  # upgrade, immediately
        assert locks.held_by("a")["f"] is LockMode.X
        locks.release_all("a")
        assert granted.wait(5.0)
        thread.join()

    def test_wait_histograms_record_mode_and_duration(self):
        locks = LockManager(timeout=5.0)
        locks.acquire("w", [("f", LockMode.X)])
        done = threading.Event()

        def reader():
            locks.acquire("r", [("f", LockMode.S)])
            done.set()

        thread = threading.Thread(target=reader)
        thread.start()
        time.sleep(0.05)
        locks.release_all("w")
        assert done.wait(5.0)
        thread.join()
        hists = locks.wait_histograms()
        assert set(hists) == {"S"}
        assert hists["S"]["count"] == 1
        assert hists["S"]["sum"] >= 40.0  # held ~50ms before release
