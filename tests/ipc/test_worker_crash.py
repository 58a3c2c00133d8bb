"""Dead worker processes must fail fast, typed, and named — never hang.

Before the fix, a worker dying mid-request left the controller blocked
forever on the response queue (or failing with an opaque EOF).  Now the
proxy polls the pipe while watching the process, raises
:class:`~repro.errors.WorkerCrashed` naming the backend, and the engine
shuts the whole farm down so no orphaned workers linger.
"""

from __future__ import annotations

import os
import signal
import threading

import pytest

from repro.abdl import parse_request
from repro.errors import ExecutionError, WorkerCrashed
from repro.mbds import KernelDatabaseSystem


@pytest.fixture()
def kds():
    kds = KernelDatabaseSystem(backend_count=3, engine="process")
    for i in range(6):
        kds.execute(
            parse_request(f"INSERT (<FILE, f>, <f, f${i}>, <a, {i}>)")
        )
    yield kds
    kds.shutdown()


def kill_backend(kds, backend_id):
    process = kds.controller.backends[backend_id]._process
    process.kill()
    process.join(timeout=10)


def within(seconds, call):
    """Run *call* on a thread: a hang fails the test instead of the suite."""
    outcome = {}

    def target():
        try:
            outcome["value"] = call()
        except BaseException as exc:  # re-raised on the calling thread
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still blocked after {seconds}s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def _freeze(backend):
    """SIGSTOP the worker: frames sent to it sit unread on its pipe."""
    backend.record_count()  # settle any coalesced frame first
    process = backend._process
    os.kill(process.pid, signal.SIGSTOP)
    # A frozen worker that outlived a failing test would hang teardown.
    fuse = threading.Timer(30.0, process.kill)
    fuse.daemon = True
    fuse.start()


def _kill_frozen(backend):
    backend._process.kill()  # SIGKILL also ends a SIGSTOPped process
    backend._process.join(timeout=10)


def die_after_request_frame(backends, victim_id):
    """Arm one fault: the victim dies holding an unanswered request frame.

    The victim is frozen, so its request frame is sent but never read;
    once the whole broadcast is out and every sibling's reply frame is
    already waiting on its pipe, the victim is killed.  One-shot, so a
    healed farm's retry dispatches normally.
    """
    victim, last = backends[victim_id], backends[-1]
    _freeze(victim)
    original = last.start_execute

    def start_then_kill(request, snapshot=None):
        del last.start_execute
        original(request, snapshot)
        for sibling in backends:
            if sibling is not victim:
                assert sibling._transport.poll(10.0)
        _kill_frozen(victim)

    last.start_execute = start_then_kill


def die_inside_batch_frame(backend):
    """Arm one fault: *backend* dies between send_batch and recv_batch.

    Call it first, then queue the deferred commands the batch will carry.
    """
    _freeze(backend)
    transport = backend._transport
    original = transport.send_batch

    def send_then_kill(messages):
        original(messages)
        _kill_frozen(backend)

    transport.send_batch = send_then_kill


class TestWorkerCrash:
    def test_broadcast_raises_typed_error_naming_backend(self, kds):
        kill_backend(kds, 1)
        with pytest.raises(WorkerCrashed) as exc:
            kds.execute(parse_request("RETRIEVE (FILE = f) (*)"))
        assert exc.value.backend_id == 1
        assert "backend 1" in str(exc.value)

    def test_crash_shuts_down_the_farm(self, kds):
        kill_backend(kds, 0)
        with pytest.raises(WorkerCrashed):
            kds.execute(parse_request("RETRIEVE (FILE = f) (*)"))
        # Every other worker was stopped by the engine's cleanup.
        assert all(
            not backend._process.is_alive()
            for backend in kds.controller.backends
        )

    def test_requests_after_shutdown_fail_clearly(self, kds):
        kill_backend(kds, 2)
        with pytest.raises(WorkerCrashed):
            kds.execute(parse_request("RETRIEVE (FILE = f) (*)"))
        with pytest.raises((ExecutionError, WorkerCrashed)):
            kds.execute(parse_request("RETRIEVE (FILE = f) (*)"))

    def test_routed_single_backend_request_detects_crash(self, kds):
        kill_backend(kds, 1)
        # INSERT dispatches to one placed backend; round-robin will hit
        # the dead worker within a few placements.
        with pytest.raises(WorkerCrashed):
            for i in range(6):
                kds.execute(
                    parse_request(f"INSERT (<FILE, f>, <f, x${i}>, <a, {i}>)")
                )

    def test_shutdown_is_idempotent_after_crash(self, kds):
        kill_backend(kds, 0)
        with pytest.raises(WorkerCrashed):
            kds.execute(parse_request("RETRIEVE (FILE = f) (*)"))
        kds.shutdown()
        kds.shutdown()


class TestDeathAtAFrameBoundary:
    """The worker dies with a frame in flight, not idle between requests."""

    def test_death_after_request_sent_with_sibling_replies_waiting(self, kds):
        backends = kds.controller.backends
        die_after_request_frame(backends, 1)
        with pytest.raises(WorkerCrashed) as exc:
            within(15, lambda: kds.execute(parse_request("RETRIEVE (FILE = f) (*)")))
        assert exc.value.backend_id == 1
        assert all(not backend._process.is_alive() for backend in backends)

    def test_death_between_batch_send_and_batch_reply(self, kds):
        backends = kds.controller.backends
        die_inside_batch_frame(backends[2])
        for i in range(3):  # a coalesced replay frame, still unsent
            backends[2].replay(
                parse_request(f"INSERT (<FILE, f>, <f, r${i}>, <a, {i}>)")
            )
        with pytest.raises(WorkerCrashed) as exc:
            within(15, lambda: kds.execute(parse_request("RETRIEVE (FILE = f) (*)")))
        assert exc.value.backend_id == 2
        assert all(not backend._process.is_alive() for backend in backends)
