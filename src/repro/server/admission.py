"""Admission control: bounded in-flight statements with queue shedding.

The server executes statements on connection threads; this controller caps
how many run at once (*max_inflight*) and how many may wait for a slot
(*max_queue*).  A request arriving past both bounds is shed immediately
with :class:`~repro.errors.ServerOverloaded` — a clear, fast overload
signal instead of unbounded queueing and timeout roulette.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

from repro.errors import ServerOverloaded


class AdmissionController:
    """Semaphore-bounded execution slots with a bounded wait queue."""

    def __init__(self, max_inflight: int = 8, max_queue: int = 16) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        self._slots = threading.BoundedSemaphore(max_inflight)
        self._lock = threading.Lock()
        self._inflight = 0
        self._waiting = 0
        self.admitted_total = 0
        self.shed_total = 0

    def acquire(self) -> None:
        """Take an execution slot, queueing if full; shed past the queue."""
        if self._slots.acquire(blocking=False):
            with self._lock:
                self._inflight += 1
                self.admitted_total += 1
            return
        with self._lock:
            if self._waiting >= self.max_queue:
                self.shed_total += 1
                raise ServerOverloaded(
                    f"server overloaded: {self.max_inflight} statements in "
                    f"flight and {self.max_queue} queued; retry later"
                )
            self._waiting += 1
        try:
            self._slots.acquire()
        finally:
            with self._lock:
                self._waiting -= 1
        with self._lock:
            self._inflight += 1
            self.admitted_total += 1

    def release(self) -> None:
        with self._lock:
            self._inflight -= 1
        self._slots.release()

    @contextmanager
    def admit(self) -> Iterator[None]:
        self.acquire()
        try:
            yield
        finally:
            self.release()

    def stats(self) -> dict:
        with self._lock:
            return {
                "max_inflight": self.max_inflight,
                "max_queue": self.max_queue,
                "inflight": self._inflight,
                "waiting": self._waiting,
                "admitted_total": self.admitted_total,
                "shed_total": self.shed_total,
            }
