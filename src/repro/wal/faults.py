"""Deterministic fault injection for the durability subsystem.

Crash-recovery code is only trustworthy if every interesting interleaving
of "journal, apply, commit, checkpoint" has been killed and recovered in
a test.  A :class:`FaultInjector` is a registry of armed
:class:`CrashPoint`\\ s; the WAL and the backend controller call
:meth:`FaultInjector.fire` at each point, and an armed point raises
:class:`InjectedCrash` — the moral equivalent of pulling the plug.

:class:`InjectedCrash` deliberately does **not** derive from
:class:`~repro.errors.MLDSError`: a crash must never be swallowed by the
ordinary per-statement error handling (the shell, session loops, and the
KDS transaction context all catch ``MLDSError``).  After an injected
crash the in-memory system is considered dead; tests recover a fresh one
from disk with :func:`repro.wal.recovery.recover_mlds` and compare.

Arming is count-based (``arm(point, hits=2)`` crashes on the second
firing), so tests can kill a transaction between two of its journal
appends — between the shards of a bulk batch, say — which a single
boolean flag cannot reach.

Records are flushed to the OS as appended and fsynced only by
``commit``: "appended" below means *flushed* (what a killed process
leaves behind), "durable" that the commit's fsync covered it.  An
injected crash is the killed process; ``tests/wal/test_power_loss.py``
adds the power cut, which also takes flushed bytes past the last sync.
"""

from __future__ import annotations

import enum


class CrashPoint(enum.Enum):
    """Where the durability path can be killed (see module docstring)."""

    #: Immediately before an op record is appended to the stream.
    BEFORE_LOG_APPEND = "before-log-append"
    #: Immediately after an op record is appended (journaled, not applied).
    AFTER_LOG_APPEND = "after-log-append"
    #: After every op of the request is journaled, before any backend applies.
    BEFORE_APPLY = "before-apply"
    #: After every backend applied, before the commit record is written.
    AFTER_APPLY = "after-apply"
    #: Inside commit, before the commit record is appended.
    BEFORE_COMMIT = "before-commit"
    #: After the commit record is appended and synced — durable, with the
    #: transaction's ops before it (the transaction is committed).
    AFTER_COMMIT = "after-commit"
    #: Immediately before a bulk (batched-insert) record is appended.
    BEFORE_BULK_APPEND = "before-bulk-append"
    #: Immediately after a bulk record is appended (journaled, not applied).
    AFTER_BULK_APPEND = "after-bulk-append"
    #: Inside group commit, after commit records are staged, before the
    #: leader appends them (none of the group's commits reached the file).
    BEFORE_GROUP_FSYNC = "before-group-fsync"
    #: After the group's shared append+fsync (every staged commit durable).
    AFTER_GROUP_FSYNC = "after-group-fsync"
    #: After the commit record is durable, before the kernel seals the
    #: stores' version chains at the new commit seq (MVCC bookkeeping
    #: pending, transaction already committed).
    BEFORE_VERSION_SEAL = "before-version-seal"
    #: After the version chains are sealed and trimmed (GC ran), before
    #: the commit seq is published as the stable snapshot watermark.
    AFTER_VERSION_SEAL = "after-version-seal"
    #: At checkpoint start, before the snapshot is written.
    BEFORE_CHECKPOINT = "before-checkpoint"
    #: After the snapshot is durable, before the old log segments are dropped.
    AFTER_CHECKPOINT_SNAPSHOT = "after-checkpoint-snapshot"
    #: After the checkpoint fully finished (snapshot durable, logs truncated).
    AFTER_CHECKPOINT = "after-checkpoint"


#: The crash points exercised by the crash-matrix test suite, in
#: durability-path order.  Kept here so the tests and the docs cannot
#: drift from the enum.
CRASH_MATRIX: tuple[CrashPoint, ...] = tuple(CrashPoint)


class InjectedCrash(Exception):
    """The simulated machine died at *point*.  Not an :class:`MLDSError`."""

    def __init__(self, point: CrashPoint) -> None:
        self.point = point
        super().__init__(f"injected crash at {point.value}")


class FaultInjector:
    """Count-based crash-point registry (one per :class:`WalManager`)."""

    def __init__(self) -> None:
        self._armed: dict[CrashPoint, int] = {}
        #: Every point fired so far, armed or not (for harness assertions).
        self.fired: list[CrashPoint] = []

    def arm(self, point: CrashPoint, hits: int = 1) -> None:
        """Crash on the *hits*-th firing of *point* (default: the first)."""
        if hits < 1:
            raise ValueError("hits must be >= 1")
        self._armed[point] = hits

    def disarm(self, point: CrashPoint) -> None:
        self._armed.pop(point, None)

    def reset(self) -> None:
        self._armed.clear()
        self.fired.clear()

    def fire(self, point: CrashPoint) -> None:
        """Record the firing; raise :class:`InjectedCrash` when armed."""
        self.fired.append(point)
        remaining = self._armed.get(point)
        if remaining is None:
            return
        if remaining <= 1:
            del self._armed[point]
            raise InjectedCrash(point)
        self._armed[point] = remaining - 1
