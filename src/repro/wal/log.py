"""The write-ahead log: one append-only JSONL commit stream.

Layout of a WAL directory (one per MLDS instance)::

    wal-meta.json          {"format": 2, "backend_count": N, "segment": s,
                            "next_txn": t}
    wal-000000.jsonl       the stream's current segment
    checkpoint.mlds.json   last snapshot (written by checkpoint_mlds)

The stream holds three kinds of record, one JSON line each, under one
monotonic sequence number:

* **op** ``{"seq","txn","backends":[...],"op":{...}}`` — a mutating
  kernel request (INSERT / BULK-INSERT / DELETE / UPDATE), journaled
  **before** any backend applies it and written *once*, naming every
  backend that applies it.  (A BULK-INSERT is one record per shard: each
  backend's payload differs.)
* **commit** ``{"seq","type","txn","owner"[,"counts"]}`` — the atomic
  commit point for the whole farm (the controller is MBDS's single
  master).  Commits of the kernel's own session carry the per-backend
  record counts observed after the transaction applied; recovery
  re-checks them after replay, so a lost op or a non-deterministic
  replay is detected, not silently turned into a different database.
* **abort** ``{"seq","type","txn","owner"}`` — discard the txn's ops.

There is no begin record: a transaction *is* its op records plus one
commit, and one that journaled nothing leaves nothing in the stream.

**Flushed vs synced.**  Every record is flushed to the operating system
as it is appended, so a killed process loses nothing.  ``fsync``
(``sync=True`` WALs only) happens in one place: in ``commit``, after the
commit record is appended (group commit: the leader's shared flush).
That suffices because the system is redo-only and no-steal — an op
matters only if its commit record exists, so it need only be durable
*before* that record, and one sync of the one file makes the ops and
then the commit durable in order.  A power cut can only shorten the
unsynced tail, which loses whole unacknowledged transactions; an abort
need never be durable.

Checkpoints (see :mod:`repro.wal.recovery`) write a snapshot and then
call :meth:`WalManager.start_new_segment`, which bumps the segment
number, records the transaction-id floor in the metadata (an emptied
log cannot show which ids are taken) and drops the old segments.
Recovery never needs the truncation to have happened: replay skips
transactions at or below the snapshot's watermark.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import IO, Optional, Sequence, Union

from repro.abdl.ast import BulkInsertRequest, Request
from repro.errors import WalError
from repro.obs import NULL_OBS
from repro.wal.codec import encode_request, is_mutating
from repro.wal.faults import CrashPoint, FaultInjector

#: Metadata file kept at the root of every WAL directory.
META_NAME = "wal-meta.json"
#: Snapshot written by :func:`repro.wal.recovery.checkpoint_mlds`.
CHECKPOINT_NAME = "checkpoint.mlds.json"
#: On-disk WAL format version (independent of the snapshot format).
WAL_FORMAT = 2


def segment_name(segment: int) -> str:
    return f"wal-{segment:06d}.jsonl"


def sync_directory(directory: Path) -> None:
    """fsync *directory* itself: the names created in or renamed into it
    so far survive a power cut (a file's own fsync covers its bytes, not
    the entry that makes them reachable)."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def replace_durably(tmp: Path, target: Path, sync: bool) -> None:
    """Rename *tmp* over *target*.  With *sync* the file is synced before
    the rename and the directory after it, so on return *target* is on
    disk whole and the caller may delete what it supersedes."""
    if sync:
        with tmp.open("rb") as handle:
            os.fsync(handle.fileno())
    os.replace(tmp, target)
    if sync:
        sync_directory(target.parent)


class _StreamWriter:
    """Append-only JSONL writer for the stream's current segment."""

    def __init__(self, path: Path, sync: bool) -> None:
        self.path = path
        self.sync = sync
        self._handle: Optional[IO[bytes]] = None
        #: File offset the last fsync covered — what a power cut cannot
        #: take.  Bytes already in the file at open count as synced.
        self.synced_bytes = path.stat().st_size if path.exists() else 0
        #: Whether this writer has synced the segment's directory entry.
        #: The first append may be what creates the file (and a file
        #: found at open may have been created moments before a kill),
        #: so the first sync of every writer covers the directory too.
        self._entry_synced = False

    def append(self, record: dict) -> None:
        """Write *record* and flush it to the OS (never an fsync)."""
        if self._handle is None:
            self._handle = self.path.open("ab")
        # Compact separators: the default ", " / ": " padding is an eighth
        # of every journal line and carries nothing a reader parses.
        line = json.dumps(record, ensure_ascii=False, separators=(",", ":"))
        self._handle.write(line.encode("utf-8") + b"\n")
        self._handle.flush()

    def sync_now(self, obs) -> None:
        """The log's only fsync: everything appended so far, in order."""
        if not self.sync or self._handle is None:
            return
        obs.metrics.inc("wal.fsyncs")
        with obs.tracer.span("wal.fsync"):
            start = time.perf_counter()
            os.fsync(self._handle.fileno())
        obs.metrics.observe("wal.fsync_ms", (time.perf_counter() - start) * 1000.0)
        if not self._entry_synced:
            sync_directory(self.path.parent)
            obs.metrics.inc("wal.dir_fsyncs")
            self._entry_synced = True
        self.synced_bytes = self._handle.tell()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


#: Span name and crash points around a plain and a bulk op append.
_OP_APPEND = ("wal.append", CrashPoint.BEFORE_LOG_APPEND, CrashPoint.AFTER_LOG_APPEND)
_BULK_APPEND = (
    "wal.bulk_append",
    CrashPoint.BEFORE_BULK_APPEND,
    CrashPoint.AFTER_BULK_APPEND,
)


class _GroupBatch:
    """One group-commit batch: commit records staged by concurrent
    committers, written and fsynced together by the batch's leader."""

    __slots__ = ("entries", "done", "error")

    def __init__(self) -> None:
        #: (commit record sans seq, txn id) per staged committer.
        self.entries: list[tuple[dict, int]] = []
        self.done = threading.Event()
        self.error: Optional[BaseException] = None


class _GroupCommitCoordinator:
    """Batches concurrent committers into one shared flush+fsync.

    The first committer to stage into an open batch becomes its *leader*:
    it sleeps the tunable window (letting concurrent committers pile in),
    seals the batch, and writes every staged commit record — assigning
    sequence numbers at write time, so they stay monotonic against the
    op and abort records appended in between — with a single fsync at
    the end.  Followers block on the batch's event; a leader failure
    poisons the batch so every waiting committer re-raises instead of
    hanging on a commit that never became durable.
    """

    def __init__(self, window_ms: float) -> None:
        self.window = max(float(window_ms), 0.0) / 1000.0
        self._lock = threading.Lock()
        self._batch: Optional[_GroupBatch] = None

    def join(self, entry: tuple[dict, int]) -> tuple[_GroupBatch, bool]:
        """Stage *entry* into the open batch; returns (batch, is_leader)."""
        with self._lock:
            batch = self._batch
            leader = batch is None
            if batch is None:
                batch = _GroupBatch()
                self._batch = batch
            batch.entries.append(entry)
            return batch, leader

    def seal(self, batch: _GroupBatch) -> None:
        """Close *batch* to new joiners (the leader is about to write)."""
        with self._lock:
            if self._batch is batch:
                self._batch = None


class WalManager:
    """Owns one WAL directory: journaling, transactions, segments.

    Every transaction is **owned**: ``begin(owner)`` allocates a txn id
    for a kernel session, which threads it through ``log_op(..., txn)``
    / ``log_bulk(..., txn)`` and ``commit(txn)`` / ``abort(txn)``; the
    owner's name rides on the commit or abort record.  Any number may be
    open at once (one per owner), their ops interleaving freely in the
    stream; each transaction's single ``commit`` record remains its
    atomic commit point, so interleaved commits from different sessions
    stay atomic and recovery never replays an uncommitted session's
    writes.

    An internal lock serializes appends and counter updates, so many
    kernel sessions can journal concurrently.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        backend_count: int,
        injector: Optional[FaultInjector] = None,
        sync: bool = False,
        group_window_ms: Optional[float] = None,
    ) -> None:
        if backend_count < 1:
            raise WalError("a WAL needs at least one backend")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.backend_count = backend_count
        self.injector = injector or FaultInjector()
        self.sync = sync
        #: The window this manager was opened with (None: no grouping).
        self.group_window_ms = group_window_ms
        #: Group-commit coordinator, or None for the classic one-commit-
        #: one-fsync path.  ``group_window_ms=0`` enables grouping with no
        #: window wait (batching only what arrives while a flush runs).
        self._group: Optional[_GroupCommitCoordinator] = (
            _GroupCommitCoordinator(group_window_ms)
            if group_window_ms is not None
            else None
        )
        #: Observability bundle; rebound by the controller that owns this
        #: WAL so journaling spans/metrics join the system-wide trace.
        self.obs = NULL_OBS

        if (self.directory / META_NAME).exists():
            self._resume()
        else:
            self.segment = 0
            self._seq = 0
            self._next_txn = 1
            self.last_committed_txn = 0
            self._write_meta()

        self._open_writer()
        #: Every open transaction id -> its owner.
        self._open: dict[int, str] = {}
        #: Owner -> its open transaction id.
        self._owner_txn: dict[str, int] = {}
        #: Open transactions with at least one op record in the stream;
        #: only these write (and sync) a commit or abort record.
        self._journaled: set[int] = set()
        #: Serializes appends and counters across concurrent sessions.
        self._mutex = threading.RLock()

    # -- metadata / resume -----------------------------------------------------

    def _write_meta(self) -> None:
        payload = json.dumps(
            {
                "format": WAL_FORMAT,
                "backend_count": self.backend_count,
                "segment": self.segment,
                # The id floor: a truncated log no longer shows which txn
                # ids the checkpoint's snapshot already accounts for.
                "next_txn": self._next_txn,
            },
            indent=1,
        )
        tmp = self.directory / (META_NAME + ".tmp")
        tmp.write_text(payload)
        replace_durably(tmp, self.directory / META_NAME, self.sync)

    def _resume(self) -> None:
        """Continue segment/txn/seq numbering after everything on disk."""
        # local import: the reader is read-side and imports this module
        from repro.wal.reader import read_meta, read_wal

        meta = read_meta(self.directory)
        if meta["backend_count"] != self.backend_count:
            raise WalError(
                f"WAL directory was written for {meta['backend_count']} "
                f"backends, not {self.backend_count}"
            )
        self.segment = int(meta["segment"])
        view = read_wal(self.directory, self.backend_count)
        floor = int(meta["next_txn"])
        self._seq = view.max_seq
        self._next_txn = max(floor, view.max_txn + 1)
        self.last_committed_txn = max(floor - 1, view.last_committed_txn)
        if view.torn_tail is not None:
            # The crash hit mid-append.  The reader dropped the half-line;
            # cut it off, or the next record would be glued onto it.
            os.truncate(*view.torn_tail)

    def _open_writer(self) -> None:
        self._log = _StreamWriter(
            self.directory / segment_name(self.segment), self.sync
        )

    def bind_obs(self, obs) -> None:
        """Attach an observability bundle (idempotent, cheap)."""
        self.obs = obs

    @property
    def synced_bytes(self) -> int:
        """Offset in the current segment that the last fsync covered."""
        return self._log.synced_bytes

    # -- transactions ----------------------------------------------------------

    @property
    def has_open_transactions(self) -> bool:
        """Is any session's transaction still open?"""
        with self._mutex:
            return bool(self._open)

    def open_owners(self) -> list[str]:
        """Owners with a transaction currently open (sorted, for errors)."""
        with self._mutex:
            return sorted(self._owner_txn)

    def begin(self, owner: str) -> int:
        """Open *owner*'s transaction; journaled ops group under it.

        Any number of transactions may be open concurrently, one per
        owner (a kernel session name); thread the returned txn id
        through ``log_op`` / ``log_bulk`` / ``commit`` / ``abort``.
        Nothing is written: the id lives in memory until the
        transaction's first op record carries it into the stream.
        """
        with self._mutex:
            if owner in self._owner_txn:
                raise WalError(
                    f"session {owner!r} already has transaction "
                    f"{self._owner_txn[owner]} open (no nesting)"
                )
            txn = self._next_txn
            self._next_txn += 1
            self._open[txn] = owner
            self._owner_txn[owner] = txn
            return txn

    def _require_open(self, txn: int, verb: str) -> None:
        if txn not in self._open:
            raise WalError(f"transaction {txn} is not open (cannot {verb})")

    def _append(self, record: dict) -> int:
        """Append *record* under the next sequence number (mutex held)."""
        self._seq += 1
        self._log.append({"seq": self._seq, **record})
        return self._seq

    def _append_op(self, backends: Sequence[int], request: Request, txn: int) -> int:
        if not is_mutating(request):
            raise WalError("only mutating requests are journaled")
        if not backends or not all(0 <= b < self.backend_count for b in backends):
            raise WalError(f"an op needs backends of this WAL, not {list(backends)}")
        bulk = isinstance(request, BulkInsertRequest)
        span_name, before, after = _BULK_APPEND if bulk else _OP_APPEND
        obs = self.obs
        with obs.tracer.span(span_name) as span:
            start = time.perf_counter() if obs.enabled else 0.0
            with self._mutex:
                self._require_open(txn, "journal under")
                self.injector.fire(before)
                record = {"txn": txn, "backends": list(backends), "op": encode_request(request)}
                seq = self._append(record)
                self._journaled.add(txn)
                self.injector.fire(after)
            if span:
                span.record(backends=list(backends), seq=seq, txn=txn)
        if obs.enabled:
            obs.metrics.observe(
                "wal.append_ms", (time.perf_counter() - start) * 1000.0
            )
        return seq

    def log_op(self, backends: Sequence[int], request: Request, txn: int) -> int:
        """Journal *request*, once, for every backend in *backends*.

        Must be called before any backend applies the request — that is
        the "write-ahead" in write-ahead log.  One record covers them
        all, so a broadcast is torn-or-whole across its backends.
        Returns the record's sequence number in the stream.
        """
        seq = self._append_op(backends, request, txn)
        self.obs.metrics.inc("wal.ops")
        return seq

    def log_bulk(
        self, backends: Sequence[int], request: BulkInsertRequest, txn: int
    ) -> int:
        """Journal one shard of a batch of inserts as ONE WAL record.

        The whole shard is a single JSON line — one append instead of N
        — and therefore atomically torn-or-whole on crash: recovery
        either replays all of its records or none of them.  Fires the
        bulk-specific crash points so the crash matrix can kill the
        machine around exactly this append.
        """
        seq = self._append_op(backends, request, txn)
        self.obs.metrics.inc("wal.bulk_ops")
        self.obs.metrics.inc("wal.bulk_records", len(request.records))
        return seq

    def commit(self, txn: int, counts: Optional[list[int]] = None) -> None:
        """Write and sync the commit record — the atomic commit point.

        The one durability point of the log: the fsync here covers the
        transaction's op records and then its commit record, in stream
        order.  A transaction that journaled nothing writes nothing.

        *counts* are the per-backend record counts observed after the
        transaction applied; recovery re-checks them after replay.  They
        are only meaningful for a single writer — the kernel's own
        session passes them, concurrent sessions pass ``None`` (other
        sessions may be mutating the farm at the same time, so no
        per-commit count is stable) and recovery skips the checksum for
        those transactions.
        """
        obs = self.obs
        staged: Optional[tuple[dict, int]] = None
        with obs.tracer.span("wal.commit") as span:
            start = time.perf_counter() if obs.enabled else 0.0
            with self._mutex:
                self._require_open(txn, "commit")
                if counts is not None and len(counts) != self.backend_count:
                    raise WalError("commit counts must cover every backend")
                if txn not in self._journaled:
                    self._forget(txn)
                    return
                self.injector.fire(CrashPoint.BEFORE_COMMIT)
                record: dict = {"type": "commit", "txn": txn, "owner": self._open[txn]}
                if counts is not None:
                    record["counts"] = list(counts)
                if self._group is None:
                    self._append(record)
                    self._log.sync_now(self.obs)
                    if span:
                        span.record(txn=txn)
                    self._settle_committed(txn)
                else:
                    staged = (record, txn)
            if staged is not None:
                # Group commit: stage outside the mutex (waiting with it
                # held would deadlock every other session) and block until
                # the batch leader makes this commit durable.
                batch, leader = self._group.join(staged)
                if leader:
                    if self._group.window:
                        time.sleep(self._group.window)
                    self._group.seal(batch)
                    self._flush_group(batch)
                batch.done.wait()
                if batch.error is not None:
                    raise batch.error
                if span:
                    span.record(txn=txn, group_size=len(batch.entries))
        if obs.enabled:
            obs.metrics.inc("wal.commits")
            obs.metrics.observe(
                "wal.commit_ms", (time.perf_counter() - start) * 1000.0
            )

    def _settle_committed(self, txn: int) -> None:
        # Watermark semantics: the highest committed id.  Owned
        # transactions can commit out of id order, and checkpoints (which
        # require no open transactions) rely on every id <= watermark
        # being committed-or-aborted.
        self.last_committed_txn = max(self.last_committed_txn, txn)
        self._forget(txn)
        self.injector.fire(CrashPoint.AFTER_COMMIT)

    def _flush_group(self, batch: _GroupBatch) -> None:
        """Leader-side group flush: write every staged commit, sync once.

        Sequence numbers are assigned here, at write time, so they stay
        monotonic against op and abort records appended between stage
        and flush.  Any failure — including an injected crash — poisons
        the batch so every waiting follower re-raises it: after a crash
        the machine is dead for leader and followers alike.
        """
        try:
            with self._mutex:
                self.injector.fire(CrashPoint.BEFORE_GROUP_FSYNC)
                for record, _txn in batch.entries:
                    self._append(record)
                self._log.sync_now(self.obs)
                self.injector.fire(CrashPoint.AFTER_GROUP_FSYNC)
                for _record, txn in batch.entries:
                    self._settle_committed(txn)
            self.obs.metrics.inc("wal.group_commits")
            self.obs.metrics.observe("wal.group_size", float(len(batch.entries)))
        except BaseException as exc:
            batch.error = exc
            raise
        finally:
            batch.done.set()

    def abort(self, txn: int) -> None:
        """Mark an open transaction discarded (recovery will skip its ops).

        Never synced: a transaction with no commit record is discarded
        whether or not its abort record survives.
        """
        with self._mutex:
            self._require_open(txn, "abort")
            if txn in self._journaled:
                self._append({"type": "abort", "txn": txn, "owner": self._open[txn]})
            self._forget(txn)
        self.obs.metrics.inc("wal.aborts")

    def _forget(self, txn: int) -> None:
        self._journaled.discard(txn)
        del self._owner_txn[self._open.pop(txn)]

    # -- crash points ----------------------------------------------------------

    def fire(self, point: CrashPoint) -> None:
        """Fire a crash point (controller-side hooks route through here)."""
        self.injector.fire(point)

    # -- checkpoint support ----------------------------------------------------

    def checkpoint_state(self) -> dict:
        """WAL metadata embedded in a format-2 snapshot (the watermark)."""
        return {"last_txn": self.last_committed_txn, "segment": self.segment}

    def start_new_segment(self) -> None:
        """Begin a fresh segment and garbage-collect the old ones.

        Called by checkpointing after the snapshot is durable; the new
        metadata is made durable too before anything is unlinked.
        Recovery is correct whether or not the old segments survive
        (replay skips transactions at or below the snapshot watermark),
        so a crash at any point inside this method is harmless.
        """
        with self._mutex:
            if self._open:
                raise WalError("cannot truncate the WAL with a transaction open")
            self.close()
            old_segment = self.segment
            self.segment += 1
            self._write_meta()
            self._open_writer()
            for stale in range(old_segment + 1):
                (self.directory / segment_name(stale)).unlink(missing_ok=True)

    def close(self) -> None:
        """Close the file handle (the manager can keep appending afterwards)."""
        with self._mutex:
            self._log.close()

    def __repr__(self) -> str:
        return (
            f"WalManager({str(self.directory)!r}, backends={self.backend_count}, "
            f"segment={self.segment}, next_txn={self._next_txn})"
        )
