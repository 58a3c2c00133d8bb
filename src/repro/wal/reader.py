"""Read side of the WAL: parse the commit stream into a replayable view.

The reader is deliberately independent of :class:`~repro.wal.log.WalManager`
— recovery runs against whatever files a crash left behind, so it works
directly from the directory contents:

* the metadata must name the format this reader parses; a directory in
  any other format is refused, never guessed at;
* every surviving segment of the stream is read, oldest first (stale
  segments a checkpoint did not manage to delete are harmless — replay
  filters by the snapshot watermark);
* a record is whole once its newline is on disk.  Only the **tail of the
  newest segment** may lack one (the crash, or a power cut before the
  next sync, hit mid-``write``); that half-line is dropped and its
  offset reported, so the write side can cut it off before appending.
  An undecodable or malformed line anywhere is corruption and raises
  :class:`~repro.errors.WalError`, as does a non-monotonic sequence
  number;
* a transaction is **committed** only if its commit record survives.
  Ops belonging to uncommitted, aborted, or unknown transactions are
  retained in the view (the write side needs their ids to resume) but
  excluded from ``committed``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro.errors import WalError
from repro.wal.log import META_NAME, WAL_FORMAT

_SEGMENT_PATTERN = re.compile(r"^wal-(\d{6})\.jsonl$")


@dataclass
class WalOp:
    """One journaled operation, as one backend is to replay it."""

    seq: int
    txn: int
    payload: dict


@dataclass
class WalTransaction:
    """One transaction as reconstructed from the stream."""

    txn: int
    status: str = "open"  # 'open' | 'committed' | 'aborted'
    counts: Optional[list[int]] = None
    #: backend id -> ops journaled for it, in sequence order.  A record
    #: naming several backends appears under each of them.
    ops: dict[int, list[WalOp]] = field(default_factory=dict)
    #: Owning session name, from the commit or abort record ("" while
    #: the transaction is open).
    owner: str = ""


@dataclass
class WalView:
    """Everything recovery (and write-side resume) needs from the stream."""

    transactions: dict[int, WalTransaction]
    #: Committed transactions in commit order (the replay order).
    committed: list[WalTransaction]
    max_txn: int
    last_committed_txn: int
    #: Highest sequence number seen.
    max_seq: int
    #: (newest segment, byte length of its whole records) when that
    #: segment ends in a torn half-line; None when it ends cleanly.
    torn_tail: Optional[tuple[Path, int]]


def read_meta(directory: Union[str, Path]) -> dict:
    """The WAL directory's metadata; refuses any format but this one."""
    meta_path = Path(directory) / META_NAME
    if not meta_path.exists():
        raise WalError(f"{directory} is not a WAL directory (no {META_NAME})")
    meta = json.loads(meta_path.read_text())
    if meta.get("format") != WAL_FORMAT:
        raise WalError(
            f"WAL format {meta.get('format')!r} is not supported "
            f"(this reader parses format {WAL_FORMAT} only)"
        )
    return meta


def read_backend_count(directory: Union[str, Path]) -> int:
    """The backend count recorded in the WAL directory's metadata."""
    return int(read_meta(directory)["backend_count"])


def read_wal(directory: Union[str, Path], backend_count: Optional[int] = None) -> WalView:
    """Parse every surviving segment in *directory* into a :class:`WalView`."""
    directory = Path(directory)
    meta = read_meta(directory)  # before any segment: a foreign format has none
    if backend_count is None:
        backend_count = int(meta["backend_count"])
    segments = sorted(
        path for path in directory.iterdir() if _SEGMENT_PATTERN.match(path.name)
    )

    transactions: dict[int, WalTransaction] = {}
    committed: list[WalTransaction] = []
    max_txn = 0
    last_committed = 0
    last_seq = 0
    torn_tail: Optional[tuple[Path, int]] = None
    for path in segments:
        data = path.read_bytes()
        *lines, tail = data.split(b"\n")
        if tail:
            if path != segments[-1]:
                raise WalError(f"unterminated record in stale segment {path.name}")
            torn_tail = (path, len(data) - len(tail))
        for line in lines:
            try:
                record = json.loads(line)
                seq = int(record["seq"])
                txn_id = int(record["txn"])
                kind = "op" if "op" in record else record["type"]
                backends = [int(b) for b in record["backends"]] if kind == "op" else []
            except (ValueError, KeyError, TypeError) as exc:
                raise WalError(f"corrupt record in {path.name}: {line!r}") from exc
            if seq <= last_seq:
                raise WalError(
                    f"non-monotonic sequence in {path.name}: {seq} after {last_seq}"
                )
            last_seq = seq
            max_txn = max(max_txn, txn_id)
            transaction = transactions.setdefault(txn_id, WalTransaction(txn_id))
            if kind == "op":
                if not backends or not all(0 <= b < backend_count for b in backends):
                    raise WalError(
                        f"op record {seq} names backends {backends}, "
                        f"but the farm has {backend_count}"
                    )
                op = WalOp(seq, txn_id, record["op"])
                for backend_id in backends:
                    transaction.ops.setdefault(backend_id, []).append(op)
                continue
            if kind not in ("commit", "abort"):
                raise WalError(f"unknown record type {kind!r} in {path.name}")
            if record.get("owner") is None:
                raise WalError(f"{kind} record of transaction {txn_id} has no owner")
            transaction.owner = str(record["owner"])
            if kind == "abort":
                transaction.status = "aborted"
                continue
            transaction.status = "committed"
            # Only the kernel's own session commits with counts (concurrent
            # commits cannot know the farm-wide distribution); keep None so
            # the recovery checksum knows not to verify.
            counts = record.get("counts")
            transaction.counts = None if counts is None else list(counts)
            committed.append(transaction)
            # Session-owned transactions can commit out of id order; the
            # watermark is the *highest* committed id (checkpoints only run
            # with no transactions open, so every id at or below it is then
            # committed or aborted).
            last_committed = max(last_committed, txn_id)

    return WalView(
        transactions=transactions,
        committed=committed,
        max_txn=max_txn,
        last_committed_txn=last_committed,
        max_seq=last_seq,
        torn_tail=torn_tail,
    )
