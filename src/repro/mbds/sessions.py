"""Kernel sessions: one concurrent caller of the shared KDS.

The thesis's whole point is one kernel serving many language interfaces;
a :class:`KernelSession` is the kernel-side identity of one such caller.
It is deliberately dumb — a name plus per-transaction scratch state —
because the policy lives elsewhere: the
:class:`~repro.mbds.locks.LockManager` decides who may proceed, the
:class:`~repro.wal.log.WalManager` owns durability, and
:class:`~repro.mbds.kds.KernelDatabaseSystem` orchestrates both
(``create_session`` / ``session_begin`` / ``session_commit`` /
``session_abort``).

Transaction-scoped fields:

* ``wal_txn`` — the session's open WAL transaction id (None without a
  WAL or outside a transaction).
* ``written`` — the names of the files this transaction's mutations
  pinned: its write set, at the granule the lock manager protects.  The
  pre-images themselves stay in the stores, as the pending version
  entries the first write to each file parked; commit seals exactly
  these files and abort rolls exactly these back.
* ``wrote_unpinned`` — a mutation left the file open, so it could touch
  any file (and held the global exclusive lock): commit and abort then
  settle every pending entry on the farm.
* ``placed`` — how many records this transaction's INSERTs placed in
  each file, so an abort can also rewind the round-robin counters
  (keeping future placement identical to a history in which the
  transaction never ran).  A count, not a list: a bulk batch is ten
  thousand placements.
* ``doomed`` — a mutation of this transaction was journaled and is not
  known to have applied.  Set before each mutation is dispatched and
  cleared when it returns, so a failed one leaves it set; the kernel
  refuses to write a commit record for a doomed transaction and aborts
  it instead (a commit after an op that did not apply would make
  recovery replay what the live farm never did).

``commit_seq`` outlives the transaction: the global commit order of the
session's last commit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set


@dataclass
class KernelSession:
    """One concurrent caller's kernel-side state (see module docstring)."""

    owner: str
    #: Per-session lock deadline override (None = the manager's default).
    lock_timeout: Optional[float] = None
    #: Commit records carry the farm's per-backend record counts, which
    #: recovery re-checks after replay.  Sound only for a caller that
    #: runs alone, so only the kernel's own session sets it.
    counted: bool = False
    wal_txn: Optional[int] = None
    in_transaction: bool = False
    written: Set[str] = field(default_factory=set)
    wrote_unpinned: bool = False
    placed: Dict[Optional[str], int] = field(default_factory=dict)
    doomed: bool = field(default=False, init=False)
    commit_seq: Optional[int] = field(default=None, init=False)
    #: Lifetime accounting (the server's quota bookkeeping reads these).
    requests_executed: int = 0
    commits: int = 0
    aborts: int = 0

    def end_transaction(self) -> None:
        """Drop transaction-scoped state (after commit or abort)."""
        self.wal_txn = None
        self.in_transaction = False
        self.written = set()
        self.wrote_unpinned = False
        self.placed = {}
        self.doomed = False

    def note_placed(self, file_name: Optional[str], count: int = 1) -> None:
        """Count *count* records placed in *file_name*."""
        self.placed[file_name] = self.placed.get(file_name, 0) + count

    def __repr__(self) -> str:
        state = "in txn" if self.in_transaction else "idle"
        return f"KernelSession({self.owner!r}, {state})"
