"""Record placement across MBDS backends.

MBDS spreads each file across all backends so that every broadcast request
parallelizes.  The policy is per-file round-robin: record *i* of a file
lands on backend ``i mod n``, which keeps slices balanced regardless of
the file mix.  Every request except an INSERT reaches every backend, so
placement decides where new records go, never which backends a request
reaches.

Besides :meth:`~RoundRobinPlacement.place`, the kernel keeps the counters
equal to the history the durable state describes:

* :meth:`~RoundRobinPlacement.observe_replay` — called once per
  (replayed op, backend) during WAL recovery, because replayed INSERTs
  carry their pre-placed backend and never call ``place``;
* :meth:`~RoundRobinPlacement.observe_abort` — called when a session
  transaction's INSERTs roll back;
* :meth:`~RoundRobinPlacement.snapshot_state` /
  :meth:`~RoundRobinPlacement.restore_state` — the counters' section of
  a snapshot (see :mod:`repro.persistence`).

A paper harness that needs another layout (the placement ablation, the
range-index benchmark) subclasses :class:`RoundRobinPlacement` and
overrides ``place``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping, Optional

from repro.abdm.record import Record

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.abdl.ast import Request


class RoundRobinPlacement:
    """Per-file round-robin placement (the MBDS data placement)."""

    def __init__(self) -> None:
        self._counters: dict[str, int] = {}

    def place(self, record: Record, backend_count: int) -> int:
        """Return the backend index for *record*."""
        file_name = record.file_name or ""
        count = self._counters.get(file_name, 0)
        self._counters[file_name] = count + 1
        return count % backend_count

    def observe_replay(self, request: "Request") -> None:
        """Advance the counter ``place`` would have used for a replayed op."""
        if request.operation == "INSERT":
            records = [request.record]
        elif request.operation == "BULK-INSERT":
            records = request.records
        else:
            return
        for record in records:
            file_name = record.file_name or ""
            self._counters[file_name] = self._counters.get(file_name, 0) + 1

    def observe_abort(self, file_name: Optional[str], count: int) -> None:
        """Rewind the counter *count* rolled-back INSERTs advanced.

        Future placement then matches a history in which the transaction
        never ran.  Safe because the aborting session held the file's
        exclusive lock from place to abort — no other session's
        placement interleaved on this file.
        """
        key = file_name or ""
        remaining = self._counters.get(key, 0) - count
        if remaining > 0:
            self._counters[key] = remaining
        else:
            self._counters.pop(key, None)  # as if the file was never placed

    def snapshot_state(self) -> dict[str, Any]:
        """This policy's ``placement`` section of a snapshot."""
        return {"kind": "round_robin", "counters": dict(self._counters)}

    def restore_state(self, state: Optional[Mapping[str, Any]]) -> None:
        """Reset the counters to a snapshot's ``placement`` section.

        A section of any other kind (older snapshots may name
        ``hash_shard`` or ``least_loaded``) or none at all leaves them
        empty: a broadcast finds every record wherever it was placed, so
        only where the next INSERTs go depends on the counters.
        """
        self._counters.clear()
        if state and state.get("kind") == "round_robin":
            self._counters.update(state["counters"])
