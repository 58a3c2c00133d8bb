"""Record placement across MBDS backends.

MBDS spreads each file across all backends so that every broadcast request
parallelizes.  The default policy is per-file round-robin: record *i* of a
file lands on backend ``i mod n``, which keeps slices balanced regardless
of the file mix.  A least-loaded policy is provided as an alternative for
skewed insert streams, and :class:`HashShardPlacement` trades broadcast
parallelism for *routing*: deterministic hash placement lets the
controller send a single-file request to exactly the backends that can
hold matches.

Beyond the mandatory :meth:`~PlacementPolicy.place`, policies may opt
into any of three hooks the controller and recovery path discover with
``getattr``:

* ``route(request, backend_count) -> set[int] | None`` — narrow a
  retrieval/mutation to a backend subset (``None`` = broadcast).  A
  routing policy must be conservative: every backend that *could* hold a
  matching record must be in the returned set.
* ``observe_mutation(request)`` — called before a mutating broadcast so
  the policy can update routing metadata (e.g. UPDATEs that rewrite a
  shard-key attribute disable value routing for the touched files).
* ``observe_replay(request, backend_id, backend_count)`` — called once
  per (replayed op, backend) during WAL recovery so counters and shard
  metadata are rebuilt exactly as the original run left them.
* ``rebalance(distribution)`` — called after bulk operations that bypass
  ``place`` (``drop_database``, snapshot restore) with the actual
  per-backend record counts.
"""

from __future__ import annotations

import math
import zlib
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Protocol, Sequence

from repro.abdm.record import Record

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.abdl.ast import Request


class PlacementPolicy(Protocol):
    """Chooses the backend that receives a newly inserted record."""

    def place(self, record: Record, backend_count: int) -> int:
        """Return the backend index for *record*."""
        ...  # pragma: no cover


class RoundRobinPlacement:
    """Per-file round-robin placement (the default MBDS data placement)."""

    def __init__(self) -> None:
        self._counters: dict[str, int] = {}

    def place(self, record: Record, backend_count: int) -> int:
        file_name = record.file_name or ""
        count = self._counters.get(file_name, 0)
        self._counters[file_name] = count + 1
        return count % backend_count

    def observe_replay(
        self, request: "Request", backend_id: int, backend_count: int
    ) -> None:
        # Replayed INSERTs carry pre-placed targets, so ``place`` never
        # runs during recovery; advance the counter it would have used.
        if request.operation == "INSERT":
            file_name = request.record.file_name or ""
            self._counters[file_name] = self._counters.get(file_name, 0) + 1
        elif request.operation == "BULK-INSERT":
            for record in request.records:
                file_name = record.file_name or ""
                self._counters[file_name] = self._counters.get(file_name, 0) + 1

    def observe_abort(
        self, file_name: Optional[str], backend_id: int, count: int
    ) -> None:
        # A session transaction's INSERTs were rolled back: rewind the
        # counter their ``place`` calls advanced, so future placement
        # matches a history in which the transaction never ran.  Safe
        # because the aborting session held the file's exclusive lock
        # from place to abort — no other session's placement interleaved
        # on this file.
        key = file_name or ""
        remaining = self._counters.get(key, 0) - count
        if remaining > 0:
            self._counters[key] = remaining
        else:
            self._counters.pop(key, None)  # as if the file was never placed


class FileAffinityPlacement:
    """Places each *file* wholly on one backend (hash of the file name).

    This is the anti-pattern MBDS's data placement avoids: a request over
    one file is served by a single backend, so broadcast parallelism buys
    nothing.  Provided for the placement ablation benchmark, which shows
    why MBDS spreads every file across all backends.
    """

    def place(self, record: Record, backend_count: int) -> int:
        file_name = record.file_name or ""
        return sum(file_name.encode()) % backend_count


class LeastLoadedPlacement:
    """Sends each record to the backend currently holding the fewest records."""

    def __init__(self, loads: Sequence[int] | None = None) -> None:
        self._loads: list[int] = list(loads) if loads else []

    def place(self, record: Record, backend_count: int) -> int:
        self._pad(backend_count)
        index = min(range(backend_count), key=lambda i: self._loads[i])
        self._loads[index] += 1
        return index

    def observe_replay(
        self, request: "Request", backend_id: int, backend_count: int
    ) -> None:
        if request.operation == "INSERT":
            self._pad(backend_count)
            self._loads[backend_id] += 1
        elif request.operation == "BULK-INSERT":
            self._pad(backend_count)
            self._loads[backend_id] += len(request.records)

    def observe_abort(
        self, file_name: Optional[str], backend_id: int, count: int
    ) -> None:
        if backend_id < len(self._loads):
            self._loads[backend_id] = max(self._loads[backend_id] - count, 0)

    def rebalance(self, distribution: Sequence[int]) -> None:
        """Reset load counts to the actual per-backend record counts.

        Without this, bulk deletions (``drop_database``) and snapshot
        restores leave the counters describing a farm that no longer
        exists, and subsequent placement skews toward whichever backends
        the stale counts flattered least.
        """
        self._loads = list(distribution)

    def _pad(self, backend_count: int) -> None:
        while len(self._loads) < backend_count:
            self._loads.append(0)


def _canonical_value(value: object) -> Optional[str]:
    """A hash token under which ``3`` and ``3.0`` shard identically.

    Returns ``None`` for values no equality predicate can name
    (``None``/NaN) — records carrying them fall back to file-shard
    placement and equality routing never claims to cover them.
    """
    if value is None:
        return None
    if isinstance(value, float):
        if math.isnan(value):
            return None
        if value.is_integer():
            return str(int(value))
        return "n:" + repr(value)
    if isinstance(value, (int, bool)):
        return str(int(value))
    return "s:" + str(value)


def _crc_shard(token: str, backend_count: int) -> int:
    # zlib.crc32 rather than hash(): str hashing is salted per process,
    # and shard assignment must be stable across runs and recoveries.
    return zlib.crc32(token.encode("utf-8")) % backend_count


class HashShardPlacement:
    """Deterministic file-keyed sharding that enables request routing.

    Every record of a file hashes to one backend (``crc32(file) % n``),
    so any request naming that file routes to a single backend instead
    of broadcasting.  Optionally, *key_attributes* maps file names to
    one attribute each: records of those files shard by the key's
    *value* (``crc32(file + value) % n``), spreading the file across
    backends while keeping equality predicates on the key routable to
    exactly one.

    Value sharding is self-healing in the face of UPDATEs: rewriting a
    record's key attribute would strand it on a shard its new value
    doesn't hash to, so :meth:`observe_mutation` permanently *taints*
    value routing for any file whose key attribute an UPDATE modifies
    (placement and file-level routing still work; only value-equality
    narrowing is given up).  Taints are rebuilt on WAL replay and carried
    through snapshots, so routing never returns a backend set that could
    miss a record.
    """

    def __init__(
        self,
        key_attributes: Optional[Mapping[str, str]] = None,
        tainted: Optional[Iterable[str]] = None,
    ) -> None:
        self.key_attributes: dict[str, str] = dict(key_attributes or {})
        self._tainted: set[str] = set(tainted or ())

    # -- state (persisted by snapshots) ----------------------------------------

    @property
    def tainted_files(self) -> frozenset[str]:
        return frozenset(self._tainted)

    def _value_token(self, file_name: str, record: Record) -> Optional[str]:
        key = self.key_attributes.get(file_name)
        if key is None or file_name in self._tainted:
            return None
        token = _canonical_value(record.get(key))
        if token is None:
            return None
        return file_name + "\x00" + token

    # -- placement -------------------------------------------------------------

    def place(self, record: Record, backend_count: int) -> int:
        file_name = record.file_name or ""
        token = self._value_token(file_name, record)
        if token is not None:
            return _crc_shard(token, backend_count)
        return _crc_shard(file_name, backend_count)

    # -- routing ---------------------------------------------------------------

    def route(
        self, request: "Request", backend_count: int
    ) -> Optional[set[int]]:
        """Backends that can hold matches for *request* (None = broadcast)."""
        query = getattr(request, "query", None)
        if query is None:
            return None
        targets = self._route_query(query, backend_count)
        if targets is not None and len(targets) >= backend_count:
            return None
        return targets

    def _route_query(self, query: object, backend_count: int) -> Optional[set[int]]:
        clauses = getattr(query, "clauses", None)
        if clauses is None:
            return None
        targets: set[int] = set()
        for conjunction in clauses:
            pinned = conjunction.file_names()
            if not pinned:
                return None  # clause leaves the file open: any backend
            for file_name in pinned:
                targets |= self._route_file(file_name, conjunction, backend_count)
                if len(targets) >= backend_count:
                    return None
        return targets

    def _route_file(
        self, file_name: str, conjunction: object, backend_count: int
    ) -> set[int]:
        key = self.key_attributes.get(file_name)
        if key is None:
            return {_crc_shard(file_name, backend_count)}
        if file_name in self._tainted:
            # Pre-taint records were placed on value shards, post-taint
            # ones on the file shard: the file is scattered, broadcast.
            return set(range(backend_count))
        # Value-sharded file: an equality predicate on the key pins one
        # value shard.  Records whose key value is None/NaN fell back to
        # the file shard, but equality predicates can never name those
        # values, so the value shard alone is complete for the clause.
        # Anything else (ranges, no key predicate) could match records
        # under any key value — every shard is reachable.
        for predicate in conjunction:  # type: ignore[attr-defined]
            if predicate.attribute != key or predicate.operator != "=":
                continue
            token = _canonical_value(predicate.value)
            if token is not None:
                return {_crc_shard(file_name + "\x00" + token, backend_count)}
        return set(range(backend_count))

    # -- mutation / replay bookkeeping -----------------------------------------

    def observe_mutation(self, request: "Request") -> None:
        if request.operation != "UPDATE":
            return
        modified = getattr(request.modifier, "attribute", None)
        if modified is None:
            return
        victims = [
            file_name
            for file_name, key in self.key_attributes.items()
            if key == modified and file_name not in self._tainted
        ]
        if not victims:
            return
        # If every conjunction pins FILE, only the named files are at
        # risk; an unpinned UPDATE could touch records of any file.
        query = getattr(request, "query", None)
        named = getattr(query, "file_names", lambda: frozenset())() if query else frozenset()
        if named:
            self._tainted.update(f for f in victims if f in named)
        else:
            self._tainted.update(victims)

    def observe_replay(
        self, request: "Request", backend_id: int, backend_count: int
    ) -> None:
        # Taints are a pure function of the UPDATE stream; replaying the
        # same ops (possibly once per backend) reconstructs them exactly.
        self.observe_mutation(request)
