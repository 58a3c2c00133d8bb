"""Attribute-based files and the in-memory record store.

The kernel groups records into *files* keyed by the value of the ``FILE``
keyword.  :class:`ABStore` is the primitive record container used by each
MBDS backend: it supports the four physical operations the kernel language
needs — insert, delete-by-query, update-by-query, find-by-query — and a
cost accounting hook (records examined) that feeds the MBDS timing model.

Optionally, a store maintains **attribute indexes** on chosen attributes
(``indexed_attributes`` / :meth:`ABStore.add_index`).  Each index keeps,
per file, hash buckets (value → records in insertion order) plus sorted
key arrays (:class:`~repro.abdm.plan.AttributeIndex`), so both equality
probes and ``< <= > >=`` range slices can be answered without a
whole-file scan.  A small per-clause planner
(:func:`~repro.abdm.plan.plan_conjunction`) prices every indexable
access path by exact candidate count and picks the cheapest — hash probe
over range slice over compiled full scan — intersecting further
selective paths when that shrinks the candidate set.  The (compiled)
query matcher always re-verifies the candidates, so results are
byte-identical to the unindexed scan, including record order;
``records_examined`` counts only the candidates actually inspected, so
the MBDS timing model (and the directory-ablation benchmark)
automatically reflect the index's benefit — the same accounting contract
:class:`~repro.abdm.directory.ClusteredStore` follows.

The store deliberately knows nothing about data models or languages; the
ABDL executor drives it, and MBDS partitions one logical database across
many stores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from repro.abdm.plan import (
    EMPTY_DIGEST,
    AttributeIndex,
    AttributeIndexDigest,
    plan_conjunction,
)
from repro.abdm.predicate import Query
from repro.abdm.record import Record
from repro.abdm.values import Value
from repro.errors import ExecutionError, SnapshotTooOld
from repro.obs import NULL_OBS, ObsSpec, resolve_obs
from repro.qc.compile import CompiledQuery, compile_query
from repro.qc.lru import LRUCache, MISSING
from repro.qc import runtime as qc_runtime


@dataclass
class ScanStats:
    """Accounting for one store operation, consumed by the timing model.

    *index_hits* counts (file, query) pairs a hash probe answered and
    *range_hits* those a sorted-key slice answered, instead of a full
    scan; *fallback_scans* counts the pairs where an indexed store's
    planner found no path cheaper than scanning.  The observability spans
    surface all three so access-path effectiveness is visible per
    request, not only in aggregate.
    """

    records_examined: int = 0
    records_touched: int = 0
    index_hits: int = 0
    range_hits: int = 0
    fallback_scans: int = 0

    def __iadd__(self, other: "ScanStats") -> "ScanStats":
        self.records_examined += other.records_examined
        self.records_touched += other.records_touched
        self.index_hits += other.index_hits
        self.range_hits += other.range_hits
        self.fallback_scans += other.fallback_scans
        return self

    def copy(self) -> "ScanStats":
        return ScanStats(
            self.records_examined,
            self.records_touched,
            self.index_hits,
            self.range_hits,
            self.fallback_scans,
        )


class _Version:
    """One link of a file's version chain: what one commit unit overwrote.

    *length* is the file's length when the unit first wrote it, and
    *before* maps each position below *length* that the unit overwrote
    to the committed record that stood there.  The unit's pre-image is
    the state it left (the next entry's pre-image, or the live file for
    the newest entry) with those positions put back, cut to *length*.
    That is exact under one invariant, which every write keeps (see
    :meth:`ABStore._ensure_pending`): each position below *length* whose
    record differs from the committed one is in *before*.  An INSERT
    appends, so *length* alone bounds it; an UPDATE parks the record it
    swaps; a DELETE compacts, so it parks every position from its first
    victim on.  Opening an entry is O(1), and no record list is copied.

    Records are shared, never copied — safe because stored records are
    sealed: nothing modifies a :class:`~repro.abdm.record.Record` a
    store has taken (UPDATE swaps in a sealed copy, see
    :meth:`ABStore.update`).

    *superseded_at* is the commit seq of the transaction that replaced
    this state, or None while that transaction is still pending (not yet
    committed).  A snapshot at seq ``W`` is served by the first chain
    entry with ``superseded_at > W`` (a pending entry counts as +inf:
    the pre-image of an uncommitted write *is* the committed state).
    """

    __slots__ = ("superseded_at", "length", "before")

    def __init__(
        self, superseded_at: Optional[int], length: int, before: dict[int, Record]
    ) -> None:
        self.superseded_at = superseded_at
        self.length = length
        self.before = before

    def __repr__(self) -> str:
        state = "pending" if self.superseded_at is None else f"<{self.superseded_at}"
        return f"_Version({state}, length {self.length}, {len(self.before)} parked)"


def _patched(
    live: list[Record], length: int, before: dict[int, Record]
) -> list[Record]:
    """``live[:length]`` with every position *before* holds below
    *length* put back: a pre-image, materialised."""
    records = live[:length]
    if len(records) < length:  # a DELETE shortened the file; *before* has the rest
        records.extend([None] * (length - len(records)))  # type: ignore[list-item]
    for seq, record in before.items():
        if seq < length:
            records[seq] = record
    return records


#: Default cap on sealed version-chain entries retained per file.  The
#: GC watermark (oldest active snapshot) is the soft bound; this is the
#: hard bound that keeps write-heavy workloads from growing chains
#: without limit when a reader parks on an old snapshot.
DEFAULT_VERSION_RETAIN = 16

#: Compiled queries each store keeps, keyed on the rendered query.
COMPILE_CACHE_SIZE = 256


class ABFile:
    """One attribute-based file: an ordered bag of records."""

    __slots__ = ("name", "_records")

    def __init__(self, name: str) -> None:
        self.name = name
        self._records: list[Record] = []

    def insert(self, record: Record) -> None:
        self._records.append(record)

    def records(self) -> list[Record]:
        """The live record list (mutations go through the store)."""
        return self._records

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[Record]:
        return iter(self._records)

    def __repr__(self) -> str:
        return f"ABFile({self.name!r}, {len(self._records)} records)"


#: Stands for "the record has no such attribute" where None is a value.
_ABSENT: Any = object()


def _records(entries: list[tuple[int, Record]]) -> list[Record]:
    return [record for _, record in entries]


#: One file's indexes: attribute -> AttributeIndex (hash buckets + sorted
#: key arrays).  Bucket entries carry per-file insertion ranks, so
#: candidate unions can be restored to file order by sorting on them.
_FileIndex = dict[str, AttributeIndex]


class ABStore:
    """An in-memory attribute-based record store (one backend's disk).

    Records are bucketed by file name so that queries pinning ``FILE``
    scan only the relevant buckets; queries that leave the file open scan
    every bucket (and are charged for it).  With *indexed_attributes*,
    equality and range predicates over those attributes are additionally
    answered from per-file attribute indexes via the access-path planner
    (see the module docstring).
    """

    def __init__(self, indexed_attributes: Iterable[str] = ()) -> None:
        self._files: dict[str, ABFile] = {}
        self.stats = ScanStats()
        self._indexed: tuple[str, ...] = tuple(dict.fromkeys(indexed_attributes))
        self._indexes: dict[str, _FileIndex] = {}
        self._index_seq: dict[str, int] = {}
        self._obs = NULL_OBS
        self._compiled = LRUCache(COMPILE_CACHE_SIZE, prefix="qc.compile")
        # Mutation epochs: one counter per file plus a whole-store counter
        # bumped by clear().  Result caches key on epoch_signature() so any
        # mutation of a contributing file invalidates their entries.
        self._file_epochs: dict[str, int] = {}
        self._store_epoch = 0
        # MVCC version chains (snapshot reads).  While _capture is True
        # (the backend sets it around every mutating request), the first
        # mutation of a file in a commit cycle appends a *pending* chain
        # entry, the delta that leads back to the file's pre-image (see
        # _Version); seal_versions() stamps it with the commit seq once
        # the transaction is durable.  Replay, recovery, persistence, and
        # direct store use leave _capture False and open no entry.
        self._capture = False
        self.version_retain = DEFAULT_VERSION_RETAIN
        #: file name -> oldest-first chain of version deltas
        self._versions: dict[str, list[_Version]] = {}
        #: file name -> lowest snapshot seq still reconstructable; reads
        #: below it raise SnapshotTooOld (their version was trimmed).
        self._trimmed_below: dict[str, int] = {}

    def bind_obs(self, obs: ObsSpec) -> None:
        """Attach an observability bundle (compile-cache metrics + span)."""
        self._obs = resolve_obs(obs)
        self._compiled.bind_metrics(self._obs.metrics)

    # -- query compilation ----------------------------------------------------

    def _compile(self, query: Query, file: str) -> CompiledQuery:
        """*query*'s cached compilation for a scan of file *file*.

        What is compiled is ``query.within(file)``: the clauses as they
        act on that file's records (see
        :meth:`~repro.abdm.predicate.Query.within`), which only a cache
        miss computes.  The key carries the clause count besides the
        rendered text because the empty query and the empty-clause query
        both render as ``()`` while matching nothing / everything
        respectively.
        """
        key = (query.render(), len(query.clauses), file)
        compiled = self._compiled.get(key)
        if compiled is MISSING:
            with self._obs.tracer.span("qc.compile", query=key[0]):
                compiled = compile_query(query.within(file))
            if compiled.inset_groups:
                self._obs.metrics.inc("qc.compile.inset_groups", compiled.inset_groups)
            if compiled.codegen:
                self._obs.metrics.inc("qc.compile.codegen")
            self._compiled.put(key, compiled)
        return compiled

    def selector(
        self, query: Query, file: str
    ) -> Callable[[Sequence[Record]], list[Record]]:
        """The fastest available filter of file *file*'s records by
        *query*: the ones that satisfy it, in order, from one call.

        With compilation enabled this is a cached CompiledQuery's
        ``select``; otherwise it is the interpreted ``query.select``
        bound method, the reference the compiled path is held
        bit-identical to.
        """
        if not qc_runtime.config.compile_enabled:
            return query.select
        return self._compile(query, file).select

    def _scan(
        self,
        select: Callable[[Sequence[Record]], list[Record]],
        candidates: Sequence[Record],
    ) -> list[Record]:
        """Examine *candidates* (charging every one) and return the matches.

        Every scan in the store and its subclasses goes through here, so
        ``records_examined`` is charged one way on every access path.
        """
        self.stats.records_examined += len(candidates)
        return select(candidates)

    # -- mutation epochs ------------------------------------------------------

    def _bump_epoch(self, file_name: str) -> None:
        self._file_epochs[file_name] = self._file_epochs.get(file_name, 0) + 1

    def epoch_signature(self, pinned: Iterable[str] = ()) -> tuple:
        """A hashable version stamp for result caches.

        For a query pinning specific files, only those files' epochs
        matter; an unpinned query depends on every file (including ones
        dropped since — their bumped epoch entries persist until
        ``clear()``, which bumps the store-wide epoch instead).
        """
        pinned = tuple(sorted(set(pinned)))
        if pinned:
            return (
                self._store_epoch,
                tuple((n, self._file_epochs.get(n, 0)) for n in pinned),
            )
        return (self._store_epoch, tuple(sorted(self._file_epochs.items())))

    # -- version chains (MVCC snapshot reads) ---------------------------------

    def _ensure_pending(self, name: str) -> Optional[_Version]:
        """The pending chain entry a write to *name* records into.

        Under capture mode (the mutation came through a backend request)
        the first write of a commit cycle opens one: the file's length
        and an empty delta, O(1) whatever the file's size.  A write
        outside capture mode opens none, but still records into an entry
        its cycle already opened, so an abort undoes it too.  None means
        there is nothing to record into.  At most one pending entry
        exists per file at a time (writers on one file serialize under X
        locks).
        """
        chain = self._versions.get(name)
        if chain and chain[-1].superseded_at is None:
            return chain[-1]
        if not self._capture:
            return None
        entry = _Version(None, self.count(name), {})
        self._versions.setdefault(name, []).append(entry)
        return entry

    def seal_versions(
        self, files: Optional[Iterable[str]], seq: int, watermark: int
    ) -> None:
        """Stamp pending version entries with commit *seq*, then GC.

        *files* is the committed transaction's write set (None = every
        file with a pending entry — the wildcard/global-X case).  Called
        after the commit record is durable but before the kernel
        publishes *seq* as stable, so no reader can open a snapshot at
        *seq* before every store can serve it.  *watermark* is the
        oldest snapshot seq any active reader still holds; sealed
        entries below it are unreachable and dropped.
        """
        names = list(files) if files is not None else list(self._versions)
        for name in names:
            chain = self._versions.get(name)
            if chain and chain[-1].superseded_at is None:
                chain[-1].superseded_at = seq
        self.trim_versions(watermark)

    def trim_versions(self, watermark: int) -> None:
        """GC sealed chain entries no snapshot at/after *watermark* needs.

        An entry sealed at seq ``s`` serves only snapshots ``W < s``, so
        every entry with ``s <= watermark`` is dead.  Beyond that, the
        hard ``version_retain`` cap drops the oldest sealed entries and
        records the trim horizon in ``_trimmed_below`` — reads under the
        horizon raise :class:`~repro.errors.SnapshotTooOld` instead of
        silently serving a newer state.
        """
        for name in list(self._versions):
            chain = self._versions[name]
            cut = 0
            horizon = 0
            for entry in chain:
                if entry.superseded_at is None or entry.superseded_at > watermark:
                    break
                cut += 1
                horizon = entry.superseded_at
            sealed = sum(1 for e in chain if e.superseded_at is not None)
            while sealed - cut > self.version_retain:
                extra = chain[cut]
                if extra.superseded_at is None:  # pragma: no cover - pending is last
                    break
                horizon = extra.superseded_at
                cut += 1
            if cut:
                del chain[:cut]
                if horizon > self._trimmed_below.get(name, 0):
                    self._trimmed_below[name] = horizon
            if not chain:
                del self._versions[name]

    def _serving(self, name: str, snapshot: int) -> Optional[int]:
        """The index of the chain entry whose pre-image is *name* at
        *snapshot*, or None if the live state serves.

        Raises :class:`SnapshotTooOld` when the version that would serve
        *snapshot* has been trimmed from the chain.
        """
        trimmed = self._trimmed_below.get(name)
        if trimmed is not None and snapshot < trimmed:
            raise SnapshotTooOld(
                f"snapshot {snapshot} of file {name!r} was garbage-collected "
                f"(oldest reconstructable seq is {trimmed}); retry at a "
                "fresher snapshot"
            )
        for index, entry in enumerate(self._versions.get(name, ())):
            sup = entry.superseded_at
            if sup is None or sup > snapshot:
                return index
        return None

    def _version_delta(
        self, name: str, snapshot: int
    ) -> Optional[tuple[int, dict[int, Record]]]:
        """``(length, before)`` that turn the live *name* back into its
        state at *snapshot*, or None if the live state serves.

        The state at *snapshot* is the serving entry's pre-image, so the
        deltas from that entry up to the newest compose: a position takes
        the record the oldest of them parked there (it stood at
        *snapshot*), else the live one.  *length* is the serving entry's.
        """
        index = self._serving(name, snapshot)
        if index is None:
            return None
        chain = self._versions[name]
        if index == len(chain) - 1:
            return chain[index].length, chain[index].before
        before: dict[int, Record] = {}
        for later in reversed(chain[index:]):  # the oldest updates last, so wins
            before.update(later.before)
        return chain[index].length, before

    def _live_records(self, name: str) -> list[Record]:
        abfile = self._files.get(name)
        return abfile.records() if abfile else []

    def records_at(self, name: str, snapshot: int) -> list[Record]:
        """*name*'s committed records as of commit seq *snapshot*: the
        live list, or the pre-image rebuilt from the version deltas
        (counted in ``abdm.snapshot.rebuilt``)."""
        delta = self._version_delta(name, snapshot)
        live = self._live_records(name)
        if delta is None:
            return live
        self._obs.metrics.inc("abdm.snapshot.rebuilt")
        return _patched(live, *delta)

    def snapshot_live(self, pinned: Iterable[str], snapshot: int) -> bool:
        """True when the live state of every queried file is valid at
        *snapshot* — the condition under which a snapshot read may take
        the normal (planned, result-cached) execution path."""
        if not self._versions and not self._trimmed_below:
            return True
        names = sorted(set(pinned)) or sorted(self._files)
        try:
            return all(self._serving(n, snapshot) is None for n in names)
        except SnapshotTooOld:
            return False

    def find_at(self, query: Query, snapshot: int) -> list[Record]:
        """RETRIEVE evaluation against the committed state at *snapshot*.

        Each file is planned on its live index, and a superseded file's
        candidates are corrected with its version deltas (see
        :meth:`_snapshot_candidates`).  Record content and order are
        identical to running :meth:`find` against a store replayed to
        *snapshot*.
        """
        pinned = query.file_names()
        if self.snapshot_live(pinned, snapshot):
            return self.find(query)
        found: list[Record] = []
        paths: set[str] = set()
        for name in sorted(pinned) or sorted(self._files):
            candidates, label = self._snapshot_candidates(name, snapshot, query)
            paths.add(label)
            found += self._scan(self.selector(query, name), candidates)
        self.stats.records_touched += len(found)
        span = self._obs.tracer.current
        if span is not None:
            span.record(**{"plan.access_path": "+".join(sorted(paths)) or "none"})
        return found

    def _snapshot_candidates(
        self, name: str, snapshot: int, query: Query
    ) -> tuple[Sequence[Record], str]:
        """What a snapshot read of *query* examines in file *name*, in
        file order, and the label of its access path.

        A planned file takes the live candidates whose position is below
        the snapshot's length and was not overwritten since, plus the
        parked records below that length.  An unplanned file scans
        :meth:`records_at`.
        """
        candidates, label = self._served_candidates(name, query)
        if candidates is None:
            return self.records_at(name, snapshot), label
        delta = self._version_delta(name, snapshot)
        if delta is None:
            return _records(candidates), label
        length, before = delta
        entries = [
            (seq, record)
            for seq, record in candidates
            if seq < length and seq not in before
        ]
        entries.extend((seq, record) for seq, record in before.items() if seq < length)
        entries.sort()  # positions are distinct, so no two records are compared
        return _records(entries), label

    def rollback_pending(self, files: Optional[Iterable[str]] = None) -> list[str]:
        """Undo the uncommitted writes to *files* (None = every file).

        A pending version entry's delta turns the live file back into
        the committed state its transaction must return to on abort:
        the live list is cut to the entry's length and the parked
        records go back to their positions, the file's index is rebuilt
        once, and the entry is discarded.  The sealed chain and
        the trim horizon stay, so concurrent snapshot readers keep
        reconstructing older states.  A length of 0 means the
        transaction created the file, which is dropped.  Returns the
        names of the files rolled back.
        """
        names = sorted(files) if files is not None else sorted(self._versions)
        rolled: list[str] = []
        for name in names:
            chain = self._versions.get(name)
            if not chain or chain[-1].superseded_at is not None:
                continue
            entry = chain.pop()
            if not chain:
                del self._versions[name]
            if entry.length:
                live = self.file(name).records()
                live[:] = _patched(live, entry.length, entry.before)
            else:
                self._files.pop(name, None)
            self._bump_epoch(name)
            self._rebuild_index(name)
            rolled.append(name)
        return rolled

    def version_depths(self) -> dict[str, int]:
        """Chain length per file (tests and the ``.versions`` diagnostics)."""
        return {name: len(chain) for name, chain in sorted(self._versions.items())}

    # -- file management ------------------------------------------------------

    def file(self, name: str) -> ABFile:
        """Return the file called *name*, creating it on first use."""
        existing = self._files.get(name)
        if existing is None:
            existing = ABFile(name)
            self._files[name] = existing
        return existing

    def has_file(self, name: str) -> bool:
        return name in self._files

    def file_names(self) -> list[str]:
        return sorted(self._files)

    def clear(self) -> None:
        self._files.clear()
        self._indexes.clear()
        self._index_seq.clear()
        self._file_epochs.clear()
        self._store_epoch += 1
        self._versions.clear()
        self._trimmed_below.clear()
        self.stats = ScanStats()

    # -- index management -----------------------------------------------------

    @property
    def indexed_attributes(self) -> tuple[str, ...]:
        return self._indexed

    def add_index(self, attribute: str) -> None:
        """Start maintaining an index on *attribute* (idempotent).

        Bumps the store-wide epoch: indexing changes the accounting
        (records_examined, hit counters) of replayed results, so any
        result cache keyed on :meth:`epoch_signature` must refill.
        """
        if attribute in self._indexed:
            return
        self._indexed = self._indexed + (attribute,)
        self._store_epoch += 1
        for name in self._files:
            self._rebuild_index(name)

    def _rebuild_index(self, file_name: str) -> None:
        if not self._indexed:
            return
        abfile = self._files.get(file_name)
        if abfile is None or len(abfile) == 0:
            self._indexes.pop(file_name, None)
            self._index_seq.pop(file_name, None)
            return
        table: _FileIndex = {attribute: AttributeIndex() for attribute in self._indexed}
        for seq, record in enumerate(abfile):
            for attribute in self._indexed:
                if attribute in record:
                    table[attribute].add(record.get(attribute), seq, record)
        self._indexes[file_name] = table
        self._index_seq[file_name] = len(abfile)
        self._obs.metrics.inc("abdm.index.rebuilds")

    def _index_add(self, file_name: str, record: Record) -> None:
        table = self._indexes.setdefault(
            file_name, {attribute: AttributeIndex() for attribute in self._indexed}
        )
        seq = self._index_seq.get(file_name, 0)
        self._index_seq[file_name] = seq + 1
        for attribute in self._indexed:
            if attribute in record:
                table[attribute].add(record.get(attribute), seq, record)

    def _index_add_deferred(self, file_name: str, record: Record) -> None:
        """Like :meth:`_index_add` but defers sorted-array maintenance."""
        table = self._indexes.setdefault(
            file_name, {attribute: AttributeIndex() for attribute in self._indexed}
        )
        seq = self._index_seq.get(file_name, 0)
        self._index_seq[file_name] = seq + 1
        for attribute in self._indexed:
            if attribute in record:
                table[attribute].add_deferred(record.get(attribute), seq, record)

    def index_digest(
        self, file_name: str, attribute: str
    ) -> Optional[AttributeIndexDigest]:
        """Aggregate statistics of one (file, attribute) index.

        None means the index cannot vouch for the file — the attribute is
        unindexed, planning is disabled, or the file was populated before
        indexing started — and the caller must scan.
        """
        if attribute not in self._indexed or not qc_runtime.config.plan_enabled:
            return None
        table = self._indexes.get(file_name)
        if table is None:
            return None if self.count(file_name) else EMPTY_DIGEST
        return table[attribute].digest()

    def _plan_candidates(
        self, file_name: str, query: Query
    ) -> Optional[tuple[list[tuple[int, Record]], frozenset[str]]]:
        """The ``(seq, record)`` entries the planner narrows *query* down
        to, in file order (a record's seq is its position in the file).

        Returns ``(candidates, kinds)`` where *kinds* names the access
        paths used (``'hash'`` / ``'range'``), or None when no plan beats
        the full scan for this (file, query) pair — some clause has no
        indexable path, or its cheapest path surfaces the whole file.
        """
        if not self._indexed or not qc_runtime.config.plan_enabled:
            return None
        table = self._indexes.get(file_name)
        if table is None:
            # File populated before indexing started (or never indexed).
            return None if self.count(file_name) else ([], frozenset())
        file_records = self.count(file_name)
        by_seq: dict[int, Record] = {}
        kinds: set[str] = set()
        for clause in query:
            plan = plan_conjunction(clause, table, file_records)
            primary = plan.primary
            if primary is None:
                return None
            if primary.kind == "empty":
                continue
            index = table[primary.attribute]
            if primary.kind == "hash":
                entries = list(index.equal_bucket(primary.value))
                kinds.add("hash")
            else:
                assert primary.interval is not None
                entries = []
                for key in index.range_keys(primary.interval):
                    entries.extend(index.buckets[key])
                kinds.add("range")
            if plan.extras and entries:
                keep: Optional[set[int]] = None
                for extra in plan.extras:
                    extra_index = table[extra.attribute]
                    if extra.kind == "hash":
                        seqs = {s for s, _ in extra_index.equal_bucket(extra.value)}
                        kinds.add("hash")
                    else:
                        assert extra.interval is not None
                        seqs = set()
                        for key in extra_index.range_keys(extra.interval):
                            seqs.update(s for s, _ in extra_index.buckets[key])
                        kinds.add("range")
                    keep = seqs if keep is None else keep & seqs
                    if not keep:
                        break
                entries = [(s, record) for s, record in entries if s in (keep or ())]
            for seq, record in entries:
                by_seq.setdefault(seq, record)
        return sorted(by_seq.items()), frozenset(kinds)

    def _served_candidates(
        self, file_name: str, query: Query
    ) -> tuple[Optional[list[tuple[int, Record]]], str]:
        """:meth:`_plan_candidates` plus the per-pair stats charge.

        Returns ``(candidates, label)`` where *label* names the access
        path for the ``plan.access_path`` span attribute: ``'scan'`` when
        candidates is None, otherwise ``'hash'``, ``'range'``,
        ``'hash+range'`` or ``'empty'`` (planner proved the file empty).
        """
        planned = self._plan_candidates(file_name, query)
        if planned is None:
            if self._indexed and qc_runtime.config.plan_enabled:
                self.stats.fallback_scans += 1
            return None, "scan"
        candidates, kinds = planned
        if "range" in kinds:
            self.stats.range_hits += 1
        else:
            self.stats.index_hits += 1
        return candidates, "+".join(sorted(kinds)) or "empty"

    # -- physical operations --------------------------------------------------

    def insert(self, record: Record) -> None:
        """Insert *record* into the file named by its FILE keyword.

        The store takes the object itself and seals it: from here on it
        is shared by every read, never copied.
        """
        name = record.file_name
        if name is None:
            raise ExecutionError("record has no FILE keyword; cannot be stored")
        self._ensure_pending(name)
        self.file(name).insert(record.seal())
        if self._indexed:
            self._index_add(name, record)
        self._bump_epoch(name)
        self.stats.records_touched += 1

    def bulk_insert(self, records: Iterable[Record]) -> int:
        """Insert a batch with collect-then-sort-once index maintenance.

        Equivalent to inserting each record in order, except that sorted
        index arrays are finalized once per (file, attribute) pair at the
        end of the batch instead of bisect-inserted per record, and each
        touched file's mutation epoch is bumped once.  The batch is
        validated up front so a bad record leaves the store untouched —
        a bulk insert is never partially applied.  Each record is sealed
        as it is taken, like :meth:`insert`'s.
        """
        batch = list(records)
        for record in batch:
            if record.file_name is None:
                raise ExecutionError("record has no FILE keyword; cannot be stored")
        touched: dict[str, None] = {}
        for record in batch:
            name = record.file_name
            assert name is not None
            if name not in touched:
                self._ensure_pending(name)
            self.file(name).insert(record.seal())
            if self._indexed:
                self._index_add_deferred(name, record)
            touched[name] = None
        for name in touched:
            if self._indexed:
                table = self._indexes.get(name)
                if table is not None:
                    for index in table.values():
                        index.finalize()
            self._bump_epoch(name)
        self.stats.records_touched += len(batch)
        return len(batch)

    def _candidate_files(self, query: Query) -> Iterable[ABFile]:
        pinned = query.file_names()
        if pinned:
            return [self._files[n] for n in sorted(pinned) if n in self._files]
        return [self._files[n] for n in sorted(self._files)]

    def find(self, query: Query) -> list[Record]:
        """Return every record satisfying *query* (in file/insertion order)."""
        found: list[Record] = []
        paths: set[str] = set()
        for abfile in self._candidate_files(query):
            name = abfile.name
            candidates, label = self._served_candidates(name, query)
            paths.add(label)
            found += self._scan(
                self.selector(query, name),
                abfile.records() if candidates is None else _records(candidates),
            )
        self.stats.records_touched += len(found)
        span = self._obs.tracer.current
        if span is not None and self._indexed:
            span.record(**{"plan.access_path": "+".join(sorted(paths)) or "none"})
        return found

    def delete(self, query: Query) -> int:
        """Delete every record satisfying *query*; return the count."""
        deleted = 0
        for abfile in self._candidate_files(query):
            records = abfile.records()
            candidates, _ = self._served_candidates(abfile.name, query)
            victims = self._scan(
                self.selector(query, abfile.name),
                records if candidates is None else _records(candidates),
            )
            if victims:
                # Compaction moves every record after the first victim, so
                # the pending delta parks that whole suffix.
                head = victims[0]
                entries = enumerate(records) if candidates is None else candidates
                first = next(seq for seq, record in entries if record is head)
                pending = self._ensure_pending(abfile.name)
                if pending is not None:
                    park = pending.before.setdefault
                    for seq in range(first, min(len(records), pending.length)):
                        park(seq, records[seq])
                victim_ids = {id(record) for record in victims}
                records[first:] = [r for r in records[first:] if id(r) not in victim_ids]
                self._bump_epoch(abfile.name)
                if self._indexed:
                    self._rebuild_index(abfile.name)
            deleted += len(victims)
        self.stats.records_touched += deleted
        return deleted

    def update(
        self,
        query: Query,
        modify: Callable[[Record], None],
    ) -> int:
        """Apply *modify* to every record satisfying *query*.

        *modify* must leave ``FILE`` as it is: a record stays in the file
        its ``FILE`` keyword named when it was stored (an ABDL
        ``Modifier`` of ``FILE`` is refused when it is built).

        Every update is copy-on-write, whoever calls it (a served
        request, WAL replay, recovery, direct store use): stored records
        are sealed and shared — by version pre-images, the result cache
        and results callers still hold — so each match is copied,
        modified, sealed, and swapped into the live list at its seq,
        leaving the original untouched for everyone holding it.  A
        pending version entry parks each swapped record once, the first
        time its seq is swapped in the commit cycle.

        The cost is what the statement touches: the planner hands back
        each candidate's seq, which *is* its live position, and only the
        swapped records' index entries are patched (see
        :meth:`_index_patch`).  A statement that changes more than a
        quarter of the file stops patching and rebuilds the file's index
        once instead — per record a rebuild is the cheaper of the two.
        """
        updated = 0
        for abfile in self._candidate_files(query):
            name = abfile.name
            live = abfile.records()
            candidates, _ = self._served_candidates(name, query)
            hits = self._scan(
                self.selector(query, name),
                live if candidates is None else _records(candidates),
            )
            # A record's seq is its live position (see _plan_candidates).
            entries = enumerate(live) if candidates is None else candidates
            seq_of = {id(record): seq for seq, record in entries} if hits else {}
            table = self._indexes.get(name, {})
            patch_limit = len(live) // 4
            touched = 0
            pending = self._ensure_pending(name) if hits else None
            for record in hits:
                seq = seq_of[id(record)]
                if pending is not None and seq < pending.length:
                    pending.before.setdefault(seq, record)
                keys = record.keyword_map()
                before = [keys.get(attribute, _ABSENT) for attribute in table]
                record = record.copy()
                modify(record)
                live[seq] = record.seal()
                touched += 1
                if table and touched <= patch_limit:
                    self._index_patch(table, seq, before, record)
            if touched:
                self._bump_epoch(name)
                if touched > patch_limit:
                    self._rebuild_index(name)
            updated += touched
        self.stats.records_touched += updated
        return updated

    def _index_patch(
        self,
        table: _FileIndex,
        seq: int,
        before: list[Any],
        record: Record,
    ) -> None:
        """Re-index the record an UPDATE swapped in at *seq*.

        *before* holds the replaced record's indexed values
        (``_ABSENT`` where it lacked the attribute — a null value is a
        key like any other).  An attribute whose value object is
        unchanged keeps its bucket, but its entry is re-pointed at the
        new *record* object.
        """
        keys = record.keyword_map()
        patched = 0
        for (attribute, index), old in zip(table.items(), before):
            new = keys.get(attribute, _ABSENT)
            if new is _ABSENT and old is _ABSENT:
                continue
            if new is not old and old is not _ABSENT:
                index.remove(old, seq, attribute)
            if new is not _ABSENT:
                index.place(new, seq, record)
            patched += 1
        if patched:
            self._obs.metrics.inc("abdm.index.patched_entries", patched)

    # -- introspection ----------------------------------------------------------

    def count(self, file_name: Optional[str] = None) -> int:
        """Total records, or records in one file."""
        if file_name is not None:
            abfile = self._files.get(file_name)
            return len(abfile) if abfile else 0
        return sum(len(f) for f in self._files.values())

    def all_records(self) -> Iterator[Record]:
        for name in sorted(self._files):
            yield from self._files[name]

    def cache_snapshot(self) -> dict[str, object]:
        """Compile-cache counters for the ``.caches`` dot-command."""
        return self._compiled.snapshot()

    def index_snapshot(self) -> dict[str, object]:
        """Index configuration and hit counters for ``.indexes``."""
        files: dict[str, dict[str, int]] = {}
        for file_name, table in sorted(self._indexes.items()):
            files[file_name] = {
                attribute: index.entries for attribute, index in sorted(table.items())
            }
        return {
            "attributes": list(self._indexed),
            "files": files,
            "index_hits": self.stats.index_hits,
            "range_hits": self.stats.range_hits,
            "fallback_scans": self.stats.fallback_scans,
        }

    def snapshot(self) -> dict[str, list[list[tuple[str, Value]]]]:
        """A structural snapshot (for tests and debugging)."""
        return {
            name: [record.pairs() for record in abfile]
            for name, abfile in sorted(self._files.items())
        }

    def __repr__(self) -> str:
        return f"ABStore({len(self._files)} files, {self.count()} records)"
