"""Ordered attribute indexes and selectivity-based access planning.

PR 1 gave :class:`~repro.abdm.store.ABStore` per-file **hash** indexes,
so equality predicates stopped paying for whole-file scans.  This module
closes the same gap for *range* predicates — the restrictions that
dominate real ABDL workloads (``GPA >= 3.5``, ``SALARY < 40000``) — and
adds the small planner that picks between the available access paths.

:class:`AttributeIndex` is one (file, attribute) index.  It keeps the
hash buckets (value → records in insertion order) **and** two sorted key
arrays, one per order domain:

* ``numeric`` — the distinct int/float bucket keys (NaN excluded);
* ``strings`` — the distinct string bucket keys.

Nulls and NaNs stay out of the sorted arrays because the kernel's
ordering semantics (:func:`repro.abdm.values.compare`) never satisfy an
ordering predicate against either; their buckets still exist for
equality probes and for the aggregate digests.  Both arrays are
maintained incrementally with :mod:`bisect` — a new key costs one binary
search on insert (:meth:`AttributeIndex.add`), and an UPDATE drops and
re-places only the entries of the records it changed
(:meth:`AttributeIndex.remove` / :meth:`AttributeIndex.place`).  DELETE
still rebuilds the file's index wholesale, because it compacts the
record list and so renumbers every later seq.

Two invariants make the incremental index equal to a fresh rebuild:
every bucket lists its ``(seq, record)`` entries in seq order, and a
bucket's key object is the value of its *first* entry.  The second
matters because ``1`` and ``1.0`` (and ``0`` / ``0.0`` / ``-0.0``) hash
and compare equal, so they share one bucket — and the MIN/MAX digest
fast path returns the key object, which must be the value a scan would
meet first, not a representative whose record has since moved away.

:func:`plan_conjunction` is the per-clause access planner.  It collects
every *indexable* predicate of a DNF clause — an equality probe per
indexed attribute, and the ordering predicates per indexed attribute
merged into one closed :class:`Interval` — prices each candidate path by
the **exact** number of records it would surface (bucket lengths summed
over the key slice; these are index lookups, not scans), and returns:

* the cheapest path as ``primary`` (ties prefer the hash probe, per the
  hash probe > range slice > full scan policy);
* any further paths selective enough to be worth intersecting
  (estimated ≤ ¼ of the file, at most two) as ``extras``;
* ``primary=None`` when no path beats the full scan, which tells the
  store to fall back to the compiled-matcher scan.

The planner only *narrows*: callers always re-verify candidates with the
full (compiled) query matcher, so a plan can never change a result —
only the number of records examined, which is what the MBDS timing model
charges for.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from repro.abdm.predicate import Conjunction, Predicate
from repro.abdm.values import Value, is_nan, order_domain

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.abdm.record import Record

#: Ordering operators an interval can absorb.
ORDERING_OPERATORS = ("<", "<=", ">", ">=")


@dataclass(frozen=True)
class Interval:
    """A one-attribute closed/open interval in a single order domain."""

    domain: str  # 'num' or 'str'
    lo: Optional[Value] = None
    hi: Optional[Value] = None
    lo_strict: bool = False
    hi_strict: bool = False

    @property
    def empty(self) -> bool:
        """True when no value can lie inside the interval."""
        if self.lo is None or self.hi is None:
            return False
        if self.lo > self.hi:  # type: ignore[operator]
            return True
        return self.lo == self.hi and (self.lo_strict or self.hi_strict)


@dataclass(frozen=True)
class AttributeIndexDigest:
    """What one (file, attribute) index knows without touching a record.

    *entries* counts records carrying the attribute; *nulls* / *nans*
    count the null-valued and NaN-valued keywords among them.  The
    min/max pairs are per order domain (None when the domain is empty).
    MIN/MAX aggregate fast paths must bail when *nans* is non-zero:
    ``min``/``max`` answer NaN exactly when the first numeric they meet
    is NaN, which depends on record order, so only a real scan (and the
    fold of :mod:`repro.abdl.aggregates`, which keeps that order)
    reproduces it.
    """

    entries: int = 0
    nulls: int = 0
    nans: int = 0
    distinct: int = 0
    num_min: Value = None
    num_max: Value = None
    str_min: Value = None
    str_max: Value = None


#: Digest of an index over an empty file.
EMPTY_DIGEST = AttributeIndexDigest()


class AttributeIndex:
    """One (file, attribute) index: hash buckets plus sorted key arrays."""

    __slots__ = (
        "buckets",
        "numeric",
        "strings",
        "nulls",
        "nans",
        "entries",
        "_dirty",
    )

    def __init__(self) -> None:
        #: value -> [(sequence, record), ...] in per-file insertion order.
        self.buckets: dict[Value, list[tuple[int, "Record"]]] = {}
        self.numeric: list[Value] = []
        self.strings: list[Value] = []
        self.nulls = 0
        self.nans = 0
        self.entries = 0
        #: True while deferred adds have appended unsorted keys.
        self._dirty = False

    def add(self, value: Value, seq: int, record: "Record") -> None:
        """Index *record* under *value* (seq is its per-file insertion rank)."""
        bucket = self.buckets.get(value)
        if bucket is None:
            # NaN keys hash by identity, so distinct NaN objects form
            # distinct buckets; they are kept out of the sorted arrays
            # (no predicate but != can ever select them).
            self.buckets[value] = [(seq, record)]
            keys = self._sorted_keys(value)
            if keys is not None:
                insort(keys, value)  # type: ignore[arg-type]
        else:
            bucket.append((seq, record))
        self._count(value, 1)

    def place(self, value: Value, seq: int, record: "Record") -> None:
        """Put *record* at *seq* in *value*'s bucket, keeping seq order.

        Unlike :meth:`add`, *seq* need not be the highest in the bucket:
        UPDATE re-keys a record that keeps its position in the file.  An
        entry already at *seq* is replaced (the copy-on-write swap of a
        record whose key did not change); counters move only when an
        entry is actually added.
        """
        bucket = self.buckets.get(value)
        if bucket is None:
            self.add(value, seq, record)
            return
        at = bisect_left(bucket, (seq,))
        if at < len(bucket) and bucket[at][0] == seq:
            bucket[at] = (seq, record)
            return
        bucket.insert(at, (seq, record))
        if at == 0:
            self._rekey(bucket, value)
        self._count(value, 1)

    def remove(self, value: Value, seq: int, attribute: str) -> None:
        """Drop the entry at *seq* from *value*'s bucket.

        An emptied bucket goes, with its sorted-array key.  When the
        bucket's first entry goes and others remain, the bucket is
        re-keyed to the new first record's value of *attribute*.
        """
        bucket = self.buckets[value]
        at = bisect_left(bucket, (seq,))
        del bucket[at]
        if not bucket:
            del self.buckets[value]
            keys = self._sorted_keys(value)
            if keys is not None:
                del keys[bisect_left(keys, value)]  # type: ignore[arg-type]
        elif at == 0:
            self._rekey(bucket, bucket[0][1].get(attribute))
        self._count(value, -1)

    def _count(self, value: Value, delta: int) -> None:
        if value is None:
            self.nulls += delta
        elif is_nan(value):
            self.nans += delta
        self.entries += delta

    def _sorted_keys(self, value: Value) -> Optional[list[Value]]:
        domain = order_domain(value)
        if domain == "num":
            return self.numeric
        return self.strings if domain == "str" else None

    def _rekey(self, bucket: list[tuple[int, "Record"]], head: Value) -> None:
        """Make *head* (the first entry's value) the bucket's key object."""
        del self.buckets[head]
        self.buckets[head] = bucket
        keys = self._sorted_keys(head)
        if keys is not None:
            keys[bisect_left(keys, head)] = head  # type: ignore[arg-type]

    def add_deferred(self, value: Value, seq: int, record: "Record") -> None:
        """Index *record* without maintaining sorted order (bulk load).

        New keys are appended to the sorted arrays unsorted; a single
        :meth:`finalize` sorts them once per batch.  Bucket contents,
        bucket creation order, and the null/NaN counters are maintained
        exactly as :meth:`add` would — and because distinct bucket keys
        within one order domain are totally ordered (values that compare
        equal hash to the same bucket), one terminal sort reproduces the
        bisect-insert arrays bit-identically.
        """
        bucket = self.buckets.get(value)
        if bucket is None:
            self.buckets[value] = [(seq, record)]
            keys = self._sorted_keys(value)
            if keys is not None:
                keys.append(value)
                self._dirty = True
        else:
            bucket.append((seq, record))
        self._count(value, 1)

    def finalize(self) -> None:
        """Sort the key arrays after a run of deferred adds (idempotent)."""
        if self._dirty:
            self.numeric.sort()  # type: ignore[type-var]
            self.strings.sort()  # type: ignore[type-var]
            self._dirty = False

    def equal_bucket(self, value: Value) -> Sequence[tuple[int, "Record"]]:
        """The (seq, record) entries whose key equals *value* (may be empty)."""
        return self.buckets.get(value, ())

    def range_keys(self, interval: Interval) -> list[Value]:
        """The sorted distinct keys falling inside *interval*."""
        keys = self.numeric if interval.domain == "num" else self.strings
        lo_index = 0
        if interval.lo is not None:
            probe = bisect_right if interval.lo_strict else bisect_left
            lo_index = probe(keys, interval.lo)  # type: ignore[arg-type]
        hi_index = len(keys)
        if interval.hi is not None:
            probe = bisect_left if interval.hi_strict else bisect_right
            hi_index = probe(keys, interval.hi)  # type: ignore[arg-type]
        return keys[lo_index:hi_index]

    def range_count(self, interval: Interval) -> int:
        """Exact number of records a range slice would surface."""
        return sum(len(self.buckets[key]) for key in self.range_keys(interval))

    def digest(self) -> AttributeIndexDigest:
        """Aggregate statistics for planner estimates and MIN/MAX/COUNT."""
        return AttributeIndexDigest(
            entries=self.entries,
            nulls=self.nulls,
            nans=self.nans,
            distinct=len(self.buckets),
            num_min=self.numeric[0] if self.numeric else None,
            num_max=self.numeric[-1] if self.numeric else None,
            str_min=self.strings[0] if self.strings else None,
            str_max=self.strings[-1] if self.strings else None,
        )


@dataclass(frozen=True)
class AccessPath:
    """One way to surface a clause's candidate records from an index.

    *estimated* is the exact record count the path yields (computed from
    bucket lengths, not a scan).  ``kind`` is ``'hash'`` (equality
    probe), ``'range'`` (sorted-key slice) or ``'empty'`` (the clause is
    unsatisfiable on this attribute — e.g. an impossible interval).
    """

    kind: str
    attribute: str
    estimated: int
    value: Value = None
    interval: Optional[Interval] = None


@dataclass(frozen=True)
class ClausePlan:
    """The planner's decision for one DNF clause over one file.

    ``primary is None`` means no indexable path beats the full scan.
    *extras* are further selective paths whose candidate sets are
    intersected with the primary's to shrink it before verification.
    """

    primary: Optional[AccessPath]
    extras: tuple[AccessPath, ...] = ()


def build_interval(predicates: Sequence[Predicate]) -> Optional[Interval]:
    """Merge one attribute's ordering predicates into a single interval.

    Returns None when the conjunction is unsatisfiable outright: a bound
    is null or NaN (ordering against either never holds), or the bounds
    span two order domains (one value cannot order against both).
    """
    domain: Optional[str] = None
    lo: Value = None
    hi: Value = None
    lo_strict = hi_strict = False
    for predicate in predicates:
        value = predicate.value
        value_domain = order_domain(value)
        if value_domain is None:
            return None
        if domain is None:
            domain = value_domain
        elif domain != value_domain:
            return None
        if predicate.operator in (">", ">="):
            strict = predicate.operator == ">"
            if lo is None or value > lo:  # type: ignore[operator]
                lo, lo_strict = value, strict
            elif value == lo and strict:
                lo_strict = True
        else:
            strict = predicate.operator == "<"
            if hi is None or value < hi:  # type: ignore[operator]
                hi, hi_strict = value, strict
            elif value == hi and strict:
                hi_strict = True
    assert domain is not None
    return Interval(domain, lo, hi, lo_strict, hi_strict)


def plan_conjunction(
    clause: Conjunction,
    indexes: Mapping[str, AttributeIndex],
    file_records: int,
    intersect_divisor: int = 4,
    max_extras: int = 2,
) -> ClausePlan:
    """Pick the cheapest access path(s) for *clause* over one file.

    Candidate paths are priced by exact candidate count; the cheapest
    becomes primary (ties prefer hash probes over range slices).  Up to
    *max_extras* further paths whose estimate is at most ``file_records
    // intersect_divisor`` are kept for intersection — selective enough
    that shrinking the candidate set pays for the set arithmetic.
    """
    equalities: dict[str, Predicate] = {}
    orderings: dict[str, list[Predicate]] = {}
    for predicate in clause:
        if predicate.attribute not in indexes:
            continue
        if predicate.operator == "=":
            equalities.setdefault(predicate.attribute, predicate)
        elif predicate.operator in ORDERING_OPERATORS:
            orderings.setdefault(predicate.attribute, []).append(predicate)
    paths: list[AccessPath] = []
    for attribute, predicate in equalities.items():
        estimated = len(indexes[attribute].equal_bucket(predicate.value))
        paths.append(AccessPath("hash", attribute, estimated, value=predicate.value))
    for attribute, predicates in orderings.items():
        if attribute in equalities:
            # The hash probe subsumes the interval; residual predicates
            # are verified by the compiled matcher anyway.
            continue
        interval = build_interval(predicates)
        if interval is None or interval.empty:
            paths.append(AccessPath("empty", attribute, 0))
        else:
            estimated = indexes[attribute].range_count(interval)
            paths.append(
                AccessPath("range", attribute, estimated, interval=interval)
            )
    if not paths:
        return ClausePlan(None)
    paths.sort(key=lambda p: (p.estimated, p.kind != "hash", p.attribute))
    primary = paths[0]
    # A range slice covering the whole file narrows nothing — scanning is
    # strictly cheaper (no set arithmetic, no reordering).  Hash probes
    # keep PR 1's behaviour even in that degenerate case: the candidate
    # set is identical and so is the records_examined charge.
    if primary.kind == "range" and primary.estimated >= file_records:
        return ClausePlan(None)
    extras: tuple[AccessPath, ...] = ()
    if primary.kind != "empty" and primary.estimated > 0:
        threshold = file_records // intersect_divisor
        extras = tuple(
            path for path in paths[1 : 1 + max_extras] if path.estimated <= threshold
        )
    return ClausePlan(primary, extras)
