"""The ABDM directory: descriptors and clustered storage.

Hsiao's attribute-based model pairs the record store with a *directory*:
selected attributes become **directory attributes**, their domains are
partitioned by **descriptors**, and records are clustered by the
descriptors their keywords satisfy.  Request execution then has two
phases — *descriptor search* (which clusters can contain qualifying
records?) followed by *record processing* over only those clusters.
This is why the thesis writes keyword predicates as the tuple
``(directory, attribute, relational operator, attribute-value)``: the
directory component is the descriptor-search handle.

Descriptor kinds (after Hsiao/Wong):

* **type A** — a value range ``[low, high]`` (numeric attributes);
* **type B** — a single equality value;
* **type C** — the catch-all for values no other descriptor covers
  (string attributes hash into a set of type-C buckets).

:class:`ClusteredStore` is a drop-in :class:`~repro.abdm.store.ABStore`
replacement: inserts classify each record into a cluster keyed by its
descriptor ids, and queries prune to the clusters whose descriptor sets
intersect the query's.  The scan statistics only charge the records
actually examined, so the MBDS timing model automatically reflects the
directory's benefit — which the directory ablation benchmark measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.abdm.predicate import Conjunction, Predicate, Query
from repro.abdm.record import Record
from repro.abdm.store import ABStore
from repro.abdm.values import Value
from repro.errors import SchemaError


@dataclass(frozen=True)
class Descriptor:
    """One domain partition of a directory attribute."""

    id: int
    attribute: str
    kind: str  # 'A' (range), 'B' (value) or 'C' (catch-all bucket)
    low: Optional[float] = None
    high: Optional[float] = None
    value: Value = None
    bucket: int = -1  # for type-C hash buckets

    def covers(self, value: Value) -> bool:
        if self.kind == "A":
            return (
                isinstance(value, (int, float))
                and self.low is not None
                and self.high is not None
                and self.low <= value <= self.high
            )
        if self.kind == "B":
            return value == self.value
        return False  # type-C coverage is decided by the attribute's hash


class DirectoryAttribute:
    """The descriptor set of one directory attribute."""

    def __init__(
        self,
        attribute: str,
        descriptors: Sequence[Descriptor],
        catch_all_buckets: int = 0,
    ) -> None:
        self.attribute = attribute
        self.descriptors = list(descriptors)
        self.catch_all_buckets = catch_all_buckets
        self._catch_all: dict[int, Descriptor] = {
            d.bucket: d for d in descriptors if d.kind == "C"
        }

    @classmethod
    def ranges(
        cls,
        attribute: str,
        low: float,
        high: float,
        partitions: int,
        first_id: int,
    ) -> "DirectoryAttribute":
        """Equal-width type-A descriptors over ``[low, high]`` plus one
        catch-all for out-of-range and non-numeric values."""
        if partitions < 1 or high <= low:
            raise SchemaError("range directory needs partitions >= 1 and high > low")
        width = (high - low) / partitions
        descriptors = [
            Descriptor(
                first_id + i,
                attribute,
                "A",
                low=low + i * width,
                high=(low + (i + 1) * width) if i < partitions - 1 else high,
            )
            for i in range(partitions)
        ]
        descriptors.append(
            Descriptor(first_id + partitions, attribute, "C", bucket=0)
        )
        return cls(attribute, descriptors, catch_all_buckets=1)

    @classmethod
    def values(
        cls,
        attribute: str,
        values: Sequence[Value],
        first_id: int,
        buckets: int = 1,
    ) -> "DirectoryAttribute":
        """Type-B descriptors for the listed values plus *buckets* type-C
        hash buckets for everything else."""
        descriptors = [
            Descriptor(first_id + i, attribute, "B", value=v)
            for i, v in enumerate(values)
        ]
        for b in range(buckets):
            descriptors.append(
                Descriptor(first_id + len(values) + b, attribute, "C", bucket=b)
            )
        return cls(attribute, descriptors, catch_all_buckets=buckets)

    @classmethod
    def hashed(cls, attribute: str, buckets: int, first_id: int) -> "DirectoryAttribute":
        """Pure type-C hash partitioning (good for key-like strings)."""
        descriptors = [
            Descriptor(first_id + b, attribute, "C", bucket=b) for b in range(buckets)
        ]
        return cls(attribute, descriptors, catch_all_buckets=buckets)

    def _bucket_of(self, value: Value) -> int:
        return hash(str(value)) % max(1, self.catch_all_buckets)

    def classify(self, value: Value) -> int:
        """The descriptor id covering *value* (classification is total)."""
        for descriptor in self.descriptors:
            if descriptor.kind != "C" and descriptor.covers(value):
                return descriptor.id
        if not self._catch_all:
            raise SchemaError(
                f"directory attribute {self.attribute!r} has no descriptor for "
                f"{value!r} and no catch-all"
            )
        return self._catch_all[self._bucket_of(value)].id

    def candidates(self, predicate: Predicate) -> Optional[set[int]]:
        """Descriptor ids that may hold records satisfying *predicate*.

        Returns None when the predicate cannot prune (e.g. ``!=``), which
        callers treat as "all descriptors".
        """
        op = predicate.operator
        value = predicate.value
        if op == "!=":
            return None
        if op == "=":
            return {self.classify(value)}
        # Ordering predicates: keep every range descriptor overlapping the
        # half-line, every covering-value type-B, and all catch-alls (their
        # contents are unordered).
        if not isinstance(value, (int, float)):
            return None
        ids: set[int] = set()
        for descriptor in self.descriptors:
            if descriptor.kind == "A":
                assert descriptor.low is not None and descriptor.high is not None
                if op in ("<", "<=") and descriptor.low <= value:
                    ids.add(descriptor.id)
                elif op in (">", ">=") and descriptor.high >= value:
                    ids.add(descriptor.id)
            elif descriptor.kind == "B":
                if isinstance(descriptor.value, (int, float)):
                    from repro.abdm.values import compare

                    if compare(descriptor.value, value, op):
                        ids.add(descriptor.id)
            else:
                ids.add(descriptor.id)
        return ids


class Directory:
    """The directory of a database: directory attributes and id issuing."""

    def __init__(self) -> None:
        self._attributes: dict[str, DirectoryAttribute] = {}
        self._next_id = 1

    def add_ranges(self, attribute: str, low: float, high: float, partitions: int) -> None:
        entry = DirectoryAttribute.ranges(attribute, low, high, partitions, self._next_id)
        self._register(entry)

    def add_values(self, attribute: str, values: Sequence[Value], buckets: int = 1) -> None:
        entry = DirectoryAttribute.values(attribute, values, self._next_id, buckets)
        self._register(entry)

    def add_hashed(self, attribute: str, buckets: int) -> None:
        entry = DirectoryAttribute.hashed(attribute, buckets, self._next_id)
        self._register(entry)

    def _register(self, entry: DirectoryAttribute) -> None:
        if entry.attribute in self._attributes:
            raise SchemaError(f"attribute {entry.attribute!r} already in the directory")
        self._attributes[entry.attribute] = entry
        self._next_id += len(entry.descriptors)

    @property
    def attributes(self) -> list[str]:
        return list(self._attributes)

    def entry(self, attribute: str) -> Optional[DirectoryAttribute]:
        return self._attributes.get(attribute)

    # -- classification -----------------------------------------------------------

    def cluster_key(self, record: Record) -> tuple[int, ...]:
        """The record's cluster: its descriptor id per directory attribute."""
        return tuple(
            entry.classify(record.get(entry.attribute))
            for entry in self._attributes.values()
        )

    def descriptor_search(self, clause: Conjunction) -> list[Optional[set[int]]]:
        """Phase one of request execution: per directory attribute, the
        descriptor ids compatible with *clause* (None = unconstrained)."""
        constraints: list[Optional[set[int]]] = []
        for entry in self._attributes.values():
            allowed: Optional[set[int]] = None
            for predicate in clause:
                if predicate.attribute != entry.attribute:
                    continue
                candidates = entry.candidates(predicate)
                if candidates is None:
                    continue
                allowed = candidates if allowed is None else (allowed & candidates)
            constraints.append(allowed)
        return constraints


class ClusteredStore(ABStore):
    """An ABStore whose files are clustered by the directory.

    Records land in per-file clusters keyed by their descriptor tuple;
    queries run descriptor search per DNF clause and scan only the
    clusters whose keys satisfy every per-attribute constraint.
    """

    def __init__(
        self, directory: Directory, indexed_attributes: Iterable[str] = ()
    ) -> None:
        super().__init__(indexed_attributes)
        self.directory = directory
        #: file name -> cluster key -> records
        self._clusters: dict[str, dict[tuple[int, ...], list[Record]]] = {}

    # -- physical operations -------------------------------------------------------

    def insert(self, record: Record) -> None:
        super().insert(record)
        self._cluster_add(record)

    def bulk_insert(self, records) -> int:
        batch = list(records)
        count = super().bulk_insert(batch)
        for record in batch:
            self._cluster_add(record)
        return count

    def _cluster_add(self, record: Record) -> None:
        file_name = record.file_name or ""
        key = self.directory.cluster_key(record)
        self._clusters.setdefault(file_name, {}).setdefault(key, []).append(record)

    def _candidate_clusters(
        self,
        file_name: str,
        query: Query,
    ) -> list[Record]:
        """Union of records in clusters compatible with any clause."""
        return self._scan_clusters(self._clusters.get(file_name, {}), query)

    def _scan_clusters(
        self,
        clusters: dict[tuple[int, ...], list[Record]],
        query: Query,
    ) -> list[Record]:
        """Descriptor search over an explicit cluster map.

        Shared by live reads (the store's cluster map) and snapshot
        reads (a cluster map regrouped from a version-chain pre-image),
        so both surface candidates in the same clause-by-clause,
        first-appearance cluster order.
        """
        selected: list[Record] = []
        seen_keys: set[tuple[int, ...]] = set()
        for clause in query:
            constraints = self.directory.descriptor_search(clause)
            for key, records in clusters.items():
                if key in seen_keys:
                    continue
                compatible = all(
                    allowed is None or key[index] in allowed
                    for index, allowed in enumerate(constraints)
                )
                if compatible:
                    seen_keys.add(key)
                    selected.extend(records)
        return selected

    def find(self, query: Query) -> list[Record]:
        pinned = query.file_names()
        if not pinned:
            return super().find(query)
        found: list[Record] = []
        select = self.selector(query)
        for file_name in sorted(pinned):
            found += self._scan(select, self._candidate_clusters(file_name, query))
        self.stats.records_touched += len(found)
        return found

    def _snapshot_candidates(self, name, state, query):
        """Snapshot reads keep directory pruning.

        A superseded file regroups its pre-image records into a cluster
        map (first-appearance key order — identical to both the
        incremental build order and :meth:`_rebuild_clusters`) and runs
        the same descriptor search the live path uses, so candidate
        order matches a store replayed to the snapshot exactly.
        """
        if not query.file_names():
            return super()._snapshot_candidates(name, state, query)
        if state is None:
            return self._candidate_clusters(name, query)
        regrouped: dict[tuple[int, ...], list[Record]] = {}
        for record in state:
            regrouped.setdefault(self.directory.cluster_key(record), []).append(record)
        return self._scan_clusters(regrouped, query)

    def delete(self, query: Query) -> int:
        deleted = super().delete(query)
        if deleted:
            self._rebuild_clusters(query.file_names())
        return deleted

    def update(self, query: Query, modify) -> int:
        updated = super().update(query, modify)
        if updated:
            # Updated keywords may move records between clusters.
            self._rebuild_clusters(query.file_names())
        return updated

    def rollback_pending(self, files=None) -> list[str]:
        rolled = super().rollback_pending(files)
        if rolled:
            self._rebuild_clusters(rolled)
        return rolled

    def _rebuild_clusters(self, file_names: Iterable[str]) -> None:
        names = list(file_names) or self.file_names()
        for file_name in names:
            if not self.has_file(file_name):
                self._clusters.pop(file_name, None)
                continue
            rebuilt: dict[tuple[int, ...], list[Record]] = {}
            for record in self.file(file_name):
                rebuilt.setdefault(self.directory.cluster_key(record), []).append(record)
            self._clusters[file_name] = rebuilt

    def drop_file(self, name: str) -> None:
        super().drop_file(name)
        self._clusters.pop(name, None)

    def clear(self) -> None:
        super().clear()
        self._clusters.clear()

    # -- introspection ----------------------------------------------------------------

    def cluster_count(self, file_name: str) -> int:
        return len(self._clusters.get(file_name, {}))
