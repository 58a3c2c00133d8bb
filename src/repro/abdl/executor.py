"""Execution of ABDL requests against an attribute-based store.

The executor is storage-engine-agnostic: it runs over any
:class:`~repro.abdm.store.ABStore`, and MBDS backends embed one executor
each.  Results are :class:`RequestResult` objects carrying either records
(RETRIEVE / RETRIEVE-COMMON) or a touched-record count (INSERT / DELETE /
UPDATE).  No read copies a record: a ``*`` retrieval returns the store's
own sealed records, and projected, joined and aggregate rows are sealed
before they leave, so every record a result carries is read-only.

An aggregate RETRIEVE has two halves (:mod:`repro.abdl.aggregates`):
:meth:`Executor.fold` returns one store's partial states, which is what
an MBDS backend answers with, and :meth:`Executor.execute` returns the
rows, the merge of that one fold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.abdl.aggregates import Fold, fold, group_records, merge_folds
from repro.abdl.ast import (
    BulkInsertRequest,
    DeleteRequest,
    InsertRequest,
    Request,
    RetrieveCommonRequest,
    RetrieveRequest,
    UpdateRequest,
)
from repro.abdm.predicate import Query
from repro.abdm.record import Record
from repro.abdm.store import ABStore
from repro.errors import ExecutionError


@dataclass
class RequestResult:
    """Outcome of one ABDL request.

    *records* is populated for retrievals, projected onto the target
    list.  Every record in it is sealed and may be shared — with the
    store (a ``*`` target hands out the stored objects themselves), the
    result cache and other callers — so a caller that wants a changed
    record builds one from ``Record.copy()``.  The list itself is the
    caller's.  *count* is the number of records retrieved / inserted /
    deleted / updated.

    *groups* is set only on one store's share of an aggregate RETRIEVE
    (:meth:`Executor.fold`): its partial state per group, with *records*
    empty and *count* the records it matched.  Like the records, the
    states are shared, never changed.
    """

    operation: str
    records: list[Record] = field(default_factory=list)
    count: int = 0
    groups: Optional[Fold] = None

    def __len__(self) -> int:
        return len(self.records)


class Executor:
    """Evaluates ABDL requests over one :class:`ABStore`.

    Writes hand the store a copy of each request record (the store seals
    what it takes, and the request stays the caller's); reads hand back
    what the store found without copying it.
    """

    def __init__(self, store: ABStore) -> None:
        self.store = store

    # -- public API -------------------------------------------------------

    def execute(
        self, request: Request, snapshot: Optional[int] = None
    ) -> RequestResult:
        """Execute one request and return its result.

        *snapshot* (a commit seq) makes retrievals read the committed
        state as of that seq via the store's version chains; it is
        ignored for mutations, which always act on the live state.
        """
        if isinstance(request, InsertRequest):
            return self._insert(request)
        if isinstance(request, BulkInsertRequest):
            return self._bulk_insert(request)
        if isinstance(request, DeleteRequest):
            return self._delete(request)
        if isinstance(request, UpdateRequest):
            return self._update(request)
        if isinstance(request, RetrieveRequest):
            return self._retrieve(request, snapshot)
        if isinstance(request, RetrieveCommonRequest):
            return self._retrieve_common(request, snapshot)
        raise ExecutionError(f"unknown request type {type(request).__name__}")

    def fold(
        self, request: RetrieveRequest, snapshot: Optional[int] = None
    ) -> RequestResult:
        """This store's share of an aggregate RETRIEVE: its partial states.

        The result carries *groups* (see
        :func:`~repro.abdl.aggregates.fold`) and the matched-record
        *count*, and no records; :func:`~repro.abdl.aggregates.merge_folds`
        turns the folds of every store, in order, into the rows.
        """
        matching = self._find(request.query, snapshot)
        return RequestResult(
            "RETRIEVE", count=len(matching), groups=fold(matching, request)
        )

    # -- operations ---------------------------------------------------------

    def _insert(self, request: InsertRequest) -> RequestResult:
        self.store.insert(request.record.copy())
        return RequestResult("INSERT", count=1)

    def _bulk_insert(self, request: BulkInsertRequest) -> RequestResult:
        self.store.bulk_insert([record.copy() for record in request.records])
        return RequestResult("BULK-INSERT", count=len(request.records))

    def _delete(self, request: DeleteRequest) -> RequestResult:
        deleted = self.store.delete(request.query)
        return RequestResult("DELETE", count=deleted)

    def _update(self, request: UpdateRequest) -> RequestResult:
        updated = self.store.update(request.query, request.modifier.apply)
        return RequestResult("UPDATE", count=updated)

    def _find(self, query: Query, snapshot: Optional[int]) -> list[Record]:
        if snapshot is None:
            return self.store.find(query)
        return self.store.find_at(query, snapshot)

    def _retrieve(
        self, request: RetrieveRequest, snapshot: Optional[int] = None
    ) -> RequestResult:
        matching = self._find(request.query, snapshot)
        return RequestResult(
            "RETRIEVE", records=project(matching, request), count=len(matching)
        )

    def _retrieve_common(
        self, request: RetrieveCommonRequest, snapshot: Optional[int] = None
    ) -> RequestResult:
        left = self._find(request.left_query, snapshot)
        right = self._find(request.right_query, snapshot)
        merged = merge_common(left, right, request)
        plain = RetrieveRequest(request.left_query, request.target)
        return RequestResult(
            "RETRIEVE-COMMON", records=project(merged, plain), count=len(merged)
        )


def merge_common(
    left: Sequence[Record],
    right: Sequence[Record],
    request: RetrieveCommonRequest,
) -> list[Record]:
    """Hash-join two record sets on the request's common attribute pair.

    Right-side keywords that collide with left-side attributes are kept
    under a ``<right-file>.<attribute>`` name in the merged record, which
    is sealed like every other record a read returns.
    Shared between the single-store executor and the kernel controller —
    a partitioned RETRIEVE-COMMON must join at the controller, since
    matching records may live on different backends.
    """
    index: dict[object, list[Record]] = {}
    for record in right:
        key = record.get(request.right_attribute)
        if key is not None:
            index.setdefault(key, []).append(record)
    merged: list[Record] = []
    for record in left:
        key = record.get(request.left_attribute)
        if key is None:
            continue
        for partner in index.get(key, ()):
            combined = record.copy()
            for attribute, value in partner.pairs():
                if attribute in combined:
                    combined.set(f"{partner.file_name}.{attribute}", value)
                else:
                    combined.set(attribute, value)
            merged.append(combined.seal())
    return merged


def project(records: Sequence[Record], request: RetrieveRequest) -> list[Record]:
    """Project *records* onto the request's target list.

    Without aggregates each matching record yields one output record with
    the targeted attributes (all of them for the ``*`` target).  With
    aggregates the records are grouped by the BY attribute (one anonymous
    group without it) and each group yields one output record carrying the
    group key plus the aggregate values; plain attributes mixed into an
    aggregate target list take their value from the group's first record.
    That is the merge of the records' one fold
    (:mod:`repro.abdl.aggregates`).

    The ``*`` target returns the input records themselves (they are
    sealed); every row built here is sealed before it is returned.
    """
    if not request.has_aggregates:
        if request.wants_all:
            output = list(records)
        else:
            # One dict per row, in target order; a repeated target keeps
            # its first place and an attribute the record lacks is left out.
            names = [item.attribute for item in request.target]
            output = [
                Record.sealed({a: m[a] for a in names if a in m})
                for record in records
                for m in (record.keyword_map(),)
            ]
        if request.by is not None:
            # A BY clause without aggregates orders the output by the
            # grouping attribute, keeping groups contiguous.
            groups = group_records(output, request.by)
            output = [record for _, group in groups for record in group]
        return output

    return merge_folds(request, [fold(records, request)])
