"""Aggregate evaluation for RETRIEVE target lists.

A RETRIEVE may name aggregate operations (AVG, SUM, COUNT, MIN, MAX) in its
target list; the optional BY clause groups records before aggregation
(thesis II.C.2: "the by-clause may be used to group records when an
aggregate operation is specified").

Evaluation is split where MBDS splits the work: each backend
:func:`fold`\\ s its slice into one partial state per group, and the
controller :func:`merge_folds` the N partials, in backend order, into the
result rows.  The partial states are chosen so the merge is bit-identical
to evaluating the concatenated records in one pass:

* ``COUNT(*)`` / ``COUNT(a)`` — an int; the merge adds them.
* ``SUM(a)`` / ``AVG(a)`` — the group's numeric values in record order;
  the merge sums the concatenation.  Summing per-backend subtotals would
  not do: float addition is not associative.
* ``MIN(a)`` / ``MAX(a)`` — ``[numerics, strings]``, each in record
  order; the merge applies ``min``/``max`` to the concatenated numerics,
  or to the strings when there are none.  Applying the one-pass builtin
  to the one-pass sequence keeps its NaN and tie behaviour as it is.
* a plain attribute — its value in the group's first record.

Groups keep first-seen order and the first-seen key object, as a dict
keyed by the BY value does (so ``1`` / ``1.0`` / ``True`` share one group).
A single store's aggregate is the merge of its one fold.

Besides the fold, this module hosts the **index fast path** for MIN / MAX
/ COUNT: when a whole-file aggregate request is eligible
(:func:`digest_plan`) the kernel answers it from per-backend
:class:`~repro.abdm.plan.AttributeIndexDigest` statistics instead of
broadcasting the request (:func:`merge_digests`), charging one disk
access per resident backend and examining zero records.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional, Sequence, TypeGuard

from repro.abdl.ast import Request, RetrieveRequest
from repro.abdm.record import FILE_ATTRIBUTE, Record
from repro.abdm.values import Value

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.abdl.ast import TargetItem
    from repro.abdm.plan import AttributeIndexDigest

#: Aggregates an attribute-index digest can answer without a scan.
INDEXABLE_AGGREGATES = ("COUNT", "MIN", "MAX")

#: One backend's probe: per-attribute digests plus its file record count.
DigestProbe = tuple[dict[str, "AttributeIndexDigest"], int]

#: One store's fold: ``[key, states]`` per group in first-seen order, with
#: one state per target item (None for ``*`` and for the BY attribute).
#: Plain lists and scalars only, so it crosses a worker pipe as it is.
Fold = list[list[Any]]


def _numeric_values(records: Iterable[Record], attribute: str) -> list[float]:
    values = []
    for record in records:
        value = record.get(attribute)
        if isinstance(value, (int, float)):
            values.append(value)
    return values


def _no_state(group: Sequence[Record]) -> None:
    return None


def _folder(item: "TargetItem", by: Optional[str]) -> Callable[[Sequence[Record]], Any]:
    """How *item* folds one non-empty group into its partial state."""
    operation, attribute = item.aggregate, item.attribute
    if operation is None:
        if item.is_wildcard or attribute == by:
            return _no_state
        return lambda group: group[0].get(attribute)
    if operation == "COUNT":
        if attribute == "*":
            return len
        return lambda group: sum(1 for r in group if r.get(attribute) is not None)
    if operation in ("SUM", "AVG"):
        return lambda group: _numeric_values(group, attribute)
    return lambda group: [
        _numeric_values(group, attribute),
        [v for v in (r.get(attribute) for r in group) if isinstance(v, str)],
    ]


def _merger(item: "TargetItem") -> Callable[[Sequence[Any]], Value]:
    """How *item*'s per-store states, in store order, become its value."""
    operation = item.aggregate
    if operation is None:
        return lambda states: states[0] if states else None
    if operation == "COUNT":
        return sum
    if operation in ("SUM", "AVG"):

        def total(states: Sequence[list[Value]]) -> Value:
            values = [value for state in states for value in state]
            if not values:
                return None
            result = sum(values)
            return result if operation == "SUM" else result / len(values)

        return total
    pick = min if operation == "MIN" else max

    def extreme(states: Sequence[list[list[Value]]]) -> Value:
        numerics = [value for state in states for value in state[0]]
        if numerics:
            return pick(numerics)
        strings = [value for state in states for value in state[1]]
        return pick(strings) if strings else None

    return extreme


def is_aggregate(request: Request) -> TypeGuard[RetrieveRequest]:
    """True for an aggregate RETRIEVE, which backends answer with folds."""
    return isinstance(request, RetrieveRequest) and request.has_aggregates


def fold(records: Sequence[Record], request: RetrieveRequest) -> Fold:
    """One store's partial states for an aggregate RETRIEVE over *records*.

    An empty *records* folds to no groups, with or without BY; the merge
    supplies the one row an ungrouped aggregate owes an empty input.
    """
    if request.by is None:
        groups = [(None, records)] if records else []
    else:
        groups = group_records(records, request.by)
    folders = [_folder(item, request.by) for item in request.target]
    return [[key, [state(group) for state in folders]] for key, group in groups]


def merge_folds(request: RetrieveRequest, folds: Sequence[Fold]) -> list[Record]:
    """The result rows of an aggregate RETRIEVE from its stores' folds.

    *folds* are in store (backend) order, which is the order of the
    concatenated records a single pass would have seen.  Each row carries
    the group key (under BY) plus the target list; every row is sealed.
    """
    by = request.by
    columns = [
        (position, item.output_name, _merger(item))
        for position, item in enumerate(request.target)
        if item.aggregate or not (item.is_wildcard or item.attribute == by)
    ]
    groups: dict[Value, list[list[Any]]] = {}
    for partial in folds:
        for key, states in partial:
            if key in groups:
                groups[key].append(states)
            else:
                groups[key] = [states]
    if by is None and not groups:
        groups[None] = []
    rows: list[Record] = []
    for key, parts in groups.items():
        pairs = [] if by is None else [(by, key)]
        for position, name, merge in columns:
            pairs.append((name, merge([part[position] for part in parts])))
        rows.append(Record.from_pairs(pairs).seal())
    return rows


def digest_plan(request: RetrieveRequest) -> Optional[tuple[str, list[str]]]:
    """The (file, attributes) an index-digest evaluation would need.

    Eligibility is deliberately narrow so the digest answer is provably
    identical to the scan answer: no BY clause, every target an
    aggregate in :data:`INDEXABLE_AGGREGATES` (``*`` only under COUNT),
    and a query that is exactly ``FILE = name`` — any further predicate
    would filter records the digests cannot see.  Returns None when the
    request must take the scan path.
    """
    if request.by is not None or not request.target:
        return None
    attributes: list[str] = []
    for item in request.target:
        if item.aggregate not in INDEXABLE_AGGREGATES:
            return None
        if item.attribute == "*":
            if item.aggregate != "COUNT":
                return None
        else:
            attributes.append(item.attribute)
    if len(request.query.clauses) != 1:
        return None
    predicates = tuple(request.query.clauses[0])
    if len(predicates) != 1:
        return None
    predicate = predicates[0]
    if (
        predicate.attribute != FILE_ATTRIBUTE
        or predicate.operator != "="
        or not isinstance(predicate.value, str)
    ):
        return None
    return predicate.value, attributes


def merge_digests(
    operation: str,
    attribute: str,
    probes: Sequence[DigestProbe],
) -> Value:
    """Evaluate one indexable aggregate from per-backend digest probes.

    Mirrors :func:`merge_folds` over the same records: COUNT(*) sums
    record counts, COUNT(attr) sums non-null entries (NaNs count — they
    are present and non-null), and MIN/MAX prefer the numeric domain over
    strings exactly like the fold.  Callers must have rejected
    NaN-bearing digests for MIN/MAX first (see
    :meth:`~repro.abdm.plan.AttributeIndexDigest`): whether ``min``/``max``
    answer NaN depends on record order, so only a scan reproduces it.
    """
    if operation == "COUNT":
        if attribute == "*":
            return sum(count for _, count in probes)
        return sum(
            digests[attribute].entries - digests[attribute].nulls
            for digests, _ in probes
        )
    picking_min = operation == "MIN"
    numeric = [
        bound
        for digests, _ in probes
        for bound in (
            digests[attribute].num_min if picking_min else digests[attribute].num_max,
        )
        if bound is not None
    ]
    if numeric:
        return min(numeric) if picking_min else max(numeric)
    strings = [
        bound
        for digests, _ in probes
        for bound in (
            digests[attribute].str_min if picking_min else digests[attribute].str_max,
        )
        if bound is not None
    ]
    if strings:
        return min(strings) if picking_min else max(strings)
    return None


def group_records(
    records: Sequence[Record],
    by: Optional[str],
) -> list[tuple[Value, list[Record]]]:
    """Group *records* by the value of attribute *by*, preserving first-seen
    group order and key object.  With ``by=None`` everything forms one
    anonymous group."""
    if by is None:
        return [(None, list(records))]
    groups: dict[Value, list[Record]] = {}
    for record in records:
        key = record.get(by)
        if key in groups:
            groups[key].append(record)
        else:
            groups[key] = [record]
    return list(groups.items())
