"""The one-pass aggregate evaluator, kept as the test oracle.

Until backends folded their slices this *was* how the kernel answered an
aggregate RETRIEVE: every backend shipped its matching records, and the
controller grouped the concatenation and evaluated each aggregate over
each group.  It is the definition the fold and merge of
:mod:`repro.abdl.aggregates` must reproduce bit for bit
(``test_fold_merge.py``).

:func:`evaluate_aggregate` and :func:`project_aggregates` are the code as
of the commit before the split, verbatim; ``group_records`` is shared,
since BY without aggregates still uses it.
"""

from __future__ import annotations

import struct
from typing import Iterable, Sequence

from repro.abdl.aggregates import group_records
from repro.abdl.ast import RetrieveRequest
from repro.abdm.record import Record
from repro.abdm.values import Value

#: Values that tell a one-pass evaluator from a careless split: NaNs (one
#: with a payload), signed zeros, ``1`` / ``1.0`` / ``True`` (equal, so
#: one group and tie-kept order), null, strings beside numbers, and a
#: cancellation list whose sum depends on the order of additions.
PITFALLS: tuple[Value, ...] = (
    float("nan"),
    struct.unpack("!d", bytes.fromhex("7ff8000000001234"))[0],
    -0.0,
    0.0,
    1,
    1.0,
    True,
    None,
    "a",
    "B",
    "",
    0.1,
    0.3,
    1e16,
    -1e16,
    -7,
    2**70,
)


def value_bits(value: object) -> object:
    """*value* compared to the bit: each float as its IEEE-754 image (NaN
    payloads, ``-0.0``), each other scalar tagged with its type (``True``
    is not ``1``), through lists, tuples and dicts."""
    if isinstance(value, float):
        return ("float", struct.pack("!d", value))
    if isinstance(value, (list, tuple)):
        return [value_bits(item) for item in value]
    if isinstance(value, dict):
        return {key: value_bits(item) for key, item in value.items()}
    return (type(value).__name__, value)


def rows_bits(records: Iterable[Record]) -> object:
    """Records compared to the bit: keyword order, types, float images."""
    return value_bits([record.pairs() for record in records])


def _numeric_values(records: Iterable[Record], attribute: str) -> list[float]:
    values = []
    for record in records:
        value = record.get(attribute)
        if isinstance(value, (int, float)):
            values.append(value)
    return values


def _present_values(records: Iterable[Record], attribute: str) -> list[Value]:
    return [r.get(attribute) for r in records if r.get(attribute) is not None]


def evaluate_aggregate(
    operation: str,
    attribute: str,
    records: Sequence[Record],
) -> Value:
    """Evaluate one aggregate over *records*.

    COUNT counts non-null keywords (``COUNT(*)`` counts records); AVG and
    SUM consider numeric keywords only; MIN and MAX order numerics
    numerically and strings lexicographically (mixed sets compare within
    the numeric subset first, falling back to strings when no numerics
    exist).  Empty inputs yield ``None`` except COUNT, which yields 0.
    """
    if operation == "COUNT":
        if attribute == "*":
            return len(records)
        return len(_present_values(records, attribute))
    if operation == "SUM":
        values = _numeric_values(records, attribute)
        return sum(values) if values else None
    if operation == "AVG":
        values = _numeric_values(records, attribute)
        return sum(values) / len(values) if values else None
    if operation in ("MIN", "MAX"):
        numerics = _numeric_values(records, attribute)
        pool: Sequence[Value]
        if numerics:
            pool = numerics
        else:
            pool = [v for v in _present_values(records, attribute) if isinstance(v, str)]
        if not pool:
            return None
        return min(pool) if operation == "MIN" else max(pool)
    raise ValueError(f"unknown aggregate operation {operation!r}")


def project_aggregates(records: Sequence[Record], request: RetrieveRequest) -> list[Record]:
    """The rows of an aggregate RETRIEVE over *records*, in one pass."""
    results: list[Record] = []
    for key, group in group_records(records, request.by):
        row = Record()
        if request.by is not None:
            row.set(request.by, key)
        for item in request.target:
            if item.is_wildcard:
                continue
            if item.aggregate:
                row.set(item.output_name, evaluate_aggregate(item.aggregate, item.attribute, group))
            elif item.attribute != request.by:
                row.set(item.attribute, group[0].get(item.attribute) if group else None)
        results.append(row.seal())
    return results
