"""Request ASTs for ABDL, the attribute-based (kernel) data language.

ABDL provides five operations (thesis Chapter II.C.2): INSERT, DELETE,
UPDATE, RETRIEVE and RETRIEVE-COMMON.  A *request* is one operation with its
qualification; a *transaction* groups requests executed sequentially.

The AST nodes render themselves back to the concrete ABDL text used
throughout the thesis (e.g. ``RETRIEVE ((FILE = course) AND (title =
'Advanced Database')) (title, dept, semester, credits) BY course``), so
tests can assert that the CODASYL-DML translation emits exactly the
requests the chapters show.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Union

from repro.abdm.predicate import Query
from repro.abdm.record import FILE_ATTRIBUTE, Record
from repro.abdm.values import Value, render
from repro.errors import ExecutionError

#: Aggregate operations allowed in a RETRIEVE target list.
AGGREGATE_OPERATIONS = ("AVG", "SUM", "COUNT", "MIN", "MAX")


@dataclass(frozen=True)
class TargetItem:
    """One target-list entry: a plain attribute or an aggregate over one.

    ``TargetItem('salary')`` outputs the attribute; ``TargetItem('salary',
    'AVG')`` outputs the aggregate.  The distinguished attribute ``*``
    stands for the thesis's "(all attributes)" target list.
    """

    attribute: str
    aggregate: Optional[str] = None

    def __post_init__(self) -> None:
        if self.aggregate is not None and self.aggregate not in AGGREGATE_OPERATIONS:
            raise ValueError(f"unknown aggregate {self.aggregate!r}")

    @property
    def is_wildcard(self) -> bool:
        return self.attribute == "*" and self.aggregate is None

    def render(self) -> str:
        if self.aggregate:
            return f"{self.aggregate}({self.attribute})"
        return self.attribute

    @property
    def output_name(self) -> str:
        """Column name in the result (e.g. ``AVG(salary)``)."""
        return self.render()


ALL_ATTRIBUTES = TargetItem("*")


class Request:
    """Base class for the five ABDL request kinds."""

    operation: str = "?"

    def render(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class InsertRequest(Request):
    """``INSERT (<attr, value>, ...)`` — add one record to the database."""

    record: Record

    operation = "INSERT"

    def render(self) -> str:
        return f"INSERT {self.record.render()}"


@dataclass(frozen=True)
class BulkInsertRequest(Request):
    """``BULK-INSERT`` — add a batch of records as one journaled unit.

    A first-class request kind rather than N :class:`InsertRequest`\\ s:
    the WAL journals the whole batch as a single record (one append, one
    replay), the store applies it with deferred index maintenance, and
    recovery treats the batch atomically — it is either fully applied or
    not at all, never torn.  All records in one request are bound for the
    same backend; the controller routes a loader batch into per-backend
    ``BulkInsertRequest``\\ s before journaling.
    """

    records: tuple[Record, ...]

    operation = "BULK-INSERT"

    def __init__(self, records: Sequence[Record]) -> None:
        object.__setattr__(self, "records", tuple(records))

    def __len__(self) -> int:
        return len(self.records)

    def render(self) -> str:
        body = ", ".join(record.render() for record in self.records)
        return f"BULK-INSERT [{body}]"


@dataclass(frozen=True)
class DeleteRequest(Request):
    """``DELETE query`` — remove every record satisfying the query."""

    query: Query

    operation = "DELETE"

    def render(self) -> str:
        return f"DELETE {self.query.render()}"


_ARITHMETIC = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}


@dataclass(frozen=True)
class Modifier:
    """An UPDATE modifier: set *attribute* to a constant or simple expression.

    Supported forms mirror what the translation needs:

    * ``attribute = <constant>`` (including ``NULL``),
    * ``attribute = attribute <op> <constant>`` for ``+ - * /`` (the ABDL
      "function of the old value" modifier).

    A modifier that could only fail once it meets a record — an unknown
    operator, a zero divisor — is refused here, at construction: an
    UPDATE is journaled before it is applied, and a journaled request
    that cannot apply would make the log unreplayable.  So is a modifier
    of ``FILE``: a record's file is the one its ``FILE`` keyword named
    when it was stored, and rewriting the keyword would leave the record
    in a file it no longer names (file-scoped scans rely on every record
    of file *f* carrying ``FILE = f``).
    """

    attribute: str
    value: Value = None
    arithmetic: Optional[str] = None  # one of + - * / when self-referential
    operand: Value = None

    def __post_init__(self) -> None:
        if self.attribute == FILE_ATTRIBUTE:
            raise ExecutionError(
                f"the modifier {self.render()} rewrites FILE; a record's "
                "file cannot change (delete it and insert it anew)"
            )
        if self.arithmetic is None:
            return
        if self.arithmetic not in _ARITHMETIC:
            raise ExecutionError(
                f"unknown arithmetic operator {self.arithmetic!r} in the "
                f"modifier of {self.attribute!r}"
            )
        if (
            self.arithmetic == "/"
            and isinstance(self.operand, (int, float))
            and self.operand == 0
        ):
            raise ExecutionError(
                f"the modifier ({self.attribute} = {self.attribute} / 0) "
                "divides by zero"
            )

    def apply(self, record: Record) -> None:
        """Apply the modification to *record* in place."""
        if self.arithmetic is None:
            record.set(self.attribute, self.value)
            return
        old = record.get(self.attribute)
        if not isinstance(old, (int, float)) or not isinstance(self.operand, (int, float)):
            # Arithmetic over non-numbers (or nulls) leaves the keyword
            # unchanged: the kernel never coerces domains.
            return
        record.set(self.attribute, _ARITHMETIC[self.arithmetic](old, self.operand))

    def render(self) -> str:
        if self.arithmetic is None:
            return f"({self.attribute} = {render(self.value)})"
        return (
            f"({self.attribute} = {self.attribute} "
            f"{self.arithmetic} {render(self.operand)})"
        )


@dataclass(frozen=True)
class UpdateRequest(Request):
    """``UPDATE query modifier`` — modify every record satisfying the query."""

    query: Query
    modifier: Modifier

    operation = "UPDATE"

    def render(self) -> str:
        return f"UPDATE {self.query.render()} {self.modifier.render()}"


@dataclass(frozen=True)
class RetrieveRequest(Request):
    """``RETRIEVE query (target-list) [BY attribute]``."""

    query: Query
    target: tuple[TargetItem, ...] = (ALL_ATTRIBUTES,)
    by: Optional[str] = None

    operation = "RETRIEVE"

    def __init__(
        self,
        query: Query,
        target: Sequence[TargetItem] = (ALL_ATTRIBUTES,),
        by: Optional[str] = None,
    ) -> None:
        object.__setattr__(self, "query", query)
        object.__setattr__(self, "target", tuple(target))
        object.__setattr__(self, "by", by)

    @property
    def wants_all(self) -> bool:
        return any(item.is_wildcard for item in self.target)

    @property
    def has_aggregates(self) -> bool:
        return any(item.aggregate for item in self.target)

    def render(self) -> str:
        targets = ", ".join(item.render() for item in self.target)
        text = f"RETRIEVE {self.query.render()} ({targets})"
        if self.by:
            text += f" BY {self.by}"
        return text


@dataclass(frozen=True)
class RetrieveCommonRequest(Request):
    """``RETRIEVE-COMMON``: join two retrievals on a common attribute pair.

    Records satisfying *left_query* whose *left_attribute* value equals some
    record of *right_query*'s *right_attribute* value are merged pairwise;
    the target list projects the merged record (right-side keywords are
    prefixed with the right file name on collision).  The thesis notes MLDS
    defines this operation but its translation does not use it; it is
    provided for kernel completeness.
    """

    left_query: Query
    left_attribute: str
    right_query: Query
    right_attribute: str
    target: tuple[TargetItem, ...] = (ALL_ATTRIBUTES,)

    operation = "RETRIEVE-COMMON"

    def __init__(
        self,
        left_query: Query,
        left_attribute: str,
        right_query: Query,
        right_attribute: str,
        target: Sequence[TargetItem] = (ALL_ATTRIBUTES,),
    ) -> None:
        object.__setattr__(self, "left_query", left_query)
        object.__setattr__(self, "left_attribute", left_attribute)
        object.__setattr__(self, "right_query", right_query)
        object.__setattr__(self, "right_attribute", right_attribute)
        object.__setattr__(self, "target", tuple(target))

    def render(self) -> str:
        targets = ", ".join(item.render() for item in self.target)
        return (
            f"RETRIEVE-COMMON {self.left_query.render()} "
            f"COMMON ({self.left_attribute}, {self.right_attribute}) "
            f"{self.right_query.render()} ({targets})"
        )


@dataclass(frozen=True)
class Transaction:
    """Two or more sequentially executed requests (thesis II.C.2)."""

    requests: tuple[Request, ...]

    def __init__(self, requests: Sequence[Request]) -> None:
        object.__setattr__(self, "requests", tuple(requests))

    def __iter__(self) -> Iterator[Request]:
        return iter(self.requests)

    def __len__(self) -> int:
        return len(self.requests)

    def render(self) -> str:
        return "\n".join(request.render() for request in self.requests)


AnyRequest = Union[
    InsertRequest,
    BulkInsertRequest,
    DeleteRequest,
    UpdateRequest,
    RetrieveRequest,
    RetrieveCommonRequest,
]
