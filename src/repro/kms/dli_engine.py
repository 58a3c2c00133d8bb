"""The DL/I language interface: call execution over AB(hierarchical).

DL/I calls position a cursor over the segment trees and read or write
through an I/O area:

* **GU** walks its SSA path level by level — each level retrieves the
  qualifying occurrences under the level above and takes the first in
  hierarchic order;
* **GN** continues a scan of one segment type (or, unqualified, of the
  whole database in hierarchic order) past the current position;
* **GNP** iterates the children of the current *parentage* — the
  position established by the last successful GU/GN;
* **ISRT** inserts a new occurrence under the parent its SSA path
  locates, with fields from the I/O area;
* **REPL** rewrites the current segment's fields from the I/O area;
* **DLET** deletes the current segment *and its whole subtree* (the
  hierarchical delete rule).

Status codes follow IMS conventions: `` `` (blank, OK), ``GE`` (not
found), ``GB`` (end of database / set).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.abdl.ast import DeleteRequest, InsertRequest, Modifier, UpdateRequest
from repro.abdm.predicate import Predicate, Query
from repro.abdm.record import Record
from repro.abdm.values import Value
from repro.errors import ExecutionError, SchemaError, TranslationError
from repro.hierarchical import dli
from repro.hierarchical.model import HierarchicalSchema
from repro.kc.controller import KernelController
from repro.mapping.hie_to_abdm import (
    ABHierarchicalMapping,
    PARENT_ATTRIBUTE,
    SEQUENCE_ATTRIBUTE,
)
from repro.qc import runtime as qc_runtime

STATUS_OK = "  "
STATUS_NOT_FOUND = "GE"
STATUS_END = "GB"


@dataclass
class DliResult:
    """Outcome of one DL/I call."""

    call: str
    status: str = STATUS_OK
    segment: Optional[str] = None
    dbkey: Optional[str] = None
    fields: dict[str, Value] = field(default_factory=dict)
    requests: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


@dataclass
class _Position:
    segment: str
    dbkey: str
    hseq: int


class DliEngine:
    """Executes DL/I calls against one AB(hierarchical) database."""

    def __init__(
        self,
        schema: HierarchicalSchema,
        kc: KernelController,
        mapping: Optional[ABHierarchicalMapping] = None,
    ) -> None:
        self.schema = schema
        self.kc = kc
        self.mapping = mapping or ABHierarchicalMapping(schema)
        self.io_area: dict[str, Value] = {}
        self._position: Optional[_Position] = None
        self._parentage: Optional[_Position] = None

    # -- public API ---------------------------------------------------------------

    def execute(self, call: Union[str, dli.DliCall]) -> DliResult:
        if isinstance(call, str):
            call = dli.parse_call(call)
        with self.kc.obs.tracer.span("kms.translate") as span:
            log_start = self.kc.mark()
            if isinstance(call, dli.SetField):
                self.io_area[call.name] = call.value
                result = DliResult(call.render())
            elif isinstance(call, dli.GetUnique):
                result = self._get_unique(call)
            elif isinstance(call, dli.GetNext):
                result = self._get_next(call)
            elif isinstance(call, dli.GetNextWithinParent):
                result = self._get_next_within_parent(call)
            elif isinstance(call, dli.Insert):
                result = self._insert(call)
            elif isinstance(call, dli.Replace):
                result = self._replace(call)
            elif isinstance(call, dli.Delete):
                result = self._delete(call)
            else:
                raise TranslationError(f"unknown DL/I call {type(call).__name__}")
            result.requests = self.kc.since(log_start)
            if span:
                span.record(
                    language="dli",
                    statement=type(call).__name__,
                    requests=len(result.requests),
                )
        return result

    def run(self, text: str) -> list[DliResult]:
        return [self.execute(c) for c in qc_runtime.parsed("dli", text, dli.parse_calls)]

    # -- retrieval helpers ------------------------------------------------------------

    def _fetch(self, segment: str, predicates: list[Predicate]) -> list[Record]:
        """Matching records of one segment file, in hierarchic order."""
        records = self.kc.retrieve(
            Query.conjunction([Predicate("FILE", "=", segment), *predicates])
        )
        return sorted(records, key=lambda r: r.get(SEQUENCE_ATTRIBUTE) or 0)

    def _qualify(self, ssa: dli.SSA) -> list[Predicate]:
        segment = self.schema.segment(ssa.segment)
        if not ssa.qualified:
            return []
        segment.require_field(ssa.field or "")
        return [Predicate(ssa.field or "", ssa.operator, ssa.value)]

    def _made_current(self, segment: str, record: Record, result: DliResult) -> None:
        dbkey = record.get(segment)
        hseq = record.get(SEQUENCE_ATTRIBUTE) or 0
        self._position = _Position(segment, str(dbkey), int(hseq))
        self._parentage = self._position
        self.io_area = self.mapping.extract_values(segment, record)
        result.segment = segment
        result.dbkey = str(dbkey)
        result.fields = dict(self.io_area)

    # -- GU ------------------------------------------------------------------------------

    def _get_unique(self, call: dli.GetUnique) -> DliResult:
        result = DliResult(call.render())
        self._check_path(call.ssas)
        parent_key: Optional[str] = None
        record: Optional[Record] = None
        for level, ssa in enumerate(call.ssas):
            predicates = self._qualify(ssa)
            if level == 0:
                if not self.schema.segment(ssa.segment).is_root:
                    # A non-root first SSA scans the whole type.
                    pass
                else:
                    predicates.append(Predicate(PARENT_ATTRIBUTE, "=", None))
            else:
                predicates.append(Predicate(PARENT_ATTRIBUTE, "=", parent_key))
            matches = self._fetch(ssa.segment, predicates)
            if not matches:
                result.status = STATUS_NOT_FOUND
                return result
            record = matches[0]
            parent_key = str(record.get(ssa.segment))
        assert record is not None
        self._made_current(call.ssas[-1].segment, record, result)
        return result

    def _check_path(self, ssas: tuple[dli.SSA, ...]) -> None:
        """Each SSA must name the child of the one before it."""
        for previous, current in zip(ssas, ssas[1:]):
            segment = self.schema.segment(current.segment)
            if segment.parent != previous.segment:
                raise TranslationError(
                    f"SSA path breaks the hierarchy: {current.segment!r} is not "
                    f"a child of {previous.segment!r}"
                )
        self.schema.segment(ssas[0].segment)

    # -- GN / GNP -----------------------------------------------------------------------

    def _get_next(self, call: dli.GetNext) -> DliResult:
        result = DliResult(call.render())
        if call.ssa is not None:
            segment = call.ssa.segment
            predicates = self._qualify(call.ssa)
            after = (
                self._position.hseq
                if self._position is not None and self._position.segment == segment
                else 0
            )
            for record in self._fetch(segment, predicates):
                if int(record.get(SEQUENCE_ATTRIBUTE) or 0) > after:
                    self._made_current(segment, record, result)
                    return result
            result.status = STATUS_END
            return result
        # Unqualified GN: the full database in hierarchic order.
        sequence = self._hierarchic_sequence()
        after_index = -1
        if self._position is not None:
            for index, (segment, record) in enumerate(sequence):
                if str(record.get(segment)) == self._position.dbkey:
                    after_index = index
                    break
        if after_index + 1 >= len(sequence):
            result.status = STATUS_END
            return result
        segment, record = sequence[after_index + 1]
        self._made_current(segment, record, result)
        return result

    def _hierarchic_sequence(self) -> list[tuple[str, Record]]:
        """Every segment occurrence in hierarchic (pre-order) sequence."""
        by_parent: dict[Optional[str], list[tuple[str, Record]]] = {}
        for segment in self.schema.hierarchical_order():
            for record in self._fetch(segment, []):
                parent = record.get(PARENT_ATTRIBUTE)
                by_parent.setdefault(
                    parent if isinstance(parent, str) else None, []
                ).append((segment, record))
        for children in by_parent.values():
            children.sort(key=lambda pair: pair[1].get(SEQUENCE_ATTRIBUTE) or 0)
        sequence: list[tuple[str, Record]] = []

        def visit(parent_key: Optional[str]) -> None:
            for segment, record in by_parent.get(parent_key, []):
                sequence.append((segment, record))
                visit(str(record.get(segment)))

        visit(None)
        return sequence

    def _get_next_within_parent(self, call: dli.GetNextWithinParent) -> DliResult:
        result = DliResult(call.render())
        if self._parentage is None:
            raise ExecutionError("GNP needs parentage (issue a GU/GN first)")
        parent = self._parentage
        child_types = (
            [call.ssa.segment]
            if call.ssa is not None
            else [c.name for c in self.schema.children_of(parent.segment)]
        )
        predicates_by_type = {
            segment: ([] if call.ssa is None else self._qualify(call.ssa))
            for segment in child_types
        }
        children: list[tuple[str, Record]] = []
        for segment in child_types:
            child_def = self.schema.segment(segment)
            if child_def.parent != parent.segment:
                raise TranslationError(
                    f"{segment!r} is not a child of {parent.segment!r}"
                )
            for record in self._fetch(
                segment,
                [Predicate(PARENT_ATTRIBUTE, "=", parent.dbkey), *predicates_by_type[segment]],
            ):
                children.append((segment, record))
        children.sort(key=lambda pair: pair[1].get(SEQUENCE_ATTRIBUTE) or 0)
        after = (
            self._position.hseq
            if self._position is not None and self._position is not self._parentage
            else -1
        )
        for segment, record in children:
            if int(record.get(SEQUENCE_ATTRIBUTE) or 0) > after:
                # GNP moves the position but keeps the parentage.
                saved_parentage = self._parentage
                self._made_current(segment, record, result)
                self._parentage = saved_parentage
                return result
        result.status = STATUS_END
        return result

    # -- updates -----------------------------------------------------------------------

    def _insert(self, call: dli.Insert) -> DliResult:
        result = DliResult(call.render())
        self._check_path(call.ssas)
        target = call.ssas[-1]
        target_def = self.schema.segment(target.segment)
        parent_key: Optional[str] = None
        if len(call.ssas) > 1:
            # The internal parent lookup must not clobber the I/O area the
            # user primed with FLD calls for the new segment.
            pending_io = dict(self.io_area)
            located = self._get_unique(dli.GetUnique(call.ssas[:-1]))
            self.io_area = pending_io
            if not located.ok:
                result.status = STATUS_NOT_FOUND
                return result
            parent_key = located.dbkey
        elif not target_def.is_root:
            raise TranslationError(
                f"ISRT {target.segment}: non-root segments need the parent SSA path"
            )
        values = {
            name: value
            for name, value in self.io_area.items()
            if target_def.field_named(name)
        }
        dbkey = self.mapping.mint_key(target.segment)
        record = self.mapping.build_record(target.segment, dbkey, values, parent_key)
        self.kc.execute(InsertRequest(record))
        self._made_current(target.segment, record, result)
        return result

    def _replace(self, call: dli.Replace) -> DliResult:
        result = DliResult(call.render())
        if self._position is None:
            raise ExecutionError("REPL needs a current segment (issue a G* first)")
        position = self._position
        segment_def = self.schema.segment(position.segment)
        for segment_field in segment_def.fields:
            if segment_field.name not in self.io_area:
                continue
            value = self.io_area[segment_field.name]
            if not segment_field.type.accepts(value):
                raise SchemaError(
                    f"field {position.segment}.{segment_field.name} rejects {value!r}"
                )
            self.kc.execute(
                UpdateRequest(
                    Query.conjunction(
                        [
                            Predicate("FILE", "=", position.segment),
                            Predicate(position.segment, "=", position.dbkey),
                        ]
                    ),
                    Modifier(segment_field.name, value=value),
                )
            )
        result.segment = position.segment
        result.dbkey = position.dbkey
        return result

    def _delete(self, call: dli.Delete) -> DliResult:
        result = DliResult(call.render())
        if self._position is None:
            raise ExecutionError("DLET needs a current segment (issue a G* first)")
        position = self._position
        # Collect the subtree level by level, then delete bottom-up-safe
        # (order does not matter for correctness; each level is one DELETE
        # per segment type over the parent keys of the level above).
        frontier: dict[str, list[str]] = {position.segment: [position.dbkey]}
        self._delete_keys(position.segment, [position.dbkey])
        while frontier:
            next_frontier: dict[str, list[str]] = {}
            for segment, keys in frontier.items():
                for child in self.schema.children_of(segment):
                    child_keys: list[str] = []
                    for record in self._children_of_keys(child.name, keys):
                        child_keys.append(str(record.get(child.name)))
                    if child_keys:
                        self._delete_keys(child.name, child_keys)
                        next_frontier.setdefault(child.name, []).extend(child_keys)
            frontier = next_frontier
        result.segment = position.segment
        result.dbkey = position.dbkey
        self._position = None
        self._parentage = None
        return result

    def _children_of_keys(self, segment: str, parent_keys: list[str]) -> list[Record]:
        from repro.abdm.predicate import Conjunction

        clauses = [
            Conjunction(
                [
                    Predicate("FILE", "=", segment),
                    Predicate(PARENT_ATTRIBUTE, "=", key),
                ]
            )
            for key in parent_keys
        ]
        return self.kc.retrieve(Query(clauses))

    def _delete_keys(self, segment: str, keys: list[str]) -> None:
        from repro.abdm.predicate import Conjunction

        clauses = [
            Conjunction(
                [
                    Predicate("FILE", "=", segment),
                    Predicate(segment, "=", key),
                ]
            )
            for key in keys
        ]
        self.kc.execute(DeleteRequest(Query(clauses)))
