"""Functional-to-ABDM mapping: the AB(functional) database (thesis III.C.1).

The mapping creates one AB file per entity type and subtype.  Every record
of a file begins ``(FILE, type-name)`` followed by ``(type-name,
unique-key)`` — the *artificial attribute* whose value is the database key
— and then one keyword per function.  Relationship-valued keywords hold
the database key of the related entity (the asterisked values of
Figure 3.3):

* a subtype record's key *is* its supertype's key (the thesis pairs "its
  entity supertype and its unique key"), which keeps ISA set occurrences
  implicit: the student record for person ``person$7`` is the record of
  file ``student`` whose ``(student, person$7)`` keyword matches;
* a single-valued entity function ``f`` yields ``(f, owner-dbkey)`` in
  the *domain* type's file — the member side of the transformed set;
* multi-valued functions (scalar or entity) multiply records: a faculty
  member teaching three courses contributes three AB records to file
  ``faculty``, identical except for the ``teaching`` keyword.  When an
  instance has several multi-valued functions populated, the records form
  the cross product of the value lists (each empty list contributing a
  single NULL), which is the representation Chapter VI's CONNECT /
  DISCONNECT cases manipulate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence, Union

from repro.abdm.record import FILE_ATTRIBUTE, Record
from repro.abdm.values import Value
from repro.errors import SchemaError, TransformError
from repro.functional.model import EntityType, Function, FunctionalSchema

#: A function value supplied by a loader: one kernel value, or a list of
#: them for multi-valued functions.
FunctionValue = Union[Value, Sequence[Value]]


@dataclass
class ABFileLayout:
    """Layout of one AB(functional) file (Figure 3.3 rows)."""

    type_name: str
    #: Attribute order: FILE, the type name (dbkey), then function names.
    attributes: list[str] = field(default_factory=list)
    #: Names of multi-valued (record-multiplying) functions.
    multivalued: list[str] = field(default_factory=list)


class ABFunctionalMapping:
    """The functional-to-ABDM mapping for one schema.

    Shared by the database loader (build AB records from instance values)
    and the kernel formatting subsystem (collapse AB records back into
    logical instances).
    """

    def __init__(self, schema: FunctionalSchema) -> None:
        self.schema = schema

    # -- structural view ----------------------------------------------------------

    def file_names(self) -> list[str]:
        """One AB file per entity type and subtype (step 1 of III.C.1)."""
        return self.schema.type_names()

    def layout(self, type_name: str) -> ABFileLayout:
        """The keyword layout of *type_name*'s file."""
        node = self.schema.entity_or_subtype(type_name)
        layout = ABFileLayout(type_name, [FILE_ATTRIBUTE, type_name])
        for function in node.functions:
            layout.attributes.append(function.name)
            if function.set_valued:
                layout.multivalued.append(function.name)
        return layout

    def dbkey_attribute(self, type_name: str) -> str:
        """The artificial attribute holding the database key."""
        return type_name

    # -- building records -----------------------------------------------------------

    def build_records(
        self,
        type_name: str,
        dbkey: str,
        values: Mapping[str, FunctionValue],
    ) -> list[Record]:
        """Build the AB records for one entity instance.

        *values* maps function names to values; entity-valued functions
        take the related instance's database key (a string).  Unknown
        function names raise; missing functions default to NULL.
        """
        node = self.schema.entity_or_subtype(type_name)
        known = {f.name for f in node.functions}
        for name in values:
            if name not in known:
                raise SchemaError(
                    f"{type_name!r} has no function {name!r} "
                    f"(declared functions: {sorted(known)})"
                )
        single_pairs: list[tuple[str, Value]] = [
            (FILE_ATTRIBUTE, type_name),
            (type_name, dbkey),
        ]
        multi_lists: list[tuple[str, list[Value]]] = []
        for function in node.functions:
            supplied = values.get(function.name)
            if function.set_valued:
                if supplied is None:
                    expansion: list[Value] = [None]
                elif isinstance(supplied, (list, tuple)):
                    expansion = list(supplied) or [None]
                else:
                    expansion = [supplied]
                multi_lists.append((function.name, expansion))
            else:
                if isinstance(supplied, (list, tuple)):
                    raise SchemaError(
                        f"function {type_name}.{function.name} is single-valued "
                        f"but got a list"
                    )
                single_pairs.append((function.name, supplied))
        if not multi_lists:
            return [Record.from_pairs(single_pairs)]
        records = []
        names = [name for name, _ in multi_lists]
        for combination in itertools.product(*(vals for _, vals in multi_lists)):
            pairs = list(single_pairs)
            pairs.extend(zip(names, combination))
            records.append(Record.from_pairs(pairs))
        return records

    # -- collapsing records ------------------------------------------------------------

    def collapse(self, type_name: str, records: Sequence[Record]) -> dict[str, FunctionValue]:
        """Collapse the AB records of one instance back to function values.

        Inverse of :meth:`build_records`: scalar keywords come from the
        first record; multi-valued functions gather the distinct non-null
        values across the group (order of first appearance).
        """
        if not records:
            return {}
        node = self.schema.entity_or_subtype(type_name)
        values: dict[str, FunctionValue] = {}
        values[type_name] = records[0].get(type_name)
        for function in node.functions:
            if function.set_valued:
                values[function.name] = self.distinct_values(records, function.name)
            else:
                values[function.name] = records[0].get(function.name)
        return values

    @staticmethod
    def distinct_values(records: Iterable[Record], function_name: str) -> list[Value]:
        """The distinct non-null values *function_name* takes across one
        instance's AB records, in order of first appearance."""
        return list(
            dict.fromkeys(
                value
                for record in records
                if (value := record.get(function_name)) is not None
            )
        )

    def group_by_dbkey(
        self,
        type_name: str,
        records: Iterable[Record],
    ) -> dict[str, list[Record]]:
        """Bucket AB records by database key (one logical instance each)."""
        key_attribute = self.dbkey_attribute(type_name)
        groups: dict[str, list[Record]] = {}
        for record in records:
            key = record.get(key_attribute)
            if isinstance(key, str):
                groups.setdefault(key, []).append(record)
        return groups

    # -- inheritance -----------------------------------------------------------------

    def inherited_files(self, type_name: str) -> list[str]:
        """Files holding inherited values for *type_name* (its ancestors)."""
        return self.schema.supertype_chain(type_name)
