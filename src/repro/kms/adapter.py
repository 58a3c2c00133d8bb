"""Target adapters: what differs between AB(network) and AB(functional).

The DML semantics — currency, buffers, the statement state machines — are
identical whichever attribute-based database sits underneath; what changes
is *where the set-membership keywords live* and therefore which ABDL each
statement translates into.  :class:`TargetAdapter` is that seam: the
engine (:mod:`repro.kms.engine`) implements Chapter VI's statement logic
once, and each adapter supplies the target-specific request generation —
:class:`~repro.kms.network_adapter.NetworkTargetAdapter` for native
network databases (the Emdi translation) and
:class:`~repro.kms.functional_adapter.FunctionalTargetAdapter` for
transformed functional databases (the thesis's modified translation).
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence

from repro.abdm.predicate import Predicate, Query
from repro.abdm.record import Record
from repro.abdm.values import Value
from repro.kc.controller import KernelController
from repro.network.currency import CurrencyIndicatorTable
from repro.network.model import NetRecordType, NetSetType, NetworkSchema


class TargetAdapter(abc.ABC):
    """Target-specific half of the CODASYL-DML translation."""

    def __init__(self, schema: NetworkSchema, kc: KernelController) -> None:
        self.schema = schema
        self.kc = kc

    def find_any_query(
        self, record_type: str, extra: Sequence[Predicate] = ()
    ) -> Query:
        """The ABDL query FIND ANY translates to."""
        return Query.conjunction([Predicate("FILE", "=", record_type), *extra])

    # -- structural queries (shared implementation) ---------------------------------

    def record_def(self, record_type: str) -> NetRecordType:
        return self.schema.record(record_type)

    def set_def(self, set_name: str) -> NetSetType:
        return self.schema.set_type(set_name)

    def member_type(self, set_name: str) -> str:
        return self.set_def(set_name).member_name

    def owner_type(self, set_name: str) -> Optional[str]:
        set_def = self.set_def(set_name)
        return None if set_def.system_owned else set_def.owner_name

    def is_system_set(self, set_name: str) -> bool:
        return self.set_def(set_name).system_owned

    def dbkey_attribute(self, record_type: str) -> str:
        """The attribute carrying the database key (the type's own name)."""
        return record_type

    def check_item(self, record_type: str, item: str) -> None:
        """Raise unless *item* is a data item of *record_type*."""
        self.record_def(record_type).require_attribute(item)

    def user_items(self, record_type: str) -> list[str]:
        """The user-visible data items (excluding the database key)."""
        return [
            a.name
            for a in self.record_def(record_type).attributes
            if a.name != record_type
        ]

    # -- shared request patterns ----------------------------------------------------

    def find_any_records(
        self,
        record_type: str,
        extra: Sequence[Predicate] = (),
    ) -> list[Record]:
        """FIND ANY's retrieval (VI.B.1): the record type's file filtered
        by the USING-item predicates, grouped BY the database key."""
        raw = self.kc.retrieve(
            self.find_any_query(record_type, extra),
            by=self.dbkey_attribute(record_type),
        )
        return dedupe_by_dbkey(raw, self.dbkey_attribute(record_type))

    # -- target-specific operations -----------------------------------------------------

    @abc.abstractmethod
    def fetch_by_dbkey(self, record_type: str, dbkey: str) -> Optional[Record]:
        """Retrieve the (representative) AB record with *dbkey*."""

    @abc.abstractmethod
    def member_records(
        self,
        set_name: str,
        owner_dbkey: Optional[str],
        extra: Sequence[Predicate] = (),
    ) -> list[Record]:
        """The member records of one set occurrence, deduplicated and in
        stable order; *extra* predicates narrow the search (FIND ...
        WITHIN ... CURRENT USING).  *owner_dbkey* is None only for
        system-owned sets."""

    @abc.abstractmethod
    def set_memberships(self, record_type: str, record: Record) -> dict[str, Optional[str]]:
        """Owner database keys, per set in which *record* is a member, as
        far as they can be read off the record itself (used to update set
        currencies after a FIND)."""

    @abc.abstractmethod
    def extract_values(self, record_type: str, record: Record) -> dict[str, Value]:
        """Project an AB record onto the record type's data items."""

    @abc.abstractmethod
    def store(
        self,
        record_type: str,
        template: dict[str, Value],
        cit: CurrencyIndicatorTable,
    ) -> tuple[str, Record]:
        """STORE: create a record from the UWA *template*; returns the new
        database key and the representative AB record."""

    @abc.abstractmethod
    def connect(self, set_name: str, member_dbkey: str, cit: CurrencyIndicatorTable) -> Optional[str]:
        """CONNECT the record into the current occurrence of *set_name*.
        May return a replacement database key (link materialization)."""

    @abc.abstractmethod
    def disconnect(self, set_name: str, member_dbkey: str, cit: CurrencyIndicatorTable) -> None:
        """DISCONNECT the record from the current occurrence of *set_name*."""

    @abc.abstractmethod
    def modify(self, record_type: str, dbkey: str, item: str, value: Value) -> None:
        """MODIFY one data item of the record."""

    @abc.abstractmethod
    def erase(self, record_type: str, dbkey: str) -> None:
        """ERASE the record after the CODASYL/DAPLEX constraint checks."""


def dedupe_by_dbkey(records: Sequence[Record], dbkey_attribute: str) -> list[Record]:
    """Keep the first record per database key (multi-valued functions
    multiply AB(functional) records; the network view sees one member)."""
    seen: set[str] = set()
    unique: list[Record] = []
    for record in records:
        key = record.get(dbkey_attribute)
        if not isinstance(key, str):
            continue
        if key not in seen:
            seen.add(key)
            unique.append(record)
    return unique
