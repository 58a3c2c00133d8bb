"""The AB(network) target adapter — the original Emdi translation.

Native network databases store every set membership in the *member*
record: each AB(network) record carries one keyword per set its record
type belongs to, valued with the owning record's database key (NULL while
disconnected).  That makes the Chapter VI request patterns uniform:

* members of an occurrence: ``RETRIEVE ((FILE = member) AND (set = owner-dbkey))``;
* CONNECT: ``UPDATE ((FILE = member) AND (member = dbkey)) (set = owner-dbkey)``;
* DISCONNECT: the same UPDATE with a NULL value;
* ERASE: abort when any member record still references the erased key.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.abdl.ast import (
    ALL_ATTRIBUTES,
    DeleteRequest,
    InsertRequest,
    Modifier,
    RetrieveRequest,
    TargetItem,
    UpdateRequest,
)
from repro.abdm.predicate import Predicate, Query
from repro.abdm.record import Record
from repro.abdm.values import Value
from repro.errors import ConstraintViolation, CurrencyError
from repro.kc.controller import KernelController
from repro.kms.adapter import TargetAdapter, dedupe_by_dbkey
from repro.mapping.net_to_abdm import ABNetworkMapping
from repro.network.currency import CurrencyIndicatorTable
from repro.network.model import InsertionMode, NetworkSchema, RetentionMode


class NetworkTargetAdapter(TargetAdapter):
    """Translates DML operations against an AB(network) database."""

    def __init__(
        self,
        schema: NetworkSchema,
        kc: KernelController,
        mapping: Optional[ABNetworkMapping] = None,
    ) -> None:
        super().__init__(schema, kc)
        # The mapping owns the database-key counters; sharing one instance
        # with the loader keeps STORE-minted keys from colliding with
        # loader-minted ones.
        self.mapping = mapping or ABNetworkMapping(schema)

    # -- retrieval ------------------------------------------------------------------

    def fetch_by_dbkey(self, record_type: str, dbkey: str) -> Optional[Record]:
        records = self.kc.retrieve(
            Query.conjunction(
                [
                    Predicate("FILE", "=", record_type),
                    Predicate(self.dbkey_attribute(record_type), "=", dbkey),
                ]
            )
        )
        return records[0] if records else None

    def member_records(
        self,
        set_name: str,
        owner_dbkey: Optional[str],
        extra: Sequence[Predicate] = (),
    ) -> list[Record]:
        member = self.member_type(set_name)
        predicates = [Predicate("FILE", "=", member)]
        if not self.is_system_set(set_name):
            if owner_dbkey is None:
                raise CurrencyError(
                    f"set {set_name!r} needs a current occurrence to enumerate members"
                )
            predicates.append(Predicate(set_name, "=", owner_dbkey))
        predicates.extend(extra)
        records = self.kc.retrieve(Query.conjunction(predicates))
        return dedupe_by_dbkey(records, self.dbkey_attribute(member))

    def set_memberships(self, record_type: str, record: Record) -> dict[str, Optional[str]]:
        memberships: dict[str, Optional[str]] = {}
        for set_def in self.schema.sets_with_member(record_type):
            if set_def.system_owned:
                memberships[set_def.name] = "SYSTEM"
            else:
                owner = record.get(set_def.name)
                memberships[set_def.name] = owner if isinstance(owner, str) else None
        return memberships

    def extract_values(self, record_type: str, record: Record) -> dict[str, Value]:
        return self.mapping.extract_values(record_type, record)

    # -- updates --------------------------------------------------------------------

    def store(
        self,
        record_type: str,
        template: dict[str, Value],
        cit: CurrencyIndicatorTable,
    ) -> tuple[str, Record]:
        record_def = self.record_def(record_type)
        values = {
            name: template[name]
            for name in (a.name for a in record_def.attributes)
            if name in template and name != record_type
        }
        # Duplicates check (VI.G): one auxiliary RETRIEVE over the items
        # whose duplicates flag is cleared.
        constrained = [
            a.name
            for a in record_def.attributes
            if not a.duplicates_allowed and a.name in values and a.name != record_type
        ]
        if constrained:
            predicates = [Predicate("FILE", "=", record_type)]
            predicates.extend(Predicate(item, "=", values[item]) for item in constrained)
            duplicates = self.kc.execute(
                RetrieveRequest(Query.conjunction(predicates), (TargetItem(record_type),))
            ).records
            if duplicates:
                raise ConstraintViolation(
                    f"STORE {record_type}: DUPLICATES ARE NOT ALLOWED for "
                    f"{', '.join(constrained)}"
                )
        # Automatic sets connect to their current occurrence (selection is
        # BY APPLICATION); manual sets start disconnected.
        memberships: dict[str, Optional[str]] = {}
        for set_def in self.schema.sets_with_member(record_type):
            if set_def.insertion is InsertionMode.AUTOMATIC and not set_def.system_owned:
                memberships[set_def.name] = cit.require_set_owner(set_def.name)
            else:
                memberships[set_def.name] = None
        dbkey = self.mapping.mint_key(record_type)
        record = self.mapping.build_record(record_type, dbkey, values, memberships)
        self.kc.execute(InsertRequest(record))
        return dbkey, record

    def connect(
        self,
        set_name: str,
        member_dbkey: str,
        cit: CurrencyIndicatorTable,
    ) -> Optional[str]:
        set_def = self.set_def(set_name)
        if set_def.insertion is not InsertionMode.MANUAL:
            raise ConstraintViolation(
                f"CONNECT requires MANUAL insertion, but set {set_name!r} is AUTOMATIC"
            )
        owner_dbkey = cit.require_set_owner(set_name)
        member = set_def.member_name
        # A record may not be a member of two occurrences of the same set;
        # an already-connected member must be DISCONNECTed first.
        current = self.fetch_by_dbkey(member, member_dbkey)
        if current is not None and current.get(set_name) is not None:
            raise ConstraintViolation(
                f"CONNECT: record {member_dbkey!r} is already a member of an "
                f"occurrence of {set_name!r}; DISCONNECT it first"
            )
        self.kc.execute(
            UpdateRequest(
                Query.conjunction(
                    [
                        Predicate("FILE", "=", member),
                        Predicate(self.dbkey_attribute(member), "=", member_dbkey),
                    ]
                ),
                Modifier(set_name, value=owner_dbkey),
            )
        )
        return None

    def disconnect(
        self,
        set_name: str,
        member_dbkey: str,
        cit: CurrencyIndicatorTable,
    ) -> None:
        set_def = self.set_def(set_name)
        if set_def.retention is not RetentionMode.OPTIONAL:
            raise ConstraintViolation(
                f"DISCONNECT requires OPTIONAL retention, but set {set_name!r} is "
                f"{set_def.retention.render()}"
            )
        owner_dbkey = cit.require_set_owner(set_name)
        member = set_def.member_name
        self.kc.execute(
            UpdateRequest(
                Query.conjunction(
                    [
                        Predicate("FILE", "=", member),
                        Predicate(self.dbkey_attribute(member), "=", member_dbkey),
                        Predicate(set_name, "=", owner_dbkey),
                    ]
                ),
                Modifier(set_name, value=None),
            )
        )

    def modify(self, record_type: str, dbkey: str, item: str, value: Value) -> None:
        self.check_item(record_type, item)
        self.kc.execute(
            UpdateRequest(
                Query.conjunction(
                    [
                        Predicate("FILE", "=", record_type),
                        Predicate(self.dbkey_attribute(record_type), "=", dbkey),
                    ]
                ),
                Modifier(item, value=value),
            )
        )

    def erase(self, record_type: str, dbkey: str) -> None:
        # CODASYL constraint: the record may not own a non-null occurrence.
        for set_def in self.schema.sets_with_owner(record_type):
            members = self.kc.execute(
                RetrieveRequest(
                    Query.conjunction(
                        [
                            Predicate("FILE", "=", set_def.member_name),
                            Predicate(set_def.name, "=", dbkey),
                        ]
                    ),
                    (TargetItem(set_def.name),),
                )
            ).records
            if members:
                raise ConstraintViolation(
                    f"ERASE {record_type}: record owns a non-null occurrence of "
                    f"set {set_def.name!r}"
                )
        self.kc.execute(
            DeleteRequest(
                Query.conjunction(
                    [
                        Predicate("FILE", "=", record_type),
                        Predicate(self.dbkey_attribute(record_type), "=", dbkey),
                    ]
                )
            )
        )
