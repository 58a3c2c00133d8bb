"""The AB(functional) target adapter — the thesis's modified translation.

A transformed functional database stores set memberships where the
Chapter III mapping put the function values, so each set kind translates
differently (the dispatch Chapter VI performs by "traversing the
functional schema"):

* **ISA sets** are implicit: a subtype record shares its supertype's
  database key, so members of an occurrence are
  ``RETRIEVE ((FILE = subtype) AND (subtype = owner-dbkey))``.
* **Single-valued function sets** (carrier = member) keep
  ``(set, owner-dbkey)`` in the domain file; CONNECT / DISCONNECT are
  UPDATEs of that keyword, exactly the thesis's member-record cases.
* **One-to-many function sets** (carrier = owner) keep
  ``(set, member-dbkey)`` in the *owner's* file, one AB record per member;
  CONNECT walks the four owner-record cases of VI.D.2.a (update the NULL,
  update every scalar-multi-valued duplicate, insert a copy, insert one
  copy per duplicate) and DISCONNECT the matching VI.E cases (null out a
  singleton, delete the duplicated records otherwise).
* **Many-to-many pairs** materialize as ``link_X`` member records of two
  sets.  Links are *virtual* on this target: a link record is synthesized
  from the owner-side keyword pair, its database key being
  ``<left-key>~<right-key>``.  STORE stages a link until CONNECTs to both
  sets supply its two owners, then the owner-side insertion runs on both
  files (both functions of the pair exist in the functional schema, so
  both files carry the relationship, as Figure 3.3's asterisks show).

ERASE performs the thesis's two auxiliary RETRIEVEs — abort if the record
owns a non-null occurrence (CODASYL) or is referenced as a function value
(DAPLEX's DESTROY rule) — before the final DELETE.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.abdl.ast import (
    DeleteRequest,
    InsertRequest,
    Modifier,
    RetrieveRequest,
    TargetItem,
    UpdateRequest,
)
from repro.abdm.predicate import Conjunction, Predicate, Query
from repro.abdm.record import FILE_ATTRIBUTE, Record
from repro.abdm.values import Value
from repro.errors import (
    ConstraintViolation,
    CurrencyError,
    SchemaError,
    TranslationError,
)
from repro.kc.controller import KernelController
from repro.kms.adapter import TargetAdapter, dedupe_by_dbkey
from repro.mapping.fun_to_abdm import ABFunctionalMapping
from repro.mapping.fun_to_net import Carrier, NetworkTransformation, SetKind, SetOrigin
from repro.mapping.overlap import OverlapTable
from repro.network.currency import CurrencyIndicatorTable

#: Separator of the two side keys inside a virtual link database key.
LINK_KEY_SEPARATOR = "~"


class FunctionalTargetAdapter(TargetAdapter):
    """Translates DML operations against an AB(functional) database."""

    def __init__(
        self,
        transformation: NetworkTransformation,
        kc: KernelController,
    ) -> None:
        super().__init__(transformation.schema, kc)
        self.transformation = transformation
        self.functional = transformation.source
        self.mapping = ABFunctionalMapping(self.functional)
        self.overlap_table = OverlapTable(self.functional)
        #: Links stored but not yet connected to both of their sets:
        #: staged dbkey -> {set name: owner dbkey}.
        self._staged_links: dict[str, dict[str, str]] = {}
        self._staged_counter = 0

    # -- provenance helpers ------------------------------------------------------

    def origin(self, set_name: str) -> SetOrigin:
        return self.transformation.origin(set_name)

    def is_link(self, record_type: str) -> bool:
        return self.transformation.is_link_record(record_type)

    def _link_sides(self, link_name: str) -> tuple[str, str]:
        info = self.transformation.links[link_name]
        return info.first_set, info.second_set

    def split_link_key(self, link_name: str, dbkey: str) -> tuple[str, str]:
        """Split a materialized link key into its two side keys.

        The key is ``<first-side-owner>~<second-side-owner>`` where the
        sides follow the link's set order (first set's owner first).
        """
        if LINK_KEY_SEPARATOR not in dbkey:
            raise TranslationError(
                f"link record key {dbkey!r} is staged or malformed; CONNECT it to "
                f"both of its sets first"
            )
        left, _, right = dbkey.partition(LINK_KEY_SEPARATOR)
        return left, right

    def _virtual_link(self, link_name: str, first_owner: str, second_owner: str) -> Record:
        first_set, second_set = self._link_sides(link_name)
        return Record.from_pairs(
            [
                (FILE_ATTRIBUTE, link_name),
                (link_name, f"{first_owner}{LINK_KEY_SEPARATOR}{second_owner}"),
                (first_set, first_owner),
                (second_set, second_owner),
            ]
        )

    # -- retrieval -----------------------------------------------------------------

    def find_any_records(self, record_type: str, extra: Sequence[Predicate] = ()) -> list[Record]:
        if self.is_link(record_type):
            raise TranslationError(
                f"FIND ANY cannot target link record type {record_type!r}; "
                f"navigate its sets with FIND FIRST/NEXT instead"
            )
        return super().find_any_records(record_type, extra)

    def fetch_by_dbkey(self, record_type: str, dbkey: str) -> Optional[Record]:
        if self.is_link(record_type):
            if dbkey in self._staged_links:
                # A staged link has no kernel representation yet.
                record = Record.from_pairs(
                    [(FILE_ATTRIBUTE, record_type), (record_type, dbkey)]
                )
                for set_name, owner in self._staged_links[dbkey].items():
                    record.set(set_name, owner)
                return record
            first_owner, second_owner = self.split_link_key(record_type, dbkey)
            if self._link_pair_exists(record_type, first_owner, second_owner):
                return self._virtual_link(record_type, first_owner, second_owner)
            return None
        records = self.kc.retrieve(
            Query.conjunction(
                [
                    Predicate("FILE", "=", record_type),
                    Predicate(self.dbkey_attribute(record_type), "=", dbkey),
                ]
            )
        )
        return records[0] if records else None

    def _link_pair_exists(self, link_name: str, first_owner: str, second_owner: str) -> bool:
        first_set, _ = self._link_sides(link_name)
        origin = self.origin(first_set)
        domain = origin.domain_type or ""
        records = self.kc.retrieve(
            Query.conjunction(
                [
                    Predicate("FILE", "=", domain),
                    Predicate(self.dbkey_attribute(domain), "=", first_owner),
                    Predicate(first_set, "=", second_owner),
                ]
            )
        )
        return bool(records)

    def member_records(
        self,
        set_name: str,
        owner_dbkey: Optional[str],
        extra: Sequence[Predicate] = (),
    ) -> list[Record]:
        member = self.member_type(set_name)  # validates the set name first
        origin = self.origin(set_name)
        if origin.kind is SetKind.SYSTEM:
            predicates = [Predicate("FILE", "=", member), *extra]
            records = self.kc.retrieve(Query.conjunction(predicates))
            return dedupe_by_dbkey(records, self.dbkey_attribute(member))
        if owner_dbkey is None:
            raise CurrencyError(
                f"set {set_name!r} needs a current occurrence to enumerate members"
            )
        if origin.kind is SetKind.ISA:
            predicates = [
                Predicate("FILE", "=", member),
                Predicate(self.dbkey_attribute(member), "=", owner_dbkey),
                *extra,
            ]
            records = self.kc.retrieve(Query.conjunction(predicates))
            return dedupe_by_dbkey(records, self.dbkey_attribute(member))
        if origin.kind is SetKind.SINGLE_VALUED:
            # The membership keyword is in the member (domain) file.
            predicates = [
                Predicate("FILE", "=", member),
                Predicate(set_name, "=", owner_dbkey),
                *extra,
            ]
            records = self.kc.retrieve(Query.conjunction(predicates))
            return dedupe_by_dbkey(records, self.dbkey_attribute(member))
        if origin.kind is SetKind.ONE_TO_MANY:
            member_keys = self._owner_side_values(set_name, owner_dbkey)
            if not member_keys:
                return []
            # One OR-clause per member key; a DNF query retrieves them all
            # in a single auxiliary request.
            clauses = []
            key_attribute = self.dbkey_attribute(member)
            for key in member_keys:
                clauses.append(
                    Conjunction(
                        [
                            Predicate("FILE", "=", member),
                            Predicate(key_attribute, "=", key),
                            *extra,
                        ]
                    )
                )
            records = self.kc.retrieve(Query(clauses))
            unique = dedupe_by_dbkey(records, key_attribute)
            order = {key: index for index, key in enumerate(member_keys)}
            unique.sort(key=lambda r: order.get(r.get(key_attribute), len(order)))
            return unique
        if origin.kind is SetKind.MANY_TO_MANY:
            domain = origin.domain_type or ""
            predicates = [
                Predicate("FILE", "=", domain),
                Predicate(self.dbkey_attribute(domain), "=", owner_dbkey),
                Predicate(set_name, "!=", None),
            ]
            records = self.kc.retrieve(Query.conjunction(predicates))
            links: list[Record] = []
            seen: set[str] = set()
            first_set, second_set = self._link_sides(origin.link_record or "")
            for record in records:
                partner_key = record.get(set_name)
                if not isinstance(partner_key, str) or partner_key in seen:
                    continue
                seen.add(partner_key)
                if set_name == first_set:
                    link = self._virtual_link(origin.link_record or "", owner_dbkey, partner_key)
                else:
                    link = self._virtual_link(origin.link_record or "", partner_key, owner_dbkey)
                if all(p.matches(link) or p.attribute == "FILE" for p in extra):
                    links.append(link)
            return links
        raise TranslationError(f"unhandled set kind {origin.kind!r} for {set_name!r}")

    def _owner_side_values(self, set_name: str, owner_dbkey: str) -> list[str]:
        """Distinct non-null values of an owner-carried set keyword."""
        origin = self.origin(set_name)
        domain = origin.domain_type or ""
        records = self.kc.retrieve(
            Query.conjunction(
                [
                    Predicate("FILE", "=", domain),
                    Predicate(self.dbkey_attribute(domain), "=", owner_dbkey),
                ]
            )
        )
        return list(
            dict.fromkeys(
                value
                for record in records
                if isinstance(value := record.get(set_name), str)
            )
        )

    def set_memberships(self, record_type: str, record: Record) -> dict[str, Optional[str]]:
        memberships: dict[str, Optional[str]] = {}
        for set_def in self.schema.sets_with_member(record_type):
            origin = self.origin(set_def.name)
            if origin.kind is SetKind.SYSTEM:
                memberships[set_def.name] = "SYSTEM"
            elif origin.kind is SetKind.ISA:
                key = record.get(self.dbkey_attribute(record_type))
                memberships[set_def.name] = key if isinstance(key, str) else None
            elif origin.kind is SetKind.SINGLE_VALUED:
                owner = record.get(set_def.name)
                memberships[set_def.name] = owner if isinstance(owner, str) else None
            elif origin.kind is SetKind.MANY_TO_MANY and self.is_link(record_type):
                owner = record.get(set_def.name)
                memberships[set_def.name] = owner if isinstance(owner, str) else None
            # ONE_TO_MANY memberships are owner-carried: the member record
            # does not know its occurrence, so the currency stays as-is.
        return memberships

    def extract_values(self, record_type: str, record: Record) -> dict[str, Value]:
        record_def = self.record_def(record_type)
        return {
            attribute.name: record.get(attribute.name)
            for attribute in record_def.attributes
        }

    # -- STORE (VI.G) -----------------------------------------------------------------

    def store(
        self,
        record_type: str,
        template: dict[str, Value],
        cit: CurrencyIndicatorTable,
    ) -> tuple[str, Record]:
        if self.is_link(record_type):
            return self._store_link(record_type)
        if record_type in self.functional.subtypes:
            dbkey = self._subtype_store_key(record_type, cit)
        elif record_type in self.functional.entity_types:
            dbkey = self.functional.entity_types[record_type].next_key()
        else:
            raise SchemaError(f"{record_type!r} is not a record type of this database")
        self._check_duplicates(record_type, template)
        node = self.functional.entity_or_subtype(record_type)
        values = {
            function.name: template[function.name]
            for function in node.functions
            if function.name in template and not function.is_entity_valued
        }
        records = self.mapping.build_records(record_type, dbkey, values)
        for record in records:
            self.kc.execute(InsertRequest(record))
        return dbkey, records[0]

    def _store_link(self, link_name: str) -> tuple[str, Record]:
        self._staged_counter += 1
        dbkey = f"{link_name}${self._staged_counter}"
        self._staged_links[dbkey] = {}
        record = Record.from_pairs([(FILE_ATTRIBUTE, link_name), (link_name, dbkey)])
        return dbkey, record

    def _subtype_store_key(self, record_type: str, cit: CurrencyIndicatorTable) -> str:
        """A subtype record's key is its supertype occurrence's key.

        STORE into a subtype auto-inserts into every ISA set (AUTOMATIC
        insertion, selection BY APPLICATION), so each ISA set must have a
        current occurrence and — with several supertypes — they must agree
        on the entity being extended.
        """
        subtype = self.functional.subtypes[record_type]
        keys: list[str] = []
        for supertype in subtype.supertypes:
            isa_set = f"{supertype}_{record_type}"
            keys.append(cit.require_set_owner(isa_set))
        if len(set(keys)) != 1:
            raise ConstraintViolation(
                f"STORE {record_type}: the current occurrences of its ISA sets "
                f"identify different entities ({', '.join(sorted(set(keys)))})"
            )
        dbkey = keys[0]
        # The entity may not already be stored in this subtype.
        if self.fetch_by_dbkey(record_type, dbkey) is not None:
            raise ConstraintViolation(
                f"STORE {record_type}: entity {dbkey!r} is already a {record_type}"
            )
        # Overlap constraints (VI.G): the entity's existing terminal
        # subtypes must all overlap with the target.
        if self.functional.is_terminal(record_type):
            existing = []
            for terminal in self.functional.terminal_subtypes():
                if terminal.name == record_type:
                    continue
                found = self.kc.execute(
                    RetrieveRequest(
                        Query.conjunction(
                            [
                                Predicate("FILE", "=", terminal.name),
                                Predicate(terminal.name, "=", dbkey),
                            ]
                        ),
                        (TargetItem(terminal.name),),
                    )
                ).records
                if found:
                    existing.append(terminal.name)
            self.overlap_table.check_store(record_type, existing)
        return dbkey

    def _check_duplicates(self, record_type: str, template: dict[str, Value]) -> None:
        """One auxiliary RETRIEVE per uniqueness constraint on the type."""
        for constraint in self.functional.uniqueness:
            if constraint.within != record_type:
                continue
            predicates = [Predicate("FILE", "=", record_type)]
            missing = False
            for item in constraint.functions:
                if item not in template or template[item] is None:
                    missing = True
                    break
                predicates.append(Predicate(item, "=", template[item]))
            if missing:
                continue
            duplicates = self.kc.execute(
                RetrieveRequest(Query.conjunction(predicates), (TargetItem(record_type),))
            ).records
            if duplicates:
                raise ConstraintViolation(
                    f"STORE {record_type}: DUPLICATES ARE NOT ALLOWED for "
                    f"{', '.join(constraint.functions)}"
                )

    # -- CONNECT (VI.D) -----------------------------------------------------------------

    def connect(
        self,
        set_name: str,
        member_dbkey: str,
        cit: CurrencyIndicatorTable,
    ) -> Optional[str]:
        origin = self.origin(set_name)
        if origin.kind in (SetKind.SYSTEM, SetKind.ISA):
            # VI.D.1: automatic-insertion sets cannot be used in CONNECT.
            raise ConstraintViolation(
                f"CONNECT: set {set_name!r} has AUTOMATIC insertion and cannot be "
                f"connected manually"
            )
        owner_dbkey = cit.require_set_owner(set_name)
        if origin.kind is SetKind.SINGLE_VALUED:
            # Information in the member record (VI.D.2.b): update every AB
            # record of the member with the new owner key.  An
            # already-connected member must be DISCONNECTed first (the
            # thesis's own modification recipe: disconnect, modify,
            # reconnect).
            member = self.member_type(set_name)
            current = self.fetch_by_dbkey(member, member_dbkey)
            if current is not None and current.get(set_name) is not None:
                raise ConstraintViolation(
                    f"CONNECT: record {member_dbkey!r} is already a member of "
                    f"an occurrence of {set_name!r}; DISCONNECT it first"
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
        if origin.kind is SetKind.ONE_TO_MANY:
            # No two-occurrence exclusivity here: the set realizes a
            # multi-valued *function*, and the functional model freely
            # lets two entities' value sets share a member (the network
            # one-to-many shape is the transformation's approximation, V.A).
            self._owner_side_add(set_name, owner_dbkey, member_dbkey)
            return None
        if origin.kind is SetKind.MANY_TO_MANY:
            return self._connect_link(set_name, member_dbkey, owner_dbkey, cit)
        raise TranslationError(f"unhandled set kind for CONNECT on {set_name!r}")

    def _connect_link(
        self,
        set_name: str,
        link_dbkey: str,
        owner_dbkey: str,
        cit: CurrencyIndicatorTable,
    ) -> Optional[str]:
        staged = self._staged_links.get(link_dbkey)
        if staged is None:
            raise ConstraintViolation(
                f"CONNECT: link record {link_dbkey!r} is already materialized; "
                f"DISCONNECT it before reconnecting"
            )
        origin = self.origin(set_name)
        link_name = origin.link_record or ""
        staged[set_name] = owner_dbkey
        first_set, second_set = self._link_sides(link_name)
        if first_set not in staged or second_set not in staged:
            return None  # waiting for the other side
        first_owner = staged[first_set]
        second_owner = staged[second_set]
        # Materialize the pair on both sides: each side's owner file gains
        # the partner's key under its own function attribute.
        self._owner_side_add(first_set, first_owner, second_owner)
        self._owner_side_add(second_set, second_owner, first_owner)
        del self._staged_links[link_dbkey]
        return f"{first_owner}{LINK_KEY_SEPARATOR}{second_owner}"

    def _owner_side_add(self, set_name: str, owner_dbkey: str, value_key: str) -> None:
        """The four owner-record CONNECT cases of VI.D.2.a."""
        origin = self.origin(set_name)
        domain = origin.domain_type or ""
        key_attribute = self.dbkey_attribute(domain)
        group = self.kc.retrieve(
            Query.conjunction(
                [
                    Predicate("FILE", "=", domain),
                    Predicate(key_attribute, "=", owner_dbkey),
                ]
            )
        )
        if not group:
            raise SchemaError(
                f"CONNECT: no {domain!r} record with database key {owner_dbkey!r}"
            )
        existing = [
            v for v in (r.get(set_name) for r in group) if isinstance(v, str)
        ]
        if value_key in existing:
            return  # already connected
        if not existing:
            # Cases 1 and 2: the function set is null — replace the NULL in
            # every AB record of the owner (one UPDATE covers both cases;
            # scalar multi-valued duplicates all match the query).
            self.kc.execute(
                UpdateRequest(
                    Query.conjunction(
                        [
                            Predicate("FILE", "=", domain),
                            Predicate(key_attribute, "=", owner_dbkey),
                        ]
                    ),
                    Modifier(set_name, value=value_key),
                )
            )
            return
        # Cases 3 and 4: the set already has members — insert one duplicate
        # record per distinct pattern of the *other* keywords, carrying the
        # new member key in the set attribute.
        seen_patterns: set[tuple[tuple[str, Value], ...]] = set()
        for record in group:
            pattern = tuple(
                (attribute, value)
                for attribute, value in record.pairs()
                if attribute != set_name
            )
            if pattern in seen_patterns:
                continue
            seen_patterns.add(pattern)
            copy = Record.from_pairs(record.pairs())
            copy.set(set_name, value_key)
            self.kc.execute(InsertRequest(copy))

    # -- DISCONNECT (VI.E) ------------------------------------------------------------------

    def disconnect(
        self,
        set_name: str,
        member_dbkey: str,
        cit: CurrencyIndicatorTable,
    ) -> None:
        origin = self.origin(set_name)
        if origin.kind in (SetKind.SYSTEM, SetKind.ISA):
            raise ConstraintViolation(
                f"DISCONNECT: set {set_name!r} has FIXED retention and cannot be "
                f"disconnected"
            )
        if origin.kind is SetKind.SINGLE_VALUED:
            owner_dbkey = cit.require_set_owner(set_name)
            member = self.member_type(set_name)
            # The member record is, by the schema transformation, in a
            # singleton function set: null the value out (VI.E last case).
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
            return
        if origin.kind is SetKind.ONE_TO_MANY:
            owner_dbkey = cit.require_set_owner(set_name)
            self._owner_side_remove(set_name, owner_dbkey, member_dbkey)
            return
        if origin.kind is SetKind.MANY_TO_MANY:
            link_name = origin.link_record or ""
            first_set, second_set = self._link_sides(link_name)
            first_owner, second_owner = self.split_link_key(link_name, member_dbkey)
            # Dropping a link from either of its sets dissolves the pair:
            # both owner-side keywords go.
            self._owner_side_remove(first_set, first_owner, second_owner)
            self._owner_side_remove(second_set, second_owner, first_owner)
            return
        raise TranslationError(f"unhandled set kind for DISCONNECT on {set_name!r}")

    def _owner_side_remove(self, set_name: str, owner_dbkey: str, value_key: str) -> None:
        """The owner-record DISCONNECT cases of VI.E."""
        origin = self.origin(set_name)
        domain = origin.domain_type or ""
        key_attribute = self.dbkey_attribute(domain)
        existing = self._owner_side_values(set_name, owner_dbkey)
        if value_key not in existing:
            raise ConstraintViolation(
                f"DISCONNECT: {value_key!r} is not a member of the current "
                f"occurrence of set {set_name!r}"
            )
        query = Query.conjunction(
            [
                Predicate("FILE", "=", domain),
                Predicate(key_attribute, "=", owner_dbkey),
                Predicate(set_name, "=", value_key),
            ]
        )
        if len(existing) > 1:
            # Multiple members: delete the duplicated AB records that carry
            # this member's key.
            self.kc.execute(DeleteRequest(query))
        else:
            # Singleton: null the value out, keeping the record.
            self.kc.execute(UpdateRequest(query, Modifier(set_name, value=None)))

    # -- MODIFY (VI.F) -------------------------------------------------------------------------

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

    # -- ERASE (VI.H) --------------------------------------------------------------------------

    def erase(self, record_type: str, dbkey: str) -> None:
        if self.is_link(record_type):
            # Erasing a link dissolves the many-to-many pair.
            if dbkey in self._staged_links:
                del self._staged_links[dbkey]
                return
            first_set, second_set = self._link_sides(record_type)
            first_owner, second_owner = self.split_link_key(record_type, dbkey)
            self._owner_side_remove(first_set, first_owner, second_owner)
            self._owner_side_remove(second_set, second_owner, first_owner)
            return
        # First auxiliary RETRIEVE family: the CODASYL constraint — the
        # record may not own a non-null set occurrence.
        for set_def in self.schema.sets_with_owner(record_type):
            origin = self.origin(set_def.name)
            if origin.kind is SetKind.ISA:
                found = self.kc.execute(
                    RetrieveRequest(
                        Query.conjunction(
                            [
                                Predicate("FILE", "=", set_def.member_name),
                                Predicate(set_def.member_name, "=", dbkey),
                            ]
                        ),
                        (TargetItem(set_def.member_name),),
                    )
                ).records
            elif origin.carrier is Carrier.MEMBER:
                found = self.kc.execute(
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
            else:  # owner-carried: the keyword sits in this record's file
                found = self.kc.execute(
                    RetrieveRequest(
                        Query.conjunction(
                            [
                                Predicate("FILE", "=", record_type),
                                Predicate(self.dbkey_attribute(record_type), "=", dbkey),
                                Predicate(set_def.name, "!=", None),
                            ]
                        ),
                        (TargetItem(set_def.name),),
                    )
                ).records
            if found:
                raise ConstraintViolation(
                    f"ERASE {record_type}: record owns a non-null occurrence of "
                    f"set {set_def.name!r}"
                )
        # Second auxiliary RETRIEVE family: the DAPLEX constraint — the
        # entity may not be referenced as a function value.
        for set_def in self.schema.sets_with_member(record_type):
            origin = self.origin(set_def.name)
            if origin.carrier is not Carrier.OWNER:
                continue
            domain = origin.domain_type or ""
            found = self.kc.execute(
                RetrieveRequest(
                    Query.conjunction(
                        [
                            Predicate("FILE", "=", domain),
                            Predicate(set_def.name, "=", dbkey),
                        ]
                    ),
                    (TargetItem(set_def.name),),
                )
            ).records
            if found:
                raise ConstraintViolation(
                    f"ERASE {record_type}: entity is referenced by function "
                    f"{set_def.name!r} (DAPLEX DESTROY constraint)"
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
