"""The CODASYL-DML execution engine (KMS + KC statement logic).

The engine implements the statement semantics of Chapter VI once, over a
:class:`~repro.kms.adapter.TargetAdapter` that generates the
target-specific ABDL.  It owns the run-unit state the thesis's design
distributes between KMS and KC: the currency indicator table (CIT), the
user work area (UWA) and the request-buffer pool (RB), plus a cache of
the current-of-run-unit AB record for GET.

Every statement returns a :class:`~repro.kms.results.StatementResult`
carrying the outcome status, the located record, and the ABDL texts the
statement translated into (read off KC's request log).
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.abdm.predicate import Predicate
from repro.abdm.record import Record
from repro.errors import (
    CurrencyError,
    ExecutionError,
    SchemaError,
    TranslationError,
    UnsupportedStatement,
)
from repro.kms.adapter import TargetAdapter
from repro.kms.results import StatementResult, Status
from repro.network import dml
from repro.network.buffers import BufferPool
from repro.network.currency import CurrencyIndicatorTable, RecordPointer
from repro.network.uwa import UserWorkArea
from repro.qc import runtime as qc_runtime


class DMLEngine:
    """Executes parsed CODASYL-DML statements against one target."""

    def __init__(self, adapter: TargetAdapter) -> None:
        self.adapter = adapter
        self.cit = CurrencyIndicatorTable()
        self.uwa = UserWorkArea()
        self.buffers = BufferPool()
        self._current_record: Optional[Record] = None  # run-unit AB record cache

    # -- public API -----------------------------------------------------------------

    def execute(self, statement: Union[dml.Statement, str]) -> StatementResult:
        """Execute one statement (text is parsed first)."""
        if isinstance(statement, str):
            statement = dml.parse_statement(statement)
        kc = self.adapter.kc
        with kc.obs.tracer.span("kms.translate") as span:
            log_start = kc.mark()
            result = self._dispatch(statement)
            result.requests = kc.since(log_start)
            if span:
                span.record(
                    language="codasyl",
                    statement=type(statement).__name__,
                    requests=len(result.requests),
                )
        return result

    def run(self, text: str) -> list[StatementResult]:
        """Parse and execute a whole transaction."""
        return [self.execute(s) for s in qc_runtime.parsed("codasyl", text, dml.parse_transaction)]

    # -- dispatch ----------------------------------------------------------------------

    def _dispatch(self, statement: dml.Statement) -> StatementResult:
        if isinstance(statement, dml.MoveStatement):
            return self._move(statement)
        if isinstance(statement, dml.FindAny):
            return self._find_any(statement)
        if isinstance(statement, dml.FindCurrent):
            return self._find_current(statement)
        if isinstance(statement, dml.FindDuplicate):
            return self._find_duplicate(statement)
        if isinstance(statement, dml.FindPositional):
            return self._find_positional(statement)
        if isinstance(statement, dml.FindOwner):
            return self._find_owner(statement)
        if isinstance(statement, dml.FindWithinCurrent):
            return self._find_within_current(statement)
        if isinstance(statement, dml.Get):
            return self._get(statement)
        if isinstance(statement, dml.Store):
            return self._store(statement)
        if isinstance(statement, dml.Connect):
            return self._connect(statement)
        if isinstance(statement, dml.Disconnect):
            return self._disconnect(statement)
        if isinstance(statement, dml.Modify):
            return self._modify(statement)
        if isinstance(statement, dml.Erase):
            return self._erase(statement)
        raise TranslationError(f"unknown statement type {type(statement).__name__}")

    # -- currency bookkeeping -------------------------------------------------------------

    def _establish(
        self,
        record_type: str,
        record: Record,
        within_set: Optional[str] = None,
        occurrence_owner: Optional[str] = None,
    ) -> str:
        """Make *record* the current of the run-unit and update the CIT.

        FIND statements update the current of the run-unit, of the record
        type, and of every set type in which the record participates
        (thesis II.B.2); set occurrences not derivable from the record
        itself are left untouched, except for the set the FIND navigated
        (*within_set*), whose occurrence is known to the caller.
        """
        dbkey_attribute = self.adapter.dbkey_attribute(record_type)
        dbkey = record.get(dbkey_attribute)
        if not isinstance(dbkey, str):
            raise ExecutionError(f"record has no database key ({dbkey_attribute})")
        self.cit.set_run_unit(record_type, dbkey)
        self.cit.set_record(record_type, dbkey)
        self._current_record = record
        memberships = self.adapter.set_memberships(record_type, record)
        for set_name, owner in memberships.items():
            if within_set == set_name and occurrence_owner is not None:
                owner = occurrence_owner
            if owner is not None:
                self.cit.set_set_currency(set_name, owner, record_type, dbkey)
        if within_set is not None and within_set not in memberships:
            self.cit.set_set_currency(within_set, occurrence_owner, record_type, dbkey)
        # The record also defines the current occurrence of every set it
        # owns (it becomes the current record of those sets).
        for set_def in self.adapter.schema.sets_with_owner(record_type):
            self.cit.set_set_currency(set_def.name, dbkey, record_type, dbkey)
        return dbkey

    def _occurrence_owner(self, set_name: str) -> Optional[str]:
        """The current occurrence of *set_name* for FIND FIRST/LAST.

        Uses the set currency when available; otherwise falls back to the
        current of the owner record type (the thesis's examples navigate
        straight from a located owner into its sets).
        """
        if self.adapter.is_system_set(set_name):
            return None
        currency = self.cit.set_currency(set_name)
        if currency.owner_dbkey is not None:
            return currency.owner_dbkey
        owner_type = self.adapter.owner_type(set_name)
        if owner_type is not None:
            pointer = self.cit.record(owner_type)
            if pointer is not None:
                return pointer.dbkey
        raise CurrencyError(f"set type {set_name!r} has no current occurrence")

    # -- statements ------------------------------------------------------------------------

    def _move(self, statement: dml.MoveStatement) -> StatementResult:
        self.adapter.check_item(statement.record, statement.item)
        self.uwa.move(statement.value, statement.item, statement.record)
        return StatementResult(statement.render())

    def _find_any(self, statement: dml.FindAny) -> StatementResult:
        record_type = statement.record
        self.adapter.record_def(record_type)  # validates the name
        extra = []
        for item in statement.items:
            self.adapter.check_item(record_type, item)
            extra.append(Predicate(item, "=", self.uwa.require(record_type, item)))
        # FIND ANY is a retrieval over the record type's own file with one
        # predicate per USING item (VI.B.1); the whole answer lands in the
        # record type's request buffer.
        records = self.adapter.find_any_records(record_type, extra)
        buffer = self.buffers.buffer(record_type)
        buffer.load(records)
        if not records:
            return StatementResult(
                statement.render(), Status.NOT_FOUND, record_type=record_type
            )
        found = buffer.first()
        assert found is not None
        dbkey = self._establish(record_type, found)
        return StatementResult(
            statement.render(),
            record_type=record_type,
            dbkey=dbkey,
            values=self.adapter.extract_values(record_type, found),
        )

    def _find_current(self, statement: dml.FindCurrent) -> StatementResult:
        """FIND CURRENT maps to no ABDL: it only promotes the current of
        the set to current of the run-unit (VI.B.2)."""
        currency = self.cit.require_set(statement.set_name)
        pointer = currency.current
        if pointer is None:
            raise CurrencyError(
                f"set type {statement.set_name!r} has no current record"
            )
        if pointer.record_type != statement.record:
            raise CurrencyError(
                f"the current of set {statement.set_name!r} is a "
                f"{pointer.record_type!r}, not a {statement.record!r}"
            )
        self.cit.set_run_unit(pointer.record_type, pointer.dbkey)
        self.cit.set_record(pointer.record_type, pointer.dbkey)
        self._current_record = None  # lazily re-fetched by GET
        return StatementResult(
            statement.render(), record_type=pointer.record_type, dbkey=pointer.dbkey
        )

    def _find_duplicate(self, statement: dml.FindDuplicate) -> StatementResult:
        """Scan the set's request buffer for the next record whose USING
        items match the *current record of the set* (VI.B.3)."""
        buffer = self.buffers.require(statement.set_name)
        current = buffer.current
        if current is None:
            raise CurrencyError(
                f"set type {statement.set_name!r} has no current record in its buffer"
            )
        for item in statement.items:
            self.adapter.check_item(statement.record, item)
        wanted = {item: current.get(item) for item in statement.items}
        index = buffer.cursor + 1
        while index < len(buffer.records):
            candidate = buffer.records[index]
            if all(candidate.get(item) == value for item, value in wanted.items()):
                buffer.cursor = index
                dbkey = self._establish(
                    statement.record,
                    candidate,
                    within_set=statement.set_name,
                    occurrence_owner=buffer.owner_dbkey,
                )
                return StatementResult(
                    statement.render(),
                    record_type=statement.record,
                    dbkey=dbkey,
                    values=self.adapter.extract_values(statement.record, candidate),
                )
            index += 1
        return StatementResult(statement.render(), Status.END_OF_SET)

    def _find_positional(self, statement: dml.FindPositional) -> StatementResult:
        set_name = statement.set_name
        member_type = self.adapter.member_type(set_name)
        if statement.record != member_type:
            raise TranslationError(
                f"record {statement.record!r} is not the member of set {set_name!r} "
                f"(member is {member_type!r})"
            )
        buffer = self.buffers.buffer(set_name)
        if statement.position in (dml.Position.FIRST, dml.Position.LAST):
            owner = self._occurrence_owner(set_name)
            records = self.adapter.member_records(set_name, owner)
            buffer.load(records, owner)
            found = buffer.first() if statement.position is dml.Position.FIRST else buffer.last()
        else:
            buffer = self.buffers.require(set_name)
            if statement.position is dml.Position.NEXT:
                found = buffer.advance()
            else:
                found = buffer.retreat()
        if found is None:
            status = (
                Status.NOT_FOUND
                if statement.position in (dml.Position.FIRST, dml.Position.LAST)
                else Status.END_OF_SET
            )
            return StatementResult(statement.render(), status, record_type=statement.record)
        dbkey = self._establish(
            statement.record,
            found,
            within_set=set_name,
            occurrence_owner=buffer.owner_dbkey,
        )
        return StatementResult(
            statement.render(),
            record_type=statement.record,
            dbkey=dbkey,
            values=self.adapter.extract_values(statement.record, found),
        )

    def _find_owner(self, statement: dml.FindOwner) -> StatementResult:
        set_name = statement.set_name
        owner_type = self.adapter.owner_type(set_name)
        if owner_type is None:
            raise TranslationError(
                f"FIND OWNER: set {set_name!r} is owned by SYSTEM"
            )
        owner_dbkey = self.cit.require_set_owner(set_name)
        record = self.adapter.fetch_by_dbkey(owner_type, owner_dbkey)
        if record is None:
            return StatementResult(
                statement.render(), Status.NOT_FOUND, record_type=owner_type
            )
        dbkey = self._establish(owner_type, record)
        return StatementResult(
            statement.render(),
            record_type=owner_type,
            dbkey=dbkey,
            values=self.adapter.extract_values(owner_type, record),
        )

    def _find_within_current(self, statement: dml.FindWithinCurrent) -> StatementResult:
        set_name = statement.set_name
        member_type = self.adapter.member_type(set_name)
        if statement.record != member_type:
            raise TranslationError(
                f"record {statement.record!r} is not the member of set {set_name!r}"
            )
        extra = []
        for item in statement.items:
            self.adapter.check_item(statement.record, item)
            extra.append(Predicate(item, "=", self.uwa.require(statement.record, item)))
        owner = self._occurrence_owner(set_name)
        records = self.adapter.member_records(set_name, owner, extra)
        buffer = self.buffers.buffer(set_name)
        buffer.load(records, owner)
        found = buffer.first()
        if found is None:
            return StatementResult(
                statement.render(), Status.NOT_FOUND, record_type=statement.record
            )
        dbkey = self._establish(
            statement.record, found, within_set=set_name, occurrence_owner=owner
        )
        return StatementResult(
            statement.render(),
            record_type=statement.record,
            dbkey=dbkey,
            values=self.adapter.extract_values(statement.record, found),
        )

    def _get(self, statement: dml.Get) -> StatementResult:
        run_unit = self.cit.require_run_unit()
        if statement.record is not None and statement.record != run_unit.record_type:
            raise ExecutionError(
                f"GET {statement.record}: the current of the run-unit is a "
                f"{run_unit.record_type!r}"
            )
        record = self._run_unit_record(run_unit)
        values = self.adapter.extract_values(run_unit.record_type, record)
        if statement.items:
            for item in statement.items:
                self.adapter.check_item(run_unit.record_type, item)
            values = {item: values.get(item) for item in statement.items}
        self.uwa.fill(run_unit.record_type, values)
        return StatementResult(
            statement.render(),
            record_type=run_unit.record_type,
            dbkey=run_unit.dbkey,
            values=values,
        )

    def _run_unit_record(self, run_unit: RecordPointer) -> Record:
        cached = self._current_record
        key_attribute = self.adapter.dbkey_attribute(run_unit.record_type)
        if cached is not None and cached.get(key_attribute) == run_unit.dbkey:
            return cached
        record = self.adapter.fetch_by_dbkey(run_unit.record_type, run_unit.dbkey)
        if record is None:
            raise ExecutionError(
                f"the current of the run-unit ({run_unit!r}) no longer exists"
            )
        self._current_record = record
        return record

    def _store(self, statement: dml.Store) -> StatementResult:
        record_type = statement.record
        self.adapter.record_def(record_type)
        template = dict(self.uwa.template(record_type))
        dbkey, record = self.adapter.store(record_type, template, self.cit)
        self._establish(record_type, record)
        return StatementResult(
            statement.render(),
            record_type=record_type,
            dbkey=dbkey,
            values=self.adapter.extract_values(record_type, record),
        )

    def _connect(self, statement: dml.Connect) -> StatementResult:
        run_unit = self.cit.require_run_unit()
        if run_unit.record_type != statement.record:
            raise CurrencyError(
                f"CONNECT {statement.record}: the current of the run-unit is a "
                f"{run_unit.record_type!r}"
            )
        dbkey = run_unit.dbkey
        for set_name in statement.sets:
            if self.adapter.member_type(set_name) != statement.record:
                raise TranslationError(
                    f"record {statement.record!r} is not the member of set {set_name!r}"
                )
            replacement = self.adapter.connect(set_name, dbkey, self.cit)
            if replacement is not None:
                # Link materialization renamed the record's database key.
                self.cit.forget_record(dbkey)
                dbkey = replacement
                self.cit.set_run_unit(statement.record, dbkey)
                self.cit.set_record(statement.record, dbkey)
            self.buffers.invalidate(set_name)
        self._current_record = None
        return StatementResult(
            statement.render(), record_type=statement.record, dbkey=dbkey
        )

    def _disconnect(self, statement: dml.Disconnect) -> StatementResult:
        run_unit = self.cit.require_run_unit()
        if run_unit.record_type != statement.record:
            raise CurrencyError(
                f"DISCONNECT {statement.record}: the current of the run-unit is a "
                f"{run_unit.record_type!r}"
            )
        for set_name in statement.sets:
            if self.adapter.member_type(set_name) != statement.record:
                raise TranslationError(
                    f"record {statement.record!r} is not the member of set {set_name!r}"
                )
            self.adapter.disconnect(set_name, run_unit.dbkey, self.cit)
            self.buffers.invalidate(set_name)
        self._current_record = None
        return StatementResult(
            statement.render(), record_type=statement.record, dbkey=run_unit.dbkey
        )

    def _modify(self, statement: dml.Modify) -> StatementResult:
        run_unit = self.cit.require_run_unit()
        if run_unit.record_type != statement.record:
            raise CurrencyError(
                f"MODIFY {statement.record}: the current of the run-unit is a "
                f"{run_unit.record_type!r}"
            )
        template = self.uwa.template(statement.record)
        if statement.items:
            items = list(statement.items)
        else:
            # MODIFY record: every user item currently present in the UWA
            # template (the user must supply the data items, VI.F).
            items = [i for i in self.adapter.user_items(statement.record) if i in template]
        if not items:
            raise ExecutionError(
                f"MODIFY {statement.record}: no data items supplied in the UWA"
            )
        for item in items:
            if item not in template:
                raise ExecutionError(
                    f"MODIFY {statement.record}: the UWA has no value for {item!r}"
                )
            # One UPDATE per modified field (VI.F).
            self.adapter.modify(statement.record, run_unit.dbkey, item, template[item])
        self._current_record = None
        return StatementResult(
            statement.render(), record_type=statement.record, dbkey=run_unit.dbkey
        )

    def _erase(self, statement: dml.Erase) -> StatementResult:
        if statement.all:
            # VI.H.2: the CODASYL and DAPLEX deletion constraints clash;
            # ERASE ALL is not translated.
            raise UnsupportedStatement(
                "ERASE ALL is not translated: the CODASYL and DAPLEX deletion "
                "constraints conflict (repeat plain ERASE statements instead)"
            )
        run_unit = self.cit.require_run_unit()
        if run_unit.record_type != statement.record:
            raise CurrencyError(
                f"ERASE {statement.record}: the current of the run-unit is a "
                f"{run_unit.record_type!r}"
            )
        self.adapter.erase(statement.record, run_unit.dbkey)
        # Type-aware forgetting: under the AB(functional) mapping the
        # erased subtype record shares its key with its supertype's record,
        # which must keep its currency.
        owned = [s.name for s in self.adapter.schema.sets_with_owner(statement.record)]
        self.cit.forget_pointer(statement.record, run_unit.dbkey, owned)
        self.buffers.clear()
        self._current_record = None
        return StatementResult(
            statement.render(), record_type=statement.record, dbkey=run_unit.dbkey
        )
