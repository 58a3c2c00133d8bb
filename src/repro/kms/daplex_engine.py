"""The DAPLEX language interface: DML execution over AB(functional).

This is the functional side of MLDS (Figure 1.2): DAPLEX statements are
translated into ABDL requests against the same AB(functional) database
the CODASYL-DML interface manipulates — so the two user languages
genuinely share one kernel database, which the integration tests verify
by updating through one interface and observing through the other.

Translation outline:

* ``FOR EACH t SUCH THAT ...`` — comparisons over functions *declared on
  the iterated type* compile into the candidate RETRIEVE's query; the
  rest of the condition (inherited functions, nested paths, a
  disjunction) filters the candidates afterwards;
* ``PRINT`` projects paths and aggregates, one output row per entity;
* paths are evaluated **set-at-a-time**, as the kernel is set-oriented:
  each step ``fn`` is applied to the whole frontier of database keys at
  once — one DNF RETRIEVE ``(FILE = t AND t = k1) OR (FILE = t AND t =
  k2) …`` against the file of the type declaring ``fn`` (value
  inheritance: the supertype shares the database key), at most
  :data:`FRONTIER_CHUNK` keys a request — and the records land in a
  per-statement map ``declaring type → dbkey → records`` that the
  candidate RETRIEVE seeds.  A statement therefore costs one request
  plus one per distinct (declaring type, step) the map does not already
  cover, whatever the row count;
* a loop that writes (``LET`` / ``DESTROY``) runs one candidate at a time
  through the same evaluator and drops the map's entries for every file
  it writes, so iteration *j* reads what iteration *i* wrote;
* ``LET fn(x) = v`` becomes ``UPDATE ((FILE = type) AND (type = key))
  (fn = v)`` against the declaring type's file;
* ``FOR A NEW`` mints a key (base entity) or extends a supertype entity
  selected by the OF clause (subtype), then INSERTs the built records;
* ``DESTROY`` enforces the DAPLEX reference constraint (abort when the
  entity is a function value anywhere) and deletes the entity's records
  from the named type and every subtype below it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.abdl.ast import DeleteRequest, InsertRequest, Modifier, UpdateRequest
from repro.abdm.predicate import Conjunction, Predicate, Query
from repro.abdm.record import Record
from repro.abdm.values import Value, compare
from repro.errors import ConstraintViolation, ExecutionError, SchemaError, TranslationError
from repro.functional import daplex_dml as dml
from repro.functional.model import Function, FunctionalSchema
from repro.kc.controller import KernelController
from repro.mapping.fun_to_abdm import ABFunctionalMapping
from repro.qc import runtime as qc_runtime

#: Database keys one frontier RETRIEVE carries.  Fixed, so no request
#: text — and with it no cache key, log line or IPC frame — grows with
#: the table; a larger frontier is sent as several requests.
FRONTIER_CHUNK = 256


@dataclass
class DaplexResult:
    """Outcome of one DAPLEX statement."""

    statement: str
    rows: list[dict[str, Value]] = field(default_factory=list)
    touched: int = 0  # entities created / updated / destroyed
    requests: list[str] = field(default_factory=list)


class DaplexEngine:
    """Executes parsed DAPLEX DML against one functional database."""

    def __init__(self, schema: FunctionalSchema, kc: KernelController) -> None:
        self.schema = schema
        self.kc = kc
        self.mapping = ABFunctionalMapping(schema)
        #: declaring type -> dbkey -> that entity's AB records, for the
        #: statement being executed (see :meth:`_entity_records`).
        self._entities: dict[str, dict[str, list[Record]]] = {}

    # -- public API -----------------------------------------------------------------

    def execute(self, statement: dml.DaplexStatement | str) -> DaplexResult:
        if isinstance(statement, str):
            statement = dml.parse_statement(statement)
        with self.kc.obs.tracer.span("kms.translate") as span:
            log_start = self.kc.mark()
            try:
                if isinstance(statement, dml.ForEach):
                    result = self._for_each(statement)
                elif isinstance(statement, dml.ForNew):
                    result = self._for_new(statement)
                else:
                    raise TranslationError(f"unknown statement {type(statement).__name__}")
            finally:
                self._entities.clear()
            result.requests = self.kc.since(log_start)
            if span:
                span.record(
                    language="daplex",
                    statement=type(statement).__name__,
                    requests=len(result.requests),
                )
        return result

    def run(self, text: str) -> list[DaplexResult]:
        return [self.execute(s) for s in qc_runtime.parsed("daplex", text, dml.parse_program)]

    # -- FOR EACH -------------------------------------------------------------------

    def _for_each(self, statement: dml.ForEach) -> DaplexResult:
        type_name = statement.type_name
        if not self.schema.is_entity_name(type_name):
            raise SchemaError(f"{type_name!r} is not an entity type or subtype")
        direct, deferred = self._split_condition(statement, type_name)
        candidates = self._candidates(type_name, direct)
        result = DaplexResult(statement.type_name)
        # A read-only loop is one batch.  A loop that writes goes one
        # candidate at a time: iteration j must see iteration i's write.
        writes = any(
            isinstance(action, (dml.LetAction, dml.DestroyAction))
            for action in statement.actions
        )
        for batch in [[key] for key in candidates] if writes else [candidates]:
            selected = self._holding(deferred, type_name, batch)
            if not selected:
                continue
            printed: list[list[dict[str, Value]]] = []
            for action in statement.actions:
                if isinstance(action, dml.PrintAction):
                    printed.append(self._print_rows(action, type_name, selected))
                elif isinstance(action, dml.LetAction):
                    for dbkey in selected:
                        self._let(action, type_name, dbkey)
                    result.touched += len(selected)
                elif isinstance(action, dml.DestroyAction):
                    for dbkey in selected:
                        self._destroy(type_name, dbkey)
                    result.touched += len(selected)
                else:
                    raise TranslationError(f"unknown action {type(action).__name__}")
            # One row per entity per PRINT, entity-major as the loop reads.
            for rows in zip(*printed):
                result.rows.extend(rows)
        return result

    def _split_condition(
        self,
        statement: dml.ForEach,
        type_name: str,
    ) -> tuple[Optional[Query], Optional[dml.Condition]]:
        """Divide the SUCH THAT clause into kernel query and post-filter.

        Only a purely conjunctive condition whose every comparison is a
        direct (non-inherited, non-nested) function of the iterated type
        can compile entirely into the RETRIEVE; any other shape keeps the
        whole condition as a per-candidate filter.  A mixed conjunction
        pushes its direct comparisons down *and* re-checks the rest.
        """
        condition = statement.condition
        if condition is None:
            return None, None
        if len(condition.clauses) != 1:
            return None, condition  # disjunctions filter post-hoc
        node = self.schema.entity_or_subtype(type_name)
        direct_names = {f.name for f in node.functions if not f.set_valued}
        predicates = []
        leftovers = []
        for comparison in condition.clauses[0]:
            if (
                len(comparison.path.functions) == 1
                and comparison.path.functions[0] in direct_names
            ):
                predicates.append(
                    Predicate(comparison.path.functions[0], comparison.operator, comparison.value)
                )
            else:
                leftovers.append(comparison)
        direct_query = None
        if predicates:
            direct_query = Query.conjunction(
                [Predicate("FILE", "=", type_name), *predicates]
            )
        deferred = dml.Condition([leftovers]) if leftovers else None
        return direct_query, deferred

    def _candidates(self, type_name: str, direct: Optional[Query]) -> list[str]:
        """Database keys the candidate RETRIEVE selects, in file order.

        Its records seed the statement's map.  A direct query only tests
        single-valued functions, on which an entity's duplicated AB
        records agree (LET and the loader write every duplicate), so the
        records it selects are all of each selected entity's records.
        """
        query = direct or Query.single("FILE", "=", type_name)
        groups = self.mapping.group_by_dbkey(type_name, self.kc.retrieve(query))
        self._entities[type_name] = groups
        return list(groups)

    def _holding(
        self,
        deferred: Optional[dml.Condition],
        type_name: str,
        dbkeys: Sequence[str],
    ) -> list[str]:
        """The *dbkeys* satisfying the post-filter, in their order.

        Evaluation narrows as ``or`` / ``and`` short-circuit: a clause
        is only tried on the entities no earlier clause admitted, and a
        comparison only on those every earlier comparison of its clause
        admitted.
        """
        if deferred is None:
            return list(dbkeys)
        admitted: set[str] = set()
        undecided = list(dbkeys)
        for clause in deferred.clauses:
            alive = undecided
            for comparison in clause:
                values = self._evaluate_path(comparison.path, type_name, alive)
                alive = [
                    dbkey
                    for dbkey, value in zip(alive, values)
                    if compare(value, comparison.value, comparison.operator)
                ]
            admitted.update(alive)
            undecided = [dbkey for dbkey in undecided if dbkey not in admitted]
        return [dbkey for dbkey in dbkeys if dbkey in admitted]

    # -- path evaluation (value inheritance) ----------------------------------------------

    def _declaring_type(self, type_name: str, function_name: str) -> tuple[str, Function]:
        """The type (self or ancestor) declaring *function_name*."""
        for candidate in [type_name, *self.schema.supertype_chain(type_name)]:
            node = self.schema.entity_or_subtype(candidate)
            function = node.function(function_name)
            if function is not None:
                return candidate, function
        raise SchemaError(f"{type_name!r} has no function {function_name!r}")

    def _entity_records(
        self,
        declaring: str,
        dbkeys: Sequence[str],
    ) -> dict[str, list[Record]]:
        """The statement's ``dbkey → AB records`` map of *declaring*'s
        file, covering every one of *dbkeys* (no records: an empty list).

        Keys the map lacks are fetched together, one DNF RETRIEVE per
        :data:`FRONTIER_CHUNK` of them.
        """
        known = self._entities.setdefault(declaring, {})
        missing = [dbkey for dbkey in dict.fromkeys(dbkeys) if dbkey not in known]
        file_predicate = Predicate("FILE", "=", declaring)
        metrics = self.kc.obs.metrics
        for start in range(0, len(missing), FRONTIER_CHUNK):
            chunk = missing[start : start + FRONTIER_CHUNK]
            records = self.kc.retrieve(
                Query(
                    Conjunction([file_predicate, Predicate(declaring, "=", dbkey)])
                    for dbkey in chunk
                )
            )
            groups = self.mapping.group_by_dbkey(declaring, records)
            for dbkey in chunk:
                known[dbkey] = groups.get(dbkey, [])
            metrics.inc("kms.daplex.frontier_fetches")
            metrics.inc("kms.daplex.frontier_keys", len(chunk))
        return known

    def _apply(
        self,
        declaring: str,
        function: Function,
        keys: Sequence[Value],
    ) -> list[Value]:
        """One path step over a whole frontier: fn(key) where *key* is a
        database key — read from the file of the type declaring *function*,
        a multi-valued one as a joined list — and None where an earlier
        step found no entity."""
        live = [key for key in keys if isinstance(key, str)]
        groups = self._entity_records(declaring, live)
        values: dict[str, Value] = {}
        for dbkey in live:
            records = groups[dbkey]
            if function.set_valued:
                distinct = self.mapping.distinct_values(records, function.name)
                values[dbkey] = ", ".join(str(v) for v in distinct) if distinct else None
            else:
                values[dbkey] = records[0].get(function.name) if records else None
        return [values[key] if isinstance(key, str) else None for key in keys]

    def _print_rows(
        self,
        action: dml.PrintAction,
        type_name: str,
        dbkeys: Sequence[str],
    ) -> list[dict[str, Value]]:
        """One output row per entity: each expression is a path or an
        aggregate over one, evaluated for all of *dbkeys* together."""
        columns = {
            expr.render(): (
                self._evaluate_aggregate(expr, type_name, dbkeys)
                if isinstance(expr, dml.AggregateExpr)
                else self._evaluate_path(expr, type_name, dbkeys)
            )
            for expr in action.expressions
        }
        return [
            {name: values[row] for name, values in columns.items()}
            for row in range(len(dbkeys))
        ]

    def _evaluate_aggregate(
        self,
        expr: "dml.AggregateExpr",
        type_name: str,
        dbkeys: Sequence[str],
    ) -> list[Value]:
        """COUNT/TOTAL/AVERAGE/MAXIMUM/MINIMUM over a function application.

        The outermost function of the path supplies the value set (its
        distinct values across the entity's duplicated AB records); inner
        steps must be single-valued entity navigation.
        """
        path = expr.path
        if not path.functions:
            raise TranslationError("aggregates need a function application")
        current_type = type_name
        keys: list[Value] = list(dbkeys)
        for function_name in reversed(path.functions[1:]):
            if not any(isinstance(key, str) for key in keys):
                return [None] * len(keys)
            declaring, function = self._declaring_type(current_type, function_name)
            if function.set_valued:
                raise TranslationError(
                    f"{function_name!r} is multi-valued; only the outermost "
                    f"function of an aggregate may be"
                )
            if not function.is_entity_valued:
                raise TranslationError(
                    f"{function_name!r} is scalar and cannot be dereferenced"
                )
            keys = self._apply(declaring, function, keys)
            current_type = function.range_type_name or ""
        live = [key for key in keys if isinstance(key, str)]
        if not live:
            return [None] * len(keys)
        outermost = path.functions[0]
        declaring, _ = self._declaring_type(current_type, outermost)
        groups = self._entity_records(declaring, live)
        return [
            _aggregate(expr.operator, self.mapping.distinct_values(groups[key], outermost))
            if isinstance(key, str)
            else None
            for key in keys
        ]

    def _evaluate_path(
        self,
        path: dml.FunctionPath,
        type_name: str,
        dbkeys: Sequence[str],
    ) -> list[Value]:
        """Per entity, the value of *path* (None once a step finds no
        entity to apply the next function to)."""
        keys: list[Value] = list(dbkeys)
        current_type = type_name
        # Apply innermost-first; entity-valued steps switch the type.
        steps = list(reversed(path.functions))
        for index, function_name in enumerate(steps):
            if not any(isinstance(key, str) for key in keys):
                return [None] * len(keys)
            declaring, function = self._declaring_type(current_type, function_name)
            keys = self._apply(declaring, function, keys)
            if index < len(steps) - 1 and not function.is_entity_valued:
                raise TranslationError(
                    f"{function_name!r} is scalar and cannot be dereferenced further"
                )
            current_type = function.range_type_name or ""
        return keys

    # -- LET ----------------------------------------------------------------------------

    def _let(self, action: dml.LetAction, type_name: str, dbkey: str) -> None:
        if len(action.path.functions) != 1:
            raise TranslationError("LET assigns a direct function of the loop variable")
        function_name = action.path.functions[0]
        declaring, function = self._declaring_type(type_name, function_name)
        if function.is_entity_valued and action.value is not None:
            if not isinstance(action.value, str):
                raise SchemaError(
                    f"{function_name!r} is entity-valued; LET takes a database key"
                )
        self.kc.execute(
            UpdateRequest(
                Query.conjunction(
                    [
                        Predicate("FILE", "=", declaring),
                        Predicate(declaring, "=", dbkey),
                    ]
                ),
                Modifier(function_name, value=action.value),
            )
        )
        self._entities.pop(declaring, None)

    # -- FOR A NEW ------------------------------------------------------------------------

    def _for_new(self, statement: dml.ForNew) -> DaplexResult:
        type_name = statement.type_name
        values: dict[str, Value] = {}
        for action in statement.lets:
            if len(action.path.functions) != 1:
                raise TranslationError("FOR A NEW LET assigns a direct function")
            values[action.path.functions[0]] = action.value
        node = self.schema.entity_or_subtype(type_name)
        known = {f.name for f in node.functions}
        for name in values:
            if name not in known:
                raise SchemaError(f"{type_name!r} declares no function {name!r}")
        if type_name in self.schema.entity_types and statement.selector is not None:
            raise TranslationError(
                f"{type_name!r} is a base entity type; the OF clause applies "
                f"to subtypes"
            )
        # The probes (is the entity already in the subtype? UNIQUE?) are
        # locking reads: they and the INSERTs they guard hold the file's
        # X lock as one unit.
        with self.kc.exclusive([type_name]):
            if type_name in self.schema.entity_types:
                dbkey = self.schema.entity_types[type_name].next_key()
            else:
                dbkey = self._select_supertype_entity(statement)
            self._check_uniqueness(type_name, values)
            for record in self.mapping.build_records(type_name, dbkey, values):
                self.kc.execute(InsertRequest(record))
        result = DaplexResult(type_name, touched=1)
        result.rows.append({type_name: dbkey})
        return result

    def _select_supertype_entity(self, statement: dml.ForNew) -> str:
        subtype = self.schema.subtypes[statement.type_name]
        if statement.selector is None:
            raise TranslationError(
                f"{statement.type_name!r} is a subtype; FOR A NEW needs an "
                f"OF <supertype> SUCH THAT clause"
            )
        selector = statement.selector
        if selector.type_name not in (
            subtype.supertypes[0],
            *self.schema.supertype_chain(statement.type_name),
        ):
            raise SchemaError(
                f"{selector.type_name!r} is not a supertype of {statement.type_name!r}"
            )
        probe = dml.ForEach(selector.type_name, selector.type_name, selector.condition, [])
        direct, deferred = self._split_condition(probe, selector.type_name)
        keys = self._holding(
            deferred, selector.type_name, self._candidates(selector.type_name, direct)
        )
        if len(keys) != 1:
            raise ExecutionError(
                f"the OF clause selected {len(keys)} {selector.type_name!r} "
                f"entities; FOR A NEW needs exactly one"
            )
        dbkey = keys[0]
        if self._entity_records(statement.type_name, [dbkey])[dbkey]:
            raise ConstraintViolation(
                f"entity {dbkey!r} is already a {statement.type_name!r}"
            )
        return dbkey

    def _check_uniqueness(self, type_name: str, values: dict[str, Value]) -> None:
        for constraint in self.schema.uniqueness:
            if constraint.within != type_name:
                continue
            predicates = [Predicate("FILE", "=", type_name)]
            complete = True
            for item in constraint.functions:
                if values.get(item) is None:
                    complete = False
                    break
                predicates.append(Predicate(item, "=", values[item]))
            if complete and self.kc.retrieve(Query.conjunction(predicates)):
                raise ConstraintViolation(
                    f"FOR A NEW {type_name}: UNIQUE "
                    f"{', '.join(constraint.functions)} violated"
                )

    # -- DESTROY ----------------------------------------------------------------------------

    def _destroy(self, type_name: str, dbkey: str) -> None:
        # DAPLEX constraint: abort when the entity is a value of any
        # entity-valued function in the database (the rule the thesis's
        # ERASE honours), whatever that function's range.
        for holder_name in self.schema.type_names():
            holder = self.schema.entity_or_subtype(holder_name)
            for function in holder.functions:
                if not function.is_entity_valued:
                    continue
                found = self.kc.retrieve(
                    Query.conjunction(
                        [
                            Predicate("FILE", "=", holder_name),
                            Predicate(function.name, "=", dbkey),
                        ]
                    )
                )
                if found:
                    raise ConstraintViolation(
                        f"DESTROY {type_name} {dbkey}: referenced by "
                        f"{holder_name}.{function.name}"
                    )
        # Delete the entity from this type and its whole subtype hierarchy.
        for member in self.schema.hierarchy_below(type_name):
            self.kc.execute(
                DeleteRequest(
                    Query.conjunction(
                        [
                            Predicate("FILE", "=", member),
                            Predicate(member, "=", dbkey),
                        ]
                    )
                )
            )
            self._entities.pop(member, None)


def _aggregate(operator: str, values: list[Value]) -> Value:
    """One aggregate over an entity's distinct function values."""
    if operator == "COUNT":
        return len(values)
    numeric = [v for v in values if isinstance(v, (int, float))]
    if not numeric:
        return None
    if operator == "TOTAL":
        return sum(numeric)
    if operator == "AVERAGE":
        return sum(numeric) / len(numeric)
    if operator == "MAXIMUM":
        return max(numeric)
    return min(numeric)
