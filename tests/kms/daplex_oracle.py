"""The tuple-at-a-time DAPLEX evaluator, kept as the test oracle.

Until the engine went set-at-a-time this *was* ``DaplexEngine``: after
the candidate RETRIEVE it issues one ``(FILE = t) AND (t = key)`` request
per row per path step, re-fetching even the candidate's own record.  It
is slow and obviously right, which is what a reference wants: the
differential suite (``test_daplex_differential.py``) demands that the
engine returns the same rows in the same order and leaves the same
database behind.

The methods below are the engine's as of the commit before the rewrite,
verbatim; everything else (condition splitting, LET, FOR A NEW,
uniqueness) is inherited, being shared by both evaluators.
"""

from __future__ import annotations

from typing import Optional

from repro.abdl.ast import DeleteRequest
from repro.abdm.predicate import Predicate, Query
from repro.abdm.values import Value, compare
from repro.errors import ConstraintViolation, ExecutionError, SchemaError, TranslationError
from repro.functional import daplex_dml as dml
from repro.kms.daplex_engine import DaplexEngine, DaplexResult


class TupleAtATimeEngine(DaplexEngine):
    """``DaplexEngine`` with the per-candidate evaluator it used to have."""

    def _for_each(self, statement: dml.ForEach) -> DaplexResult:
        type_name = statement.type_name
        if not self.schema.is_entity_name(type_name):
            raise SchemaError(f"{type_name!r} is not an entity type or subtype")
        direct, deferred = self._split_condition(statement, type_name)
        candidates = self._candidates(type_name, direct)
        result = DaplexResult(statement.type_name)
        for dbkey in candidates:
            if not self._deferred_holds(deferred, type_name, dbkey):
                continue
            for action in statement.actions:
                if isinstance(action, dml.PrintAction):
                    row = {
                        expr.render(): self._evaluate_print(expr, type_name, dbkey)
                        for expr in action.expressions
                    }
                    result.rows.append(row)
                elif isinstance(action, dml.LetAction):
                    self._let(action, type_name, dbkey)
                    result.touched += 1
                elif isinstance(action, dml.DestroyAction):
                    self._destroy(type_name, dbkey)
                    result.touched += 1
                else:
                    raise TranslationError(f"unknown action {type(action).__name__}")
        return result

    def _candidates(self, type_name: str, direct: Optional[Query]) -> list[str]:
        query = direct or Query.single("FILE", "=", type_name)
        records = self.kc.retrieve(query)
        key_attribute = self.mapping.dbkey_attribute(type_name)
        seen: list[str] = []
        for record in records:
            key = record.get(key_attribute)
            if isinstance(key, str) and key not in seen:
                seen.append(key)
        return seen

    def _deferred_holds(
        self,
        deferred: Optional[dml.Condition],
        type_name: str,
        dbkey: str,
    ) -> bool:
        if deferred is None:
            return True
        for clause in deferred.clauses:
            if all(
                compare(
                    self._evaluate_path(c.path, type_name, dbkey),
                    c.value,
                    c.operator,
                )
                for c in clause
            ):
                return True
        return False

    def _raw_function_values(
        self,
        type_name: str,
        function_name: str,
        dbkey: str,
    ) -> list[Value]:
        """Distinct non-null fn(entity) values (one element unless fn is
        multi-valued), read from the declaring type's file."""
        declaring, _ = self._declaring_type(type_name, function_name)
        records = self.kc.retrieve(
            Query.conjunction(
                [
                    Predicate("FILE", "=", declaring),
                    Predicate(declaring, "=", dbkey),
                ]
            )
        )
        values: list[Value] = []
        for record in records:
            value = record.get(function_name)
            if value is not None and value not in values:
                values.append(value)
        return values

    def _function_value(self, type_name: str, function_name: str, dbkey: str) -> Value:
        """Read fn(entity), walking up the ISA chain for inherited functions."""
        declaring, function = self._declaring_type(type_name, function_name)
        if function.set_valued:
            # Multi-valued: render the distinct values as a joined list.
            values = self._raw_function_values(type_name, function_name, dbkey)
            return ", ".join(str(v) for v in values) if values else None
        records = self.kc.retrieve(
            Query.conjunction(
                [
                    Predicate("FILE", "=", declaring),
                    Predicate(declaring, "=", dbkey),
                ]
            )
        )
        return records[0].get(function_name) if records else None

    def _evaluate_print(self, expr, type_name: str, dbkey: str) -> Value:
        """Evaluate a PRINT expression: a path or an aggregate over one."""
        if isinstance(expr, dml.AggregateExpr):
            return self._evaluate_aggregate(expr, type_name, dbkey)
        return self._evaluate_path(expr, type_name, dbkey)

    def _evaluate_aggregate(
        self,
        expr: "dml.AggregateExpr",
        type_name: str,
        dbkey: str,
    ) -> Value:
        """COUNT/TOTAL/AVERAGE/MAXIMUM/MINIMUM over a function application.

        The outermost function of the path supplies the value set (its
        distinct values across the entity's duplicated AB records); inner
        steps must be single-valued entity navigation.
        """
        path = expr.path
        if not path.functions:
            raise TranslationError("aggregates need a function application")
        current_type = type_name
        current_key: Value = dbkey
        for function_name in reversed(path.functions[1:]):
            if not isinstance(current_key, str):
                return None
            _, function = self._declaring_type(current_type, function_name)
            if function.set_valued:
                raise TranslationError(
                    f"{function_name!r} is multi-valued; only the outermost "
                    f"function of an aggregate may be"
                )
            if not function.is_entity_valued:
                raise TranslationError(
                    f"{function_name!r} is scalar and cannot be dereferenced"
                )
            current_key = self._function_value(current_type, function_name, current_key)
            current_type = function.range_type_name or ""
        if not isinstance(current_key, str):
            return None
        values = self._raw_function_values(current_type, path.functions[0], current_key)
        if expr.operator == "COUNT":
            return len(values)
        numeric = [v for v in values if isinstance(v, (int, float))]
        if not numeric:
            return None
        if expr.operator == "TOTAL":
            return sum(numeric)
        if expr.operator == "AVERAGE":
            return sum(numeric) / len(numeric)
        if expr.operator == "MAXIMUM":
            return max(numeric)
        return min(numeric)

    def _evaluate_path(self, path: dml.FunctionPath, type_name: str, dbkey: str) -> Value:
        if not path.functions:
            return dbkey
        current_type = type_name
        current_key: Value = dbkey
        # Apply innermost-first; entity-valued steps switch the type.
        for index, function_name in enumerate(reversed(path.functions)):
            if not isinstance(current_key, str):
                return None
            declaring, function = self._declaring_type(current_type, function_name)
            value = self._function_value(current_type, function_name, current_key)
            is_last = index == len(path.functions) - 1
            if function.is_entity_valued and not is_last:
                current_type = function.range_type_name or ""
                current_key = value
            elif is_last:
                return value
            else:
                raise TranslationError(
                    f"{function_name!r} is scalar and cannot be dereferenced further"
                )
        return current_key

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
        keys = [
            key
            for key in self._candidates(selector.type_name, direct)
            if self._deferred_holds(deferred, selector.type_name, key)
        ]
        if len(keys) != 1:
            raise ExecutionError(
                f"the OF clause selected {len(keys)} {selector.type_name!r} "
                f"entities; FOR A NEW needs exactly one"
            )
        dbkey = keys[0]
        existing = self.kc.retrieve(
            Query.conjunction(
                [
                    Predicate("FILE", "=", statement.type_name),
                    Predicate(statement.type_name, "=", dbkey),
                ]
            )
        )
        if existing:
            raise ConstraintViolation(
                f"entity {dbkey!r} is already a {statement.type_name!r}"
            )
        return dbkey

    def _destroy(self, type_name: str, dbkey: str) -> None:
        # DAPLEX constraint: abort when the entity is referenced by any
        # database function (the rule the thesis's ERASE honours).
        for holder_name in self.schema.type_names():
            holder = self.schema.entity_or_subtype(holder_name)
            for function in holder.functions:
                if not function.is_entity_valued:
                    continue
                range_name = function.range_type_name or ""
                hierarchy = {type_name, *self.schema.hierarchy_below(type_name)}
                chain = {range_name, *self.schema.supertype_chain(type_name)}
                if range_name not in hierarchy and range_name not in chain:
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
