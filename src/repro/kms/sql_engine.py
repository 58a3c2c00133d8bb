"""The SQL language interface: statement translation to ABDL.

The relational interface completes MLDS's multi-lingual promise: SQL
statements over an AB(relational) database translate almost one-to-one
into kernel requests —

* ``INSERT`` → ABDL INSERT (after a primary-key uniqueness probe);
* single-table ``SELECT`` → one RETRIEVE, with WHERE compiled into the
  DNF query, projections into the target list, aggregates and GROUP BY
  into the target/BY clauses;
* two-table equi-join ``SELECT`` → ABDL **RETRIEVE-COMMON**, the fifth
  kernel operation the CODASYL translation never needed;
* ``UPDATE`` → one ABDL UPDATE per SET assignment (the same repetition
  rule the CODASYL MODIFY translation follows);
* ``DELETE`` → ABDL DELETE.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.abdl.ast import (
    ALL_ATTRIBUTES,
    DeleteRequest,
    InsertRequest,
    Modifier,
    RetrieveCommonRequest,
    RetrieveRequest,
    TargetItem,
    UpdateRequest,
)
from repro.abdm.predicate import Conjunction, Predicate, Query
from repro.abdm.values import Value
from repro.errors import ConstraintViolation, SchemaError, TranslationError
from repro.kc.controller import KernelController
from repro.mapping.rel_to_abdm import ABRelationalMapping
from repro.qc import runtime as qc_runtime
from repro.relational import sql
from repro.relational.model import RelationalSchema


@dataclass
class SqlResult:
    """Outcome of one SQL statement."""

    statement: str
    columns: list[str] = field(default_factory=list)
    rows: list[dict[str, Value]] = field(default_factory=list)
    touched: int = 0
    requests: list[str] = field(default_factory=list)


class SqlEngine:
    """Executes parsed SQL against one AB(relational) database."""

    def __init__(
        self,
        schema: RelationalSchema,
        kc: KernelController,
        mapping: Optional[ABRelationalMapping] = None,
    ) -> None:
        self.schema = schema
        self.kc = kc
        self.mapping = mapping or ABRelationalMapping(schema)

    # -- public API --------------------------------------------------------------

    def execute(self, statement: Union[str, sql.SqlStatement]) -> SqlResult:
        if isinstance(statement, str):
            statement = sql.parse_statement(statement)
        with self.kc.obs.tracer.span("kms.translate") as span:
            log_start = self.kc.mark()
            if isinstance(statement, sql.Select):
                result = self._select(statement)
            elif isinstance(statement, sql.Insert):
                result = self._insert(statement)
            elif isinstance(statement, sql.Update):
                result = self._update(statement)
            elif isinstance(statement, sql.Delete):
                result = self._delete(statement)
            else:
                raise TranslationError(f"unknown statement {type(statement).__name__}")
            result.requests = self.kc.since(log_start)
            if span:
                span.record(
                    language="sql",
                    statement=type(statement).__name__,
                    requests=len(result.requests),
                )
        return result

    def run(self, text: str) -> list[SqlResult]:
        return [self.execute(s) for s in qc_runtime.parsed("sql", text, sql.parse_script)]

    # -- WHERE compilation ----------------------------------------------------------

    def _compile_where(
        self,
        table: str,
        where: Optional[sql.Where],
    ) -> Query:
        relation = self.schema.relation(table)
        clauses = []
        for clause in where.clauses if where else ((),):
            predicates = [Predicate("FILE", "=", table)]
            for comparison in clause:
                if comparison.is_join:
                    raise TranslationError(
                        "column-to-column comparisons need a two-table FROM"
                    )
                self._check_ref(comparison.left, (table,))
                relation.require_column(comparison.left.column)
                predicates.append(
                    Predicate(comparison.left.column, comparison.operator, comparison.value)
                )
            clauses.append(Conjunction(predicates))
        return Query(clauses)

    def _check_ref(self, ref: sql.ColumnRef, tables: tuple[str, ...]) -> str:
        """Resolve a column reference to its table."""
        if ref.table is not None:
            if ref.table not in tables:
                raise SchemaError(f"{ref.render()} names a table not in FROM")
            self.schema.relation(ref.table).require_column(ref.column)
            return ref.table
        owners = [t for t in tables if self.schema.relation(t).column(ref.column)]
        if not owners:
            raise SchemaError(f"no FROM table has a column {ref.column!r}")
        if len(owners) > 1:
            raise SchemaError(f"column {ref.column!r} is ambiguous; qualify it")
        return owners[0]

    # -- SELECT -------------------------------------------------------------------------

    def _select(self, statement: sql.Select) -> SqlResult:
        if len(statement.tables) == 2:
            return self._select_join(statement)
        table = statement.tables[0]
        relation = self.schema.relation(table)
        query = self._compile_where(table, statement.where)
        target: list[TargetItem] = []
        columns: list[str] = []
        group_column = None
        if statement.group_by is not None:
            self._check_ref(statement.group_by, statement.tables)
            group_column = statement.group_by.column
        for item in statement.items:
            if item.star and not item.aggregate:
                target.append(ALL_ATTRIBUTES)
                columns.extend(relation.column_names)
            elif item.aggregate:
                attribute = "*" if item.star else item.ref.column
                if not item.star:
                    self._check_ref(item.ref, statement.tables)
                target.append(TargetItem(attribute, item.aggregate))
                columns.append(item.render())
            else:
                self._check_ref(item.ref, statement.tables)
                target.append(TargetItem(item.ref.column))
                columns.append(item.ref.column)
        columns = self._dedupe(columns)
        if group_column and group_column not in columns:
            columns.insert(0, group_column)
        records = self.kc.execute(RetrieveRequest(query, target, by=group_column)).records
        result = SqlResult(table, columns=columns)
        for record in records:
            result.rows.append({c: record.get(self._record_key(c)) for c in columns})
        return result

    @staticmethod
    def _record_key(column: str) -> str:
        return column  # aggregate columns already render as AVG(x) etc.

    @staticmethod
    def _dedupe(names: list[str]) -> list[str]:
        seen: list[str] = []
        for name in names:
            if name not in seen:
                seen.append(name)
        return seen

    def _select_join(self, statement: sql.Select) -> SqlResult:
        left_table, right_table = statement.tables
        if statement.group_by is not None:
            raise TranslationError("GROUP BY is not supported on joins in this subset")
        join: Optional[sql.SqlComparison] = None
        residual: list[sql.SqlComparison] = []
        if statement.where is None or len(statement.where.clauses) != 1:
            raise TranslationError(
                "a two-table SELECT needs a conjunctive WHERE with one "
                "cross-table equality"
            )
        for comparison in statement.where.clauses[0]:
            if comparison.is_join:
                if join is not None:
                    raise TranslationError("only one join equality is supported")
                if comparison.operator != "=":
                    raise TranslationError("joins must be equalities")
                join = comparison
            else:
                residual.append(comparison)
        if join is None:
            raise TranslationError("a two-table SELECT needs a join equality")
        left_col_table = self._check_ref(join.left, statement.tables)
        right_col_table = self._check_ref(join.right, statement.tables)
        if {left_col_table, right_col_table} != {left_table, right_table}:
            raise TranslationError("the join equality must span both tables")
        if left_col_table != left_table:
            join = sql.SqlComparison(join.right, "=", right=join.left)
        # Residual predicates split by table into the two sub-queries.
        left_predicates = [Predicate("FILE", "=", left_table)]
        right_predicates = [Predicate("FILE", "=", right_table)]
        for comparison in residual:
            owner = self._check_ref(comparison.left, statement.tables)
            predicate = Predicate(
                comparison.left.column, comparison.operator, comparison.value
            )
            (left_predicates if owner == left_table else right_predicates).append(predicate)
        request = RetrieveCommonRequest(
            Query.conjunction(left_predicates),
            join.left.column,
            Query.conjunction(right_predicates),
            join.right.column,  # type: ignore[union-attr]
        )
        records = self.kc.execute(request).records
        columns: list[str] = []
        refs: list[tuple[str, str]] = []  # (record attribute, owning table)
        for item in statement.items:
            if item.aggregate:
                raise TranslationError("aggregates over joins are not in this subset")
            if item.star:
                for table in statement.tables:
                    for name in self.schema.relation(table).column_names:
                        refs.append((name, table))
                        columns.append(f"{table}.{name}")
                continue
            owner = self._check_ref(item.ref, statement.tables)
            refs.append((item.ref.column, owner))
            columns.append(item.render())
        result = SqlResult(f"{left_table}⋈{right_table}", columns=columns)
        for record in records:
            row: dict[str, Value] = {}
            for (attribute, owner), column in zip(refs, columns):
                # RETRIEVE-COMMON prefixes right-side collisions.
                value = record.get(attribute)
                prefixed = record.get(f"{owner}.{attribute}")
                if owner == right_table and prefixed is not None:
                    value = prefixed
                row[column] = value
            result.rows.append(row)
        return result

    # -- INSERT -----------------------------------------------------------------------

    def _insert(self, statement: sql.Insert) -> SqlResult:
        relation = self.schema.relation(statement.table)
        columns = list(statement.columns) or relation.column_names
        if len(columns) != len(statement.values):
            raise SchemaError(
                f"INSERT INTO {statement.table}: {len(columns)} columns but "
                f"{len(statement.values)} values"
            )
        values = dict(zip(columns, statement.values))
        # The key probe is a locking read: it and the INSERT it guards
        # hold the table's X lock as one unit.
        with self.kc.exclusive([statement.table]):
            if relation.primary_key:
                predicates = [Predicate("FILE", "=", statement.table)]
                complete = True
                for key_column in relation.primary_key:
                    if values.get(key_column) is None:
                        complete = False
                        break
                    predicates.append(Predicate(key_column, "=", values[key_column]))
                if complete and self.kc.retrieve(Query.conjunction(predicates)):
                    raise ConstraintViolation(
                        f"INSERT INTO {statement.table}: duplicate primary key "
                        f"({', '.join(relation.primary_key)})"
                    )
            dbkey = self.mapping.mint_key(statement.table)
            record = self.mapping.build_record(statement.table, dbkey, values)
            self.kc.execute(InsertRequest(record))
        return SqlResult(statement.table, touched=1)

    # -- UPDATE / DELETE ------------------------------------------------------------------

    def _update(self, statement: sql.Update) -> SqlResult:
        relation = self.schema.relation(statement.table)
        query = self._compile_where(statement.table, statement.where)
        touched = 0
        for column, value in statement.assignments:
            column_def = relation.require_column(column)
            if not column_def.type.accepts(value):
                raise SchemaError(
                    f"column {statement.table}.{column} rejects {value!r}"
                )
            outcome = self.kc.execute(
                UpdateRequest(query, Modifier(column, value=value))
            )
            touched = max(touched, outcome.count)
        return SqlResult(statement.table, touched=touched)

    def _delete(self, statement: sql.Delete) -> SqlResult:
        query = self._compile_where(statement.table, statement.where)
        outcome = self.kc.execute(DeleteRequest(query))
        return SqlResult(statement.table, touched=outcome.count)
