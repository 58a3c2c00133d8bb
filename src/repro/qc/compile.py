"""Compilation of DNF queries into specialized matcher closures.

Interpreted matching walks three layers per record — ``Query.matches`` →
``Conjunction.matches`` → ``Predicate.matches`` → ``values.compare`` —
re-dispatching on the operator string every time.  :func:`compile_query`
does that dispatch **once**, flattening the query into a closure over the
record's keyword map (a plain ``dict[str, Value]``), so the per-record
cost is a dict lookup and a native comparison.

Correctness contract: for every query and record,
``compile_query(q).matches(r) == q.matches(r)`` — bit-identical selection,
proven against :mod:`repro.abdm.values` semantics:

* Equality compiles to ``m.get(attr, _MISSING) == value``.  On the kernel
  value domain (int/float/str/None) Python ``==`` agrees exactly with
  :func:`~repro.abdm.values.values_equal`: ``None`` equals only ``None``,
  mixed string/number pairs are unequal, int/float mix numerically, and
  the private ``_MISSING`` sentinel equals nothing — which reproduces the
  "absent keyword never satisfies" rule for free.
* ``!=`` requires the keyword to be *present* with a differing value
  (the kernel compares keywords, not absences).
* Ordering operators guard with ``isinstance`` checks that mirror
  :func:`~repro.abdm.values.comparable`: strings order against strings,
  numbers against numbers, nulls and absences against nothing.  A
  predicate ordering against a null value can never be satisfied and
  compiles to a constant ``False``.
* **Key lists.**  Clauses of one DNF that are identical except for the
  value of one ``=`` predicate on the same attribute — the shape every
  batched fetch sends, ``(FILE = t AND t = k1) OR (FILE = t AND t = k2)
  …`` — compile to the shared predicates plus *one* ``frozenset``
  membership test, so matching costs O(1) per record however many keys
  ride in the request.  Set membership is ``is`` or (equal hash and
  ``==``), which on int/float/str/None is exactly ``==`` (``1``/``1.0``
  and ``0``/``-0.0`` hash alike) — except that a NaN *is* itself while
  never equalling itself, so a clause whose varying value is NaN, or
  anything outside those four types, stays on the clause-by-clause path.

The module is pure — caching lives with the callers (each store keeps a
bounded LRU from :mod:`repro.qc.runtime` keyed on the rendered query).
"""

from __future__ import annotations

import operator as _op
from typing import Callable, Mapping, Sequence

from repro.abdm.predicate import Conjunction, Predicate, Query
from repro.abdm.record import Record
from repro.abdm.values import Value

#: Absent-keyword sentinel; compares unequal to every kernel value.
_MISSING = object()

#: A compiled matcher over a record's keyword map.
MatchFn = Callable[[Mapping[str, Value]], bool]

_ORDER_OPS: dict[str, Callable[[Value, Value], bool]] = {
    "<": _op.lt,
    "<=": _op.le,
    ">": _op.gt,
    ">=": _op.ge,
}


def _false(keyword_map: Mapping[str, Value]) -> bool:
    return False


def _true(keyword_map: Mapping[str, Value]) -> bool:
    return True


def compile_predicate(predicate: Predicate) -> MatchFn:
    """Compile one keyword predicate to a closure over the keyword map."""
    attribute = predicate.attribute
    value = predicate.value
    op = predicate.operator

    if op == "=":

        def eq(m: Mapping[str, Value]) -> bool:
            return m.get(attribute, _MISSING) == value

        return eq

    if op == "!=":

        def ne(m: Mapping[str, Value]) -> bool:
            v = m.get(attribute, _MISSING)
            return v is not _MISSING and v != value

        return ne

    relation = _ORDER_OPS[op]
    if value is None:
        # Ordering against the null marker is never satisfied.
        return _false
    if isinstance(value, str):

        def order_str(m: Mapping[str, Value]) -> bool:
            v = m.get(attribute, _MISSING)
            return isinstance(v, str) and relation(v, value)

        return order_str

    def order_num(m: Mapping[str, Value]) -> bool:
        v = m.get(attribute, _MISSING)
        return isinstance(v, (int, float)) and relation(v, value)

    return order_num


def _conjoin(fns: Sequence[MatchFn]) -> MatchFn:
    """AND of compiled predicates (none: matches everything)."""
    fns = tuple(fns)
    if not fns:
        return _true
    if len(fns) == 1:
        return fns[0]
    if len(fns) == 2:
        first, second = fns

        def pair(m: Mapping[str, Value]) -> bool:
            return first(m) and second(m)

        return pair

    def conj(m: Mapping[str, Value]) -> bool:
        for fn in fns:
            if not fn(m):
                return False
        return True

    return conj


def compile_conjunction(clause: Conjunction) -> MatchFn:
    """Compile one DNF clause (an empty clause matches everything)."""
    return _conjoin([compile_predicate(p) for p in clause.predicates])


def _in_set(attribute: str, members: Sequence[Value]) -> MatchFn:
    """``attribute = m1 OR attribute = m2 …`` as one hash probe."""
    values = frozenset(members)

    def in_set(m: Mapping[str, Value]) -> bool:
        v = m.get(attribute, _MISSING)
        try:
            return v in values
        except TypeError:  # an unhashable record value: compare one by one
            return any(v == member for member in values)

    return in_set


def _set_member(value: Value) -> bool:
    """True when ``x in {value}`` is exactly ``x == value`` for every x."""
    kind = type(value)
    return kind is str or kind is int or value is None or (kind is float and value == value)


def _factor_key_lists(clauses: Sequence[Conjunction]) -> tuple[list[MatchFn], int]:
    """Compile *clauses*, folding key-list groups into set probes.

    A group is two or more clauses identical except for the value of one
    ``=`` predicate at one position (see the module docstring).  Returns
    the matchers to OR together and how many groups were folded.
    """
    groups: dict[tuple, list[int]] = {}
    for number, clause in enumerate(clauses if len(clauses) > 1 else ()):
        predicates = clause.predicates
        for position, predicate in enumerate(predicates):
            if predicate.operator == "=" and _set_member(predicate.value):
                shape = (position, predicates[:position], predicate.attribute,
                         predicates[position + 1:])
                try:
                    groups.setdefault(shape, []).append(number)
                except TypeError:  # a shared predicate holds an unhashable value
                    break
    fns: list[MatchFn] = []
    folded: set[int] = set()
    # Largest group first, so a clause that fits two shapes joins the one
    # that saves the most comparisons; ties keep first-seen order.
    for shape, numbers in sorted(groups.items(), key=lambda item: -len(item[1])):
        numbers = [n for n in numbers if n not in folded]
        if len(numbers) < 2:
            continue
        position, before, attribute, after = shape
        probe = _in_set(attribute, [clauses[n].predicates[position].value for n in numbers])
        fns.append(
            _conjoin(
                [*map(compile_predicate, before), probe, *map(compile_predicate, after)]
            )
        )
        folded.update(numbers)
    groups_folded = len(fns)
    fns.extend(
        compile_conjunction(clause)
        for number, clause in enumerate(clauses)
        if number not in folded
    )
    return fns, groups_folded


class CompiledQuery:
    """A query flattened into a single matcher closure.

    ``matches`` accepts a :class:`~repro.abdm.record.Record` (mirroring
    ``Query.matches``); ``fn`` is the raw closure over a keyword map for
    callers already holding one; ``inset_groups`` counts the key-list
    groups that compiled to a set probe.
    """

    __slots__ = ("query", "source", "fn", "inset_groups")

    def __init__(self, query: Query) -> None:
        self.query = query
        self.source = query.render()
        fns, self.inset_groups = _factor_key_lists(query.clauses)
        clause_fns = tuple(fns)
        if not clause_fns:
            # An empty disjunction selects nothing (any(()) is False).
            self.fn: MatchFn = _false
        elif len(clause_fns) == 1:
            self.fn = clause_fns[0]
        else:

            def disj(m: Mapping[str, Value]) -> bool:
                for fn in clause_fns:
                    if fn(m):
                        return True
                return False

            self.fn = disj

    def matches(self, record: Record) -> bool:
        """Exactly ``self.query.matches(record)``, minus the dispatch."""
        return self.fn(record.keyword_map())

    def __repr__(self) -> str:
        return f"CompiledQuery({self.source})"


def compile_query(query: Query) -> CompiledQuery:
    """Compile *query* into a :class:`CompiledQuery`."""
    return CompiledQuery(query)
