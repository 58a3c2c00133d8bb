"""Compilation of DNF queries into generated set-at-a-time scan kernels.

Interpreted matching walks three layers per record — ``Query.matches`` →
``Conjunction.matches`` → ``Predicate.matches`` → ``values.compare`` —
re-dispatching on the operator string every time.  :func:`compile_query`
does that dispatch **once per query shape**: it generates one function
``select(records, *consts)`` whose body is a single list comprehension
over each record's keyword map, plus the single-record ``matches``
built from the same boolean expression, so a scan costs one Python call
per *statement*, not several per record.

A *shape* is everything about a query except its constants: the clause
structure, each predicate's operator and the domain its constant orders
in, and which predicates of a clause name the same attribute (they share
one keyword fetch).  Attribute names and values are never part of the
generated text — they reach the kernel as call arguments — so the source
for a shape is the same bytes whatever a client sent, and one code
object serves every statement of that shape in the process
(:data:`KERNEL_CACHE_SIZE` shapes, least recently used evicted).

Correctness contract: for every query and record list,
``compile_query(q).select(rs) == [r for r in rs if q.matches(r)]`` —
same records, same order — proven against :mod:`repro.abdm.values`:

* Equality compiles to ``m.get(attr, _M) == value``.  On the kernel
  value domain (int/float/str/None) Python ``==`` agrees exactly with
  :func:`~repro.abdm.values.values_equal`: ``None`` equals only ``None``,
  mixed string/number pairs are unequal, int/float mix numerically, and
  the private ``_M`` sentinel equals nothing — which reproduces the
  "absent keyword never satisfies" rule for free.
* ``!=`` requires the keyword to be *present* with a differing value
  (the kernel compares keywords, not absences).
* Ordering operators guard with ``isinstance`` checks that mirror
  :func:`~repro.abdm.values.comparable`: strings order against strings,
  numbers against numbers, nulls and absences against nothing.  A
  clause ordering against a null value can never be satisfied and
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
  A stored value that cannot be hashed makes the probe raise
  ``TypeError``; the statement is then answered by the interpreted
  matcher, which is the reference anyway.

Compiled queries are cached by their callers (each store keeps a bounded
LRU keyed on the rendered query); the kernels are cached here.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence, Union

from repro.abdm.predicate import Conjunction, Predicate, Query
from repro.abdm.record import Record
from repro.abdm.values import Value
from repro.qc.lru import LRUCache, MISSING

#: Distinct query shapes whose generated code the process keeps.
KERNEL_CACHE_SIZE = 256

#: What generated code may name: the absent-keyword sentinel (compares
#: unequal to every kernel value), the numeric domain, and two builtins.
_KERNEL_GLOBALS = {
    "_M": object(),
    "_NUM": (int, float),
    "isinstance": isinstance,
    "str": str,
    "__builtins__": {},
}

_ORDER_OPS = frozenset(("<", "<=", ">", ">="))

#: Term kinds that look at the fetched value once, and their Python spelling.
_ONE_LOOK = {"=": "==", "in": "in"}


class _Probe(NamedTuple):
    """A folded key list: ``attribute = m`` for some member of *value*."""

    attribute: str
    value: frozenset
    operator: str = "in"


_Term = Union[Predicate, _Probe]


#: One shape's generated ``select`` and ``matches``, and their source text.
_Kernel = tuple[Callable[..., list[Record]], Callable[..., bool], str]

_kernels = LRUCache(KERNEL_CACHE_SIZE, prefix="qc.kernels")


def _set_member(value: Value) -> bool:
    """True when ``x in {value}`` is exactly ``x == value`` for every x."""
    kind = type(value)
    return kind is str or kind is int or value is None or (kind is float and value == value)


def _factor_key_lists(clauses: Sequence[Conjunction]) -> tuple[list[Sequence[_Term]], int]:
    """The term lists to OR together, key-list groups folded into probes.

    A group is two or more clauses identical except for the value of one
    ``=`` predicate at one position (see the module docstring).  Returns
    the clauses' terms and how many groups were folded.
    """
    if len(clauses) < 2:
        return [clause.predicates for clause in clauses], 0
    groups: dict[tuple, list[int]] = {}
    for number, clause in enumerate(clauses):
        predicates = clause.predicates
        for position, predicate in enumerate(predicates):
            if predicate.operator == "=" and _set_member(predicate.value):
                shape = (position, predicates[:position], predicate.attribute,
                         predicates[position + 1:])
                try:
                    groups.setdefault(shape, []).append(number)
                except TypeError:  # a shared predicate holds an unhashable value
                    break
    terms: list[Sequence[_Term]] = []
    folded: set[int] = set()
    # Largest group first, so a clause that fits two shapes joins the one
    # that saves the most comparisons; ties keep first-seen order.
    for shape, numbers in sorted(groups.items(), key=lambda item: -len(item[1])):
        numbers = [n for n in numbers if n not in folded]
        if len(numbers) < 2:
            continue
        position, before, attribute, after = shape
        members = frozenset(clauses[n].predicates[position].value for n in numbers)
        terms.append((*before, _Probe(attribute, members), *after))
        folded.update(numbers)
    groups_folded = len(terms)
    terms.extend(
        clause.predicates for number, clause in enumerate(clauses) if number not in folded
    )
    return terms, groups_folded


def _shape_and_arguments(clauses: Sequence[Sequence[_Term]]) -> tuple[tuple, list]:
    """Split term lists into the constant-free shape and the constants.

    Each term contributes one shape token ``(kind, first)`` — *kind* is
    the operator (ordering operators suffixed with the domain their
    constant orders in: ``n`` numeric, ``s`` string, ``0`` null) and
    *first* the position of the clause's first term on the same
    attribute — and two arguments, its attribute name and its constant.
    """
    shape = []
    arguments: list = []
    for terms in clauses:
        first_use: dict[str, int] = {}
        tokens = []
        for position, term in enumerate(terms):
            kind = term.operator
            value = term.value
            if kind in _ORDER_OPS:
                kind += "0" if value is None else "s" if isinstance(value, str) else "n"
            attribute = term.attribute
            tokens.append((kind, first_use.setdefault(attribute, position)))
            arguments.append(attribute)
            arguments.append(value)
        shape.append(tuple(tokens))
    return tuple(shape), arguments


def _generate(shape: tuple) -> _Kernel:
    """Write and compile the two functions of one query shape."""
    disjuncts = []
    slot = 0  # terms are numbered through the whole query: a<slot>, c<slot>
    for tokens in shape:
        base = slot
        shared = {first for position, (_, first) in enumerate(tokens) if first != position}
        guarded: set[tuple[str, str]] = set()
        conjuncts = []
        for position, (kind, first) in enumerate(tokens):
            # A clause fetches each attribute once, at its first term;
            # later terms (and second looks by the same term) use v<n>.
            name = f"v{base + first}"
            if first != position:
                value = name
            elif first in shared or kind not in _ONE_LOOK:
                value = f"({name} := m.get(a{slot}, _M))"
            else:
                value = f"m.get(a{slot}, _M)"
            if kind in _ONE_LOOK:
                conjuncts.append(f"{value} {_ONE_LOOK[kind]} c{slot}")
            elif kind == "!=":
                conjuncts.append(f"{value} is not _M and {name} != c{slot}")
            elif kind[-1] == "0":
                conjuncts.append("False")
            else:
                domain = "str" if kind[-1] == "s" else "_NUM"
                if (name, domain) not in guarded:
                    guarded.add((name, domain))
                    conjuncts.append(f"isinstance({value}, {domain})")
                conjuncts.append(f"{name} {kind[:-1]} c{slot}")
            slot += 1
        if "False" in conjuncts:
            conjuncts = ["False"]
        disjuncts.append(" and ".join(conjuncts) or "True")
    if len(disjuncts) > 1:
        disjuncts = [f"({conjunction})" for conjunction in disjuncts]
    expression = " or ".join(disjuncts) or "False"
    parameters = "".join(f", a{n}, c{n}" for n in range(slot))
    source = (
        f"def select(records{parameters}):\n"
        f"    return [r for r in records for m in (r._index,) if {expression}]\n"
        f"def matches(r{parameters}):\n"
        f"    m = r._index\n"
        f"    return {expression}\n"
    )
    namespace = dict(_KERNEL_GLOBALS)
    exec(compile(source, "<qc kernel>", "exec"), namespace)
    return namespace["select"], namespace["matches"], source


class CompiledQuery:
    """A query bound to the generated kernel of its shape.

    ``select`` filters a record sequence in one call and ``matches``
    tests one record (mirroring ``Query.matches``); ``source`` is the
    rendered query, ``kernel_source`` the generated text;
    ``inset_groups`` counts the key-list groups that compiled to a set
    probe and ``codegen`` is 1 when this compilation had to generate its
    shape's code, 0 when the process had it already.
    """

    __slots__ = (
        "query", "source", "inset_groups", "codegen", "kernel_source",
        "_select", "_matches", "_arguments",
    )

    def __init__(self, query: Query) -> None:
        self.query = query
        self.source = query.render()
        terms, self.inset_groups = _factor_key_lists(query.clauses)
        shape, self._arguments = _shape_and_arguments(terms)
        kernel = _kernels.get(shape)
        self.codegen = int(kernel is MISSING)
        if self.codegen:
            kernel = _generate(shape)
            _kernels.put(shape, kernel)
        self._select, self._matches, self.kernel_source = kernel

    def select(self, records: Sequence[Record]) -> list[Record]:
        """Exactly ``self.query.select(records)``, in one call."""
        try:
            return self._select(records, *self._arguments)
        except TypeError:  # an unhashable stored value met a key-list probe
            return self.query.select(records)

    def matches(self, record: Record) -> bool:
        """Exactly ``self.query.matches(record)``, minus the dispatch."""
        try:
            return self._matches(record, *self._arguments)
        except TypeError:
            return self.query.matches(record)

    def __repr__(self) -> str:
        return f"CompiledQuery({self.source})"


def compile_query(query: Query) -> CompiledQuery:
    """Compile *query* into a :class:`CompiledQuery`."""
    return CompiledQuery(query)


def reset_kernels() -> None:
    """Forget every generated kernel (test isolation)."""
    _kernels.clear()
