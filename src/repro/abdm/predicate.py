"""Keyword predicates and queries in disjunctive normal form.

A *keyword predicate* (Chapter II.C) is ``(attribute, relational-operator,
attribute-value)``.  A *query* is a disjunction of conjunctions of keyword
predicates; a record satisfies a query when at least one conjunction is
fully satisfied by the record's keywords.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

from repro.abdm.record import Record
from repro.abdm.values import Value, compare, render

#: Relational operators accepted in keyword predicates.
RELATIONAL_OPERATORS = ("=", "!=", "<=", ">=", "<", ">")

#: Absent-keyword sentinel for the single-fetch path in Predicate.matches.
_ABSENT: Any = object()


@dataclass(frozen=True)
class Predicate:
    """A single keyword predicate ``attribute op value``."""

    attribute: str
    operator: str
    value: Value

    def __post_init__(self) -> None:
        if self.operator not in RELATIONAL_OPERATORS:
            raise ValueError(f"unknown relational operator {self.operator!r}")

    def matches(self, record: Record) -> bool:
        """True when *record* has a keyword satisfying this predicate.

        A record without a keyword for the attribute never satisfies the
        predicate — including ``!=`` predicates, which require a keyword
        whose value differs (the kernel compares keywords, not absences).
        A null test (``attribute = NULL``) matches a record carrying a
        null-valued keyword for the attribute.
        """
        value = record.get(self.attribute, _ABSENT)
        if value is _ABSENT:
            return False
        return compare(value, self.value, self.operator)

    def render(self) -> str:
        """Render as ABDL predicate text, e.g. ``(title = 'Advanced Database')``."""
        return f"({self.attribute} {self.operator} {render(self.value)})"


def _pins(predicate: Predicate, file: str) -> bool:
    """True for ``FILE = '<file>'``: in a clause whose ``file_names()`` is
    ``{file}``, exactly the terms it counted (in the kernel's value
    domain only a str equals the str *file*)."""
    return (
        predicate.attribute == "FILE" and predicate.operator == "=" and predicate.value == file
    )


@dataclass(frozen=True)
class Conjunction:
    """A conjunction of keyword predicates (one DNF clause)."""

    predicates: tuple[Predicate, ...]

    def __init__(self, predicates: Iterable[Predicate]) -> None:
        object.__setattr__(self, "predicates", tuple(predicates))

    def matches(self, record: Record) -> bool:
        """True when every predicate is satisfied by *record*."""
        return all(p.matches(record) for p in self.predicates)

    def file_names(self) -> set[str]:
        """File names pinned by ``FILE =`` predicates in this clause."""
        return {
            p.value
            for p in self.predicates
            if p.attribute == "FILE" and p.operator == "=" and isinstance(p.value, str)
        }

    def render(self) -> str:
        # Rendered text is cached on the instance: the WAL codec, span
        # labels and every cache layer re-render the same
        # frozen clause on each dispatch.  The cache rides in __dict__,
        # invisible to dataclass eq/hash (which use fields only).
        cached = self.__dict__.get("_rendered")
        if cached is not None:
            return cached
        if not self.predicates:
            rendered = "()"
        elif len(self.predicates) == 1:
            rendered = self.predicates[0].render()
        else:
            rendered = "(" + " AND ".join(p.render() for p in self.predicates) + ")"
        object.__setattr__(self, "_rendered", rendered)
        return rendered

    def __iter__(self) -> Iterator[Predicate]:
        return iter(self.predicates)

    def __len__(self) -> int:
        return len(self.predicates)


@dataclass(frozen=True)
class Query:
    """A query in disjunctive normal form: OR of conjunctions."""

    clauses: tuple[Conjunction, ...]

    def __init__(self, clauses: Iterable[Conjunction]) -> None:
        object.__setattr__(self, "clauses", tuple(clauses))

    @classmethod
    def conjunction(cls, predicates: Sequence[Predicate]) -> "Query":
        """Build the common single-clause query."""
        return cls((Conjunction(predicates),))

    @classmethod
    def single(cls, attribute: str, operator: str, value: Value) -> "Query":
        """Build a one-predicate query."""
        return cls.conjunction([Predicate(attribute, operator, value)])

    def matches(self, record: Record) -> bool:
        """True when at least one clause is satisfied by *record*."""
        return any(clause.matches(record) for clause in self.clauses)

    def select(self, records: Iterable[Record]) -> list[Record]:
        """The records satisfying this query, in order (the reference every
        compiled scan is held to)."""
        return [record for record in records if self.matches(record)]

    def file_names(self) -> set[str]:
        """Union of file names pinned by every clause; empty means unknown.

        Used by stores to prune the files scanned: if *every* clause pins a
        file, only those files need scanning; if any clause leaves the file
        open, the caller must scan everything.
        """
        names: set[str] = set()
        for clause in self.clauses:
            pinned = clause.file_names()
            if not pinned:
                return set()
            names |= pinned
        return names

    def within(self, file: str) -> "Query":
        """This query as it acts on the records of file *file*.

        Every record a store keeps in file *f* carries ``FILE = f`` (the
        store files a record by that keyword, and no modifier may
        rewrite it), so over those records a clause pinning exactly
        *file* needs no ``FILE = '<file>'`` term: they are dropped.  A
        clause pinning another file — or two files at once — matches
        none of them and is dropped whole; a clause pinning no file is
        kept as it is.  For every record ``r`` of *file*,
        ``self.within(file).matches(r) == self.matches(r)``.
        """
        # The last answer is cached on the instance, like render(): every
        # backend a request is broadcast to asks for the same file's
        # scope on a compile miss, and then shares one scoped query.
        cached = self.__dict__.get("_within")
        if cached is not None and cached[0] == file:
            return cached[1]
        clauses = []
        for clause in self.clauses:
            pinned = clause.file_names()
            if not pinned:
                clauses.append(clause)
            elif pinned == {file}:
                clauses.append(Conjunction([p for p in clause if not _pins(p, file)]))
        scoped = Query(clauses)
        object.__setattr__(self, "_within", (file, scoped))
        return scoped

    def render(self) -> str:
        # Cached like Conjunction.render — see the comment there.
        cached = self.__dict__.get("_rendered")
        if cached is not None:
            return cached
        if not self.clauses:
            rendered = "()"
        elif len(self.clauses) == 1:
            rendered = self.clauses[0].render()
        else:
            rendered = "(" + " OR ".join(c.render() for c in self.clauses) + ")"
        object.__setattr__(self, "_rendered", rendered)
        return rendered

    def __iter__(self) -> Iterator[Conjunction]:
        return iter(self.clauses)

    def __len__(self) -> int:
        return len(self.clauses)
