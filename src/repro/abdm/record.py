"""Attribute-based records: ordered keyword lists plus a textual portion.

An ABDM record (thesis Figure 2.3) is a sequence of *keywords* — attribute
/value pairs — with at most one keyword per attribute, followed by an
optional free-text portion.  Keyword order is meaningful to the mappings:
the first pair is always ``(FILE, file-name)`` and, for records transformed
from a functional database, the second pair carries the record's database
key (``(entity-type, unique-key)``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from repro.abdm.values import Value, render
from repro.errors import RecordSealed

#: The distinguished attribute naming the file a record belongs to.
FILE_ATTRIBUTE = "FILE"

_SEALED = "the record is sealed (stored records are shared); modify a copy()"


@dataclass(frozen=True)
class Keyword:
    """A single attribute-value pair."""

    attribute: str
    value: Value

    def render(self) -> str:
        """Render as ABDL keyword text, e.g. ``<title, 'Advanced Database'>``."""
        return f"<{self.attribute}, {render(self.value)}>"


class Record:
    """An ABDM record: ordered keywords plus an optional textual portion.

    The class enforces the at-most-one-keyword-per-attribute rule.  One
    dict holds the keywords: it is the hash index predicate evaluation
    reads, and its insertion order is the keyword order rendering and the
    FILE/dbkey conventions rely on (a removed-then-set attribute moves to
    the end).  Holding only strings and scalars, the dict is not a
    container the cyclic garbage collector tracks (CPython 3.13 and
    earlier), so a record costs the collector one object.

    A record is **sealed** once a store takes it (:meth:`seal`): from then
    on every read shares the object — the store's live list, its version
    chains, the result cache and every caller's result — so :meth:`set`
    and :meth:`remove` raise :class:`~repro.errors.RecordSealed`.  Build a
    changed version from :meth:`copy` instead.
    """

    __slots__ = ("_index", "text", "_sealed")

    def __init__(
        self,
        keywords: Iterable[Keyword] = (),
        text: str = "",
    ) -> None:
        self._index: dict[str, Value] = {}
        self.text = text
        self._sealed = False
        for keyword in keywords:
            self.set(keyword.attribute, keyword.value)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, Value]], text: str = "") -> "Record":
        """Build a record from ``(attribute, value)`` tuples."""
        record = cls.__new__(cls)
        record._index = dict(pairs)
        record.text = text
        record._sealed = False
        return record

    # -- mapping-style access -------------------------------------------------

    def set(self, attribute: str, value: Value) -> None:
        """Set (or overwrite) the keyword for *attribute*."""
        if self._sealed:
            raise RecordSealed(f"cannot set {attribute!r}: {_SEALED}")
        self._index[attribute] = value

    def get(self, attribute: str, default: Value = None) -> Value:
        """Return the value paired with *attribute*, or *default*."""
        return self._index.get(attribute, default)

    def __getitem__(self, attribute: str) -> Value:
        return self._index[attribute]

    def keyword_map(self) -> dict[str, Value]:
        """The attribute→value dict backing this record.

        This is the fast accessor compiled matchers evaluate against.  It
        is the record's own dict, not a copy, so callers must treat it as
        read-only: mutate an unsealed record via :meth:`set` /
        :meth:`remove`, which are the checks sealing rests on.
        """
        return self._index

    def __contains__(self, attribute: str) -> bool:
        return attribute in self._index

    def remove(self, attribute: str) -> None:
        """Drop the keyword for *attribute* if present."""
        if self._sealed:
            raise RecordSealed(f"cannot remove {attribute!r}: {_SEALED}")
        self._index.pop(attribute, None)

    def seal(self) -> "Record":
        """Make this record read-only (idempotent); returns it."""
        self._sealed = True
        return self

    @property
    def attributes(self) -> list[str]:
        """Attribute names in insertion order."""
        return list(self._index)

    def keywords(self) -> Iterator[Keyword]:
        """Iterate the keywords in insertion order."""
        for attribute, value in self._index.items():
            yield Keyword(attribute, value)

    def pairs(self) -> list[tuple[str, Value]]:
        """Return ``(attribute, value)`` tuples in insertion order."""
        return list(self._index.items())

    # -- conventions ----------------------------------------------------------

    @property
    def file_name(self) -> Optional[str]:
        """The value of the FILE keyword, if any."""
        value = self._index.get(FILE_ATTRIBUTE)
        return value if isinstance(value, str) else None

    def copy(self) -> "Record":
        """An unsealed copy: the way to build a changed version of a record.

        UPDATE copies, modifies and seals each match before swapping it
        into the store; reads never copy, they share the sealed original.
        """
        twin = Record.__new__(Record)
        twin._index = dict(self._index)
        twin.text = self.text
        twin._sealed = False
        return twin

    # -- dunder helpers -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._index)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Record):
            return NotImplemented
        return self.pairs() == other.pairs() and self.text == other.text

    def __hash__(self) -> int:
        return hash((tuple(self.pairs()), self.text))

    def __repr__(self) -> str:
        body = ", ".join(k.render() for k in self.keywords())
        if self.text:
            return f"Record({body} | {self.text!r})"
        return f"Record({body})"

    def render(self) -> str:
        """Render in ABDL insert-body form: ``(<a1, v1>, <a2, v2>, ...)``."""
        return "(" + ", ".join(k.render() for k in self.keywords()) + ")"
