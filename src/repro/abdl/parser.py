"""Parser for textual ABDL requests.

The concrete syntax follows the thesis's examples:

.. code-block:: text

    RETRIEVE ((FILE = course) AND (title = 'Advanced Database'))
             (title, dept, semester, credits) BY course
    INSERT (<FILE, course>, <course, course$17>, <title, 'Databases'>)
    UPDATE ((FILE = employee) AND (salary < 100)) (salary = salary + 10)
    DELETE ((FILE = course) AND (credits = 0))
    RETRIEVE-COMMON (FILE = faculty) COMMON (dept, dname)
             (FILE = department) (name, budget)

Queries are parenthesized DNF: predicates ``(attr op value)`` combined with
``AND`` inside a clause and ``OR`` between clauses.  Arbitrary nesting is
*not* part of ABDL — the kernel receives queries already in DNF — but a
query may be a single bare predicate, as in ``(FILE = person)``.

Target lists are parenthesized attribute lists; ``*`` or the spelled-out
``ALL`` stands for "(all attributes)"; aggregates are written
``AVG(attr)``, ``COUNT(attr)`` and so on.  Unquoted words in value position
(database keys like ``person$3``) are taken as strings.
"""

from __future__ import annotations

from typing import Optional

from repro.abdl.ast import (
    AGGREGATE_OPERATIONS,
    ALL_ATTRIBUTES,
    DeleteRequest,
    InsertRequest,
    Modifier,
    Request,
    RetrieveCommonRequest,
    RetrieveRequest,
    TargetItem,
    Transaction,
    UpdateRequest,
)
from repro.abdm.predicate import Conjunction, Predicate, Query
from repro.abdm.record import Keyword, Record
from repro.abdm.values import Value
from repro.lang.lexer import Lexer, TokenStream, TokenType

_KEYWORDS = (
    "RETRIEVE",
    "INSERT",
    "DELETE",
    "UPDATE",
    "COMMON",
    "AND",
    "OR",
    "BY",
    "ALL",
    "NULL",
    *AGGREGATE_OPERATIONS,
)

_SYMBOLS = ("<=", ">=", "!=", "(", ")", "<", ">", "=", ",", "*", "-", "+", "/")

_lexer = Lexer(_KEYWORDS, _SYMBOLS)


def parse_request(text: str) -> Request:
    """Parse one ABDL request from *text*."""
    stream = TokenStream(_lexer.tokenize(text))
    request = _parse_request(stream)
    stream.expect_eof()
    return request


def parse_transaction(text: str) -> Transaction:
    """Parse a sequence of requests (one per line or whitespace-separated)."""
    stream = TokenStream(_lexer.tokenize(text))
    requests: list[Request] = []
    while not stream.at_end():
        requests.append(_parse_request(stream))
    return Transaction(requests)


def parse_query(text: str) -> Query:
    """Parse a standalone DNF query (mainly for tests)."""
    stream = TokenStream(_lexer.tokenize(text))
    query = _parse_query(stream)
    stream.expect_eof()
    return query


def _parse_request(stream: TokenStream) -> Request:
    if stream.accept_keyword("INSERT"):
        return InsertRequest(_parse_insert_body(stream))
    if stream.accept_keyword("DELETE"):
        return DeleteRequest(_parse_query(stream))
    if stream.accept_keyword("UPDATE"):
        query = _parse_query(stream)
        modifier = _parse_modifier(stream)
        return UpdateRequest(query, modifier)
    if stream.accept_keyword("RETRIEVE"):
        # RETRIEVE-COMMON is lexed as RETRIEVE '-' COMMON.
        if stream.at_symbol("-") and stream.peek(1).text == "COMMON":
            stream.advance()
            stream.advance()
            return _parse_retrieve_common(stream)
        query = _parse_query(stream)
        target = _parse_target_list(stream)
        by: Optional[str] = None
        if stream.accept_keyword("BY"):
            by = stream.expect_ident("BY attribute").text
        return RetrieveRequest(query, target, by)
    raise stream.error("expected an ABDL operation")


def _parse_retrieve_common(stream: TokenStream) -> RetrieveCommonRequest:
    left_query = _parse_query(stream)
    stream.expect_keyword("COMMON")
    stream.expect_symbol("(")
    left_attr = stream.expect_ident("common attribute").text
    if stream.accept_symbol(","):
        right_attr = stream.expect_ident("common attribute").text
    else:
        right_attr = left_attr
    stream.expect_symbol(")")
    right_query = _parse_query(stream)
    target = _parse_target_list(stream)
    return RetrieveCommonRequest(left_query, left_attr, right_query, right_attr, target)


def _parse_insert_body(stream: TokenStream) -> Record:
    stream.expect_symbol("(")
    pairs: list[Keyword] = []
    while True:
        stream.expect_symbol("<")
        attribute = stream.expect_ident("attribute name").text
        stream.expect_symbol(",")
        value = _parse_value(stream)
        stream.expect_symbol(">")
        pairs.append(Keyword(attribute, value))
        if not stream.accept_symbol(","):
            break
    stream.expect_symbol(")")
    if not pairs:
        raise stream.error("INSERT needs at least one keyword")
    return Record(pairs)


def _parse_modifier(stream: TokenStream) -> Modifier:
    stream.expect_symbol("(")
    attribute = stream.expect_ident("modifier attribute").text
    stream.expect_symbol("=")
    # Self-referential arithmetic: (attr = attr + 3)
    token = stream.current
    if token.type in (TokenType.IDENT, TokenType.KEYWORD) and token.text == attribute:
        nxt = stream.peek(1)
        if nxt.type is TokenType.SYMBOL and nxt.text in "+-*/":
            stream.advance()
            op = stream.advance().text
            operand = _parse_value(stream)
            stream.expect_symbol(")")
            return Modifier(attribute, arithmetic=op, operand=operand)
    value = _parse_value(stream)
    stream.expect_symbol(")")
    return Modifier(attribute, value=value)


def _parse_target_list(stream: TokenStream) -> list[TargetItem]:
    stream.expect_symbol("(")
    items: list[TargetItem] = []
    while True:
        if stream.accept_symbol("*") or stream.accept_keyword("ALL"):
            items.append(ALL_ATTRIBUTES)
        elif stream.at_keyword(*AGGREGATE_OPERATIONS):
            aggregate = stream.advance().text
            stream.expect_symbol("(")
            attribute = "*" if stream.accept_symbol("*") else stream.expect_ident(
                "aggregate attribute"
            ).text
            stream.expect_symbol(")")
            items.append(TargetItem(attribute, aggregate))
        else:
            items.append(TargetItem(stream.expect_ident("target attribute").text))
        if not stream.accept_symbol(","):
            break
    stream.expect_symbol(")")
    return items


def _parse_query(stream: TokenStream) -> Query:
    """Parse a DNF query: clause { OR clause } with clause = pred { AND pred }.

    Both predicates and whole clauses may be parenthesized; the grammar
    accepts the thesis's style ``((a = 1) AND (b = 2))`` as well as the
    minimal ``(a = 1)``.
    """
    stream.expect_symbol("(")
    clauses: list[Conjunction] = [_parse_clause(stream)]
    while stream.accept_keyword("OR"):
        clauses.append(_parse_clause(stream))
    stream.expect_symbol(")")
    return Query(clauses)


def _parse_clause(stream: TokenStream) -> Conjunction:
    predicates = _parse_predicate_group(stream)
    while stream.accept_keyword("AND"):
        predicates.extend(_parse_predicate_group(stream))
    return Conjunction(predicates)


def _parse_predicate_group(stream: TokenStream) -> list[Predicate]:
    """A predicate, or a parenthesized AND-group of predicates.

    ABDL queries are flat DNF, but the thesis's concrete texts freely
    parenthesize conjunctions (``((a = 1) AND (b = 2)) OR (c = 3)``); the
    group parser splices nested AND-groups into the enclosing clause.
    """
    if stream.accept_symbol("("):
        predicates = _parse_predicate_group(stream)
        while stream.accept_keyword("AND"):
            predicates.extend(_parse_predicate_group(stream))
        stream.expect_symbol(")")
        return predicates
    return [_parse_bare_predicate(stream)]


def _parse_bare_predicate(stream: TokenStream) -> Predicate:
    attribute = stream.expect_ident("predicate attribute").text
    token = stream.current
    if token.type is not TokenType.SYMBOL or token.text not in (
        "=",
        "!=",
        "<",
        "<=",
        ">",
        ">=",
    ):
        raise stream.error("expected a relational operator")
    operator = stream.advance().text
    value = _parse_value(stream)
    return Predicate(attribute, operator, value)


def _parse_value(stream: TokenStream) -> Value:
    token = stream.current
    if token.type is TokenType.STRING:
        stream.advance()
        return token.value
    if token.type is TokenType.NUMBER:
        stream.advance()
        return token.value
    if stream.accept_symbol("-"):
        number = stream.current
        if number.type is not TokenType.NUMBER:
            raise stream.error("expected a number after unary minus")
        stream.advance()
        return -number.value  # type: ignore[operator]
    if stream.accept_keyword("NULL"):
        return None
    if token.type in (TokenType.IDENT, TokenType.KEYWORD):
        # Unquoted words in value position are database keys / bare strings
        # (the thesis writes <course, course$17> without quotes).
        stream.advance()
        return token.text
    raise stream.error("expected a value")
