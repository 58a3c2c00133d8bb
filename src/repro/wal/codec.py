"""JSON codec for the mutating ABDL requests the WAL journals.

The WAL stores each journaled operation as a JSON object rather than as
rendered ABDL text: the textual form is lossy (``InsertRequest.render``
drops the record's textual portion, and re-lexing strings would have to
round-trip quoting).  The codec below is exact for the four mutating
request kinds — INSERT, BULK-INSERT, DELETE, UPDATE — over the kernel
value domain (``int`` / ``float`` / ``str`` / null), all of which are
JSON-native.  A BULK-INSERT journals N records as one entry: one append,
one replay, atomically torn-or-whole like any other single WAL line.

Retrievals are never journaled; asking the codec to encode one is a
programming error and raises :class:`~repro.errors.WalError`.
"""

from __future__ import annotations

from repro.abdl.ast import (
    BulkInsertRequest,
    DeleteRequest,
    InsertRequest,
    Modifier,
    Request,
    UpdateRequest,
)
from repro.abdm.predicate import Conjunction, Predicate, Query
from repro.abdm.record import Record
from repro.errors import WalError

#: Request types the WAL journals (everything else is read-only).
MUTATING_REQUESTS = (InsertRequest, BulkInsertRequest, DeleteRequest, UpdateRequest)


def is_mutating(request: Request) -> bool:
    """True when *request* changes store contents (and so must be logged)."""
    return isinstance(request, MUTATING_REQUESTS)


# -- queries -------------------------------------------------------------------


def encode_query(query: Query) -> list:
    """DNF query -> ``[[ [attr, op, value], ... ], ...]`` (one list per clause)."""
    return [
        [[p.attribute, p.operator, p.value] for p in clause] for clause in query
    ]


def decode_query(payload: list) -> Query:
    return Query(
        Conjunction(Predicate(attribute, operator, value) for attribute, operator, value in clause)
        for clause in payload
    )


# -- requests ------------------------------------------------------------------
#
# Keys holding what :func:`decode_request` defaults to anyway — an empty
# textual portion, a null modifier field — are left out: they are a
# tenth of a journaled record and a fifth of a journaled UPDATE.


def _encode_record(record: Record) -> dict:
    encoded: dict = {"pairs": [[a, v] for a, v in record.pairs()]}
    if record.text:
        encoded["text"] = record.text
    return encoded


def encode_request(request: Request) -> dict:
    """Encode one mutating request as a JSON-serializable dict."""
    if isinstance(request, InsertRequest):
        return {"op": "INSERT", "record": _encode_record(request.record)}
    if isinstance(request, BulkInsertRequest):
        return {
            "op": "BULK-INSERT",
            "records": [_encode_record(record) for record in request.records],
        }
    if isinstance(request, DeleteRequest):
        return {"op": "DELETE", "query": encode_query(request.query)}
    if isinstance(request, UpdateRequest):
        modifier = request.modifier
        fields = {
            "attribute": modifier.attribute,
            "value": modifier.value,
            "arithmetic": modifier.arithmetic,
            "operand": modifier.operand,
        }
        return {
            "op": "UPDATE",
            "query": encode_query(request.query),
            "modifier": {k: v for k, v in fields.items() if v is not None},
        }
    raise WalError(
        f"only mutating requests are journaled, not {type(request).__name__}"
    )


def decode_request(payload: dict) -> Request:
    """Decode a dict produced by :func:`encode_request`."""
    operation = payload.get("op")
    if operation == "INSERT":
        record = payload["record"]
        pairs = [(attribute, value) for attribute, value in record["pairs"]]
        return InsertRequest(Record.from_pairs(pairs, text=record.get("text", "")))
    if operation == "BULK-INSERT":
        return BulkInsertRequest(
            [
                Record.from_pairs(
                    [(attribute, value) for attribute, value in record["pairs"]],
                    text=record.get("text", ""),
                )
                for record in payload["records"]
            ]
        )
    if operation == "DELETE":
        return DeleteRequest(decode_query(payload["query"]))
    if operation == "UPDATE":
        modifier = payload["modifier"]
        return UpdateRequest(
            decode_query(payload["query"]),
            Modifier(
                modifier["attribute"],
                value=modifier.get("value"),
                arithmetic=modifier.get("arithmetic"),
                operand=modifier.get("operand"),
            ),
        )
    raise WalError(f"unknown journaled operation {operation!r}")
