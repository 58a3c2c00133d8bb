"""The WAL codec must round-trip every mutating request exactly."""

from __future__ import annotations

import json

import pytest

from repro.abdl.ast import (
    ALL_ATTRIBUTES,
    DeleteRequest,
    InsertRequest,
    Modifier,
    RetrieveRequest,
    UpdateRequest,
)
from repro.abdm.predicate import Conjunction, Predicate, Query
from repro.abdm.record import Record
from repro.errors import WalError
from repro.wal.codec import (
    decode_request,
    encode_query,
    decode_query,
    encode_request,
    is_mutating,
)

from tests.wal.conftest import query


def roundtrip(request):
    """Encode, force through actual JSON text, decode."""
    return decode_request(json.loads(json.dumps(encode_request(request))))


def test_insert_roundtrips_pairs_text_and_value_types():
    record = Record.from_pairs(
        [("FILE", "course"), ("units", 3), ("gpa", 3.5), ("note", None)],
        text="An introduction to database design.",
    )
    request = InsertRequest(record)
    decoded = roundtrip(request)
    assert isinstance(decoded, InsertRequest)
    assert decoded.record == record
    assert decoded.record.text == record.text


def test_insert_text_survives_where_rendered_abdl_drops_it():
    # The rendered ABDL form loses the textual portion — the very reason
    # the WAL journals JSON rather than request.render() text.
    record = Record.from_pairs([("FILE", "f"), ("a", 1)], text="textual portion")
    rendered = InsertRequest(record).render()
    assert "textual portion" not in rendered
    assert roundtrip(InsertRequest(record)).record.text == "textual portion"


def test_keys_the_decoder_defaults_are_not_journaled():
    record = Record.from_pairs([("FILE", "f"), ("a", 1)])
    assert encode_request(InsertRequest(record))["record"] == {
        "pairs": [["FILE", "f"], ["a", 1]]
    }
    assert roundtrip(InsertRequest(record)).record.text == ""
    set_null = UpdateRequest(query(("FILE", "=", "f")), Modifier("a"))
    assert encode_request(set_null)["modifier"] == {"attribute": "a"}
    assert roundtrip(set_null) == set_null


def test_delete_roundtrips_multi_clause_query():
    dnf = Query(
        [
            Conjunction([Predicate("FILE", "=", "f"), Predicate("a", ">=", 2)]),
            Conjunction([Predicate("b", "!=", "x")]),
        ]
    )
    decoded = roundtrip(DeleteRequest(dnf))
    assert isinstance(decoded, DeleteRequest)
    assert decoded.query == dnf


def test_update_roundtrips_plain_and_arithmetic_modifiers():
    plain = UpdateRequest(query(("FILE", "=", "f")), Modifier("a", value=7))
    decoded = roundtrip(plain)
    assert isinstance(decoded, UpdateRequest)
    assert decoded.modifier == plain.modifier
    assert decoded.query == plain.query

    arithmetic = UpdateRequest(
        query(("FILE", "=", "f")),
        Modifier("salary", arithmetic="+", operand=1000.0),
    )
    decoded = roundtrip(arithmetic)
    assert decoded.modifier == arithmetic.modifier


def test_query_codec_roundtrips_empty_query():
    empty = Query([])
    assert decode_query(encode_query(empty)) == empty


def test_retrievals_are_not_journaled():
    retrieval = RetrieveRequest(query(("FILE", "=", "f")), (ALL_ATTRIBUTES,))
    assert not is_mutating(retrieval)
    with pytest.raises(WalError):
        encode_request(retrieval)


def test_unknown_operation_rejected():
    with pytest.raises(WalError):
        decode_request({"op": "VACUUM"})


def test_mutating_classifier():
    record = Record.from_pairs([("FILE", "f")])
    assert is_mutating(InsertRequest(record))
    assert is_mutating(DeleteRequest(query(("FILE", "=", "f"))))
    assert is_mutating(
        UpdateRequest(query(("FILE", "=", "f")), Modifier("a", value=1))
    )
