"""Wire codec for the process-engine protocol.

The WAL codec (:mod:`repro.wal.codec`) is exact for the three mutating
request kinds over the kernel value domain; the process engine reuses it
verbatim and adds what a *live* backend conversation needs on top:

* the two retrieval request kinds (target lists, BY attribute, the
  RETRIEVE-COMMON query pair), which are never journaled but must cross
  to the worker;
* the reply side — :class:`~repro.abdl.executor.RequestResult` (records,
  or an aggregate's per-group fold) and
  :class:`~repro.mbds.backend.BackendResult` with their scan-statistics
  deltas;
* aggregate index digests and observability span trees.

Every encoder returns plain values (dicts, lists, strings, numbers,
booleans, None) and every decoder inverts its encoder exactly.  The
transport marshals those values, so floats cross bit-identically —
NaN payloads and the timing model's simulated milliseconds included —
which is what lets the engine-equivalence tests demand *bit*-identical
results from a worker process.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Mapping, Optional

from repro.abdl.ast import (
    Request,
    RetrieveCommonRequest,
    RetrieveRequest,
    TargetItem,
)
from repro.abdl.executor import RequestResult
from repro.abdm.plan import AttributeIndexDigest
from repro.abdm.record import Record
from repro.errors import ExecutionError
from repro.mbds.backend import BackendResult
from repro.mbds.timing import TimingModel
from repro.obs.trace import Span
from repro.wal.codec import (
    decode_query,
    decode_request,
    encode_query,
    encode_request,
    is_mutating,
)

# -- requests ------------------------------------------------------------------


def _encode_target(target: tuple[TargetItem, ...]) -> list[list[Optional[str]]]:
    return [[item.attribute, item.aggregate] for item in target]


def _decode_target(payload: list[list[Optional[str]]]) -> list[TargetItem]:
    return [TargetItem(attribute, aggregate) for attribute, aggregate in payload]  # type: ignore[arg-type]


def encode_any_request(request: Request) -> dict[str, Any]:
    """Encode any of the five ABDL request kinds (superset of the WAL codec)."""
    if is_mutating(request):
        return encode_request(request)
    if isinstance(request, RetrieveRequest):
        return {
            "op": "RETRIEVE",
            "query": encode_query(request.query),
            "target": _encode_target(request.target),
            "by": request.by,
        }
    if isinstance(request, RetrieveCommonRequest):
        return {
            "op": "RETRIEVE-COMMON",
            "left_query": encode_query(request.left_query),
            "left_attribute": request.left_attribute,
            "right_query": encode_query(request.right_query),
            "right_attribute": request.right_attribute,
            "target": _encode_target(request.target),
        }
    raise ExecutionError(f"cannot encode request type {type(request).__name__}")


def decode_any_request(payload: Mapping[str, Any]) -> Request:
    """Decode a dict produced by :func:`encode_any_request`."""
    operation = payload.get("op")
    if operation == "RETRIEVE":
        return RetrieveRequest(
            decode_query(payload["query"]),
            _decode_target(payload["target"]),
            by=payload.get("by"),
        )
    if operation == "RETRIEVE-COMMON":
        return RetrieveCommonRequest(
            decode_query(payload["left_query"]),
            payload["left_attribute"],
            decode_query(payload["right_query"]),
            payload["right_attribute"],
            _decode_target(payload["target"]),
        )
    return decode_request(dict(payload))


# -- records and results -------------------------------------------------------


def encode_record(record: Record) -> list[Any]:
    """``[[attr, value], ...], text`` — positional to keep replies compact."""
    return [[[a, v] for a, v in record.pairs()], record.text]


def decode_record(payload: list[Any]) -> Record:
    """The record *payload* encodes, sealed: a decoded record is always a
    stored one (a scan result, a store dump, a batch a worker stores), so
    it keeps the read-only contract it had on the other side of the pipe."""
    pairs, text = payload
    return Record.from_pairs(
        [(attribute, value) for attribute, value in pairs], text=text
    ).seal()


def encode_result(result: RequestResult) -> dict[str, Any]:
    """A result; an aggregate fold is plain lists already and crosses as
    it is, under ``groups`` (absent for every other result)."""
    payload = {
        "operation": result.operation,
        "records": [encode_record(r) for r in result.records],
        "count": result.count,
    }
    if result.groups is not None:
        payload["groups"] = result.groups
    return payload


def decode_result(payload: Mapping[str, Any]) -> RequestResult:
    return RequestResult(
        payload["operation"],
        records=[decode_record(r) for r in payload["records"]],
        count=payload["count"],
        groups=payload.get("groups"),
    )


def encode_backend_result(result: BackendResult) -> dict[str, Any]:
    return {
        "backend_id": result.backend_id,
        "result": encode_result(result.result),
        "elapsed_ms": result.elapsed_ms,
        "wall_ms": result.wall_ms,
        "records_examined": result.records_examined,
        "index_hits": result.index_hits,
        "range_hits": result.range_hits,
        "fallback_scans": result.fallback_scans,
    }


def decode_backend_result(payload: Mapping[str, Any]) -> BackendResult:
    return BackendResult(
        payload["backend_id"],
        decode_result(payload["result"]),
        payload["elapsed_ms"],
        payload["wall_ms"],
        payload["records_examined"],
        payload["index_hits"],
        payload["range_hits"],
        payload["fallback_scans"],
    )


# -- aggregate index digests ---------------------------------------------------


def encode_digest(digest: AttributeIndexDigest) -> dict[str, Any]:
    return asdict(digest)


def decode_digest(payload: Mapping[str, Any]) -> AttributeIndexDigest:
    return AttributeIndexDigest(**payload)


# -- trace spans ---------------------------------------------------------------


def encode_span(span: Span) -> dict[str, Any]:
    """Encode a finished span subtree (the worker's half of a trace)."""
    return {
        "name": span.name,
        "wall_ms": span.wall_ms,
        "simulated_ms": span.simulated_ms,
        "attrs": dict(span.attrs),
        "children": [encode_span(child) for child in span.children],
    }


def decode_span(payload: Mapping[str, Any], parent: Optional[Span] = None) -> Span:
    """Rebuild a span subtree, grafting it under *parent* when given.

    The worker's spans (``qc.compile``, access-path attributes)
    re-attach under the controller-side per-backend span so a traced
    request reads identically whichever engine ran it.
    """
    span = Span(payload["name"], parent)
    span.attrs.update(payload["attrs"])
    span.simulated_ms = payload["simulated_ms"]
    span.wall_ms = payload["wall_ms"]
    for child in payload["children"]:
        decode_span(child, span)
    return span


def graft_spans(payloads: list[dict[str, Any]], parent: Optional[Span]) -> None:
    """Attach every encoded worker span tree under *parent*."""
    for payload in payloads:
        decode_span(payload, parent)


# -- timing model --------------------------------------------------------------


def encode_timing(timing: TimingModel) -> dict[str, Any]:
    return {
        "broadcast_ms": timing.broadcast_ms,
        "access_ms": timing.access_ms,
        "page_scan_ms": timing.page_scan_ms,
        "records_per_page": timing.records_per_page,
        "select_record_ms": timing.select_record_ms,
        "merge_record_ms": timing.merge_record_ms,
        "insert_ms": timing.insert_ms,
    }


def decode_timing(payload: Mapping[str, Any]) -> TimingModel:
    return TimingModel(**payload)
