"""Analytic timing model for the Multi-Backend Database System.

MBDS's performance claims (thesis I.B.2) rest on partitioned parallel
scans: every backend holds a slice of each file on its own disk, executes
each broadcast request against its slice, and the controller merges
results.  This module charges simulated time to those activities so the
benchmarks can reproduce the two claims:

1. at fixed database size, response time falls nearly reciprocally with
   the number of backends (the scan is the dominant term and it divides),
2. growing backends proportionally with the database keeps response time
   invariant (per-backend slice size is constant).

The defaults loosely model a mid-1980s minicomputer backend: a 30 ms disk
access to reach a file's cylinder, 10 ms to scan a track-sized page of 20
records, 0.4 ms of CPU per selected record, a 5 ms broadcast over the
communication bus and 0.1 ms of controller time per merged record.  The
absolute values only set the scale; the *shape* of the curves comes from
the structure of the model.

Simulated time is **engine-independent**: it is a pure function of each
backend's store state (records examined / selected), so dispatching a
broadcast serially or across worker processes (see :mod:`repro.mbds.engine`)
yields bit-identical :class:`ResponseTime` totals.  Real wall-clock time
is reported separately (``ExecutionTrace.wall_ms``) and is the quantity
the execution engines change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class TimingModel:
    """Cost parameters for the MBDS simulator (all times in milliseconds)."""

    broadcast_ms: float = 5.0
    access_ms: float = 30.0
    page_scan_ms: float = 10.0
    records_per_page: int = 20
    select_record_ms: float = 0.4
    merge_record_ms: float = 0.1
    insert_ms: float = 12.0

    def pages(self, records: int) -> int:
        """Number of track-sized pages holding *records* records."""
        if records <= 0:
            return 0
        return math.ceil(records / self.records_per_page)

    def backend_scan_ms(self, records_examined: int, records_selected: int) -> float:
        """Time one backend spends scanning its slice for one request."""
        if records_examined == 0 and records_selected == 0:
            return self.access_ms
        return (
            self.access_ms
            + self.pages(records_examined) * self.page_scan_ms
            + records_selected * self.select_record_ms
        )

    def backend_insert_ms(self) -> float:
        """Time one backend spends placing a new record on its disk."""
        return self.access_ms + self.insert_ms

    def controller_ms(self, merged_records: int) -> float:
        """Controller time: request broadcast plus result merging."""
        return self.broadcast_ms + merged_records * self.merge_record_ms


@dataclass
class ResponseTime:
    """Accumulated simulated time for one request or transaction."""

    total_ms: float = 0.0
    backend_ms: float = 0.0
    controller_ms: float = 0.0

    def add(self, backend_ms: float, controller_ms: float) -> None:
        self.backend_ms += backend_ms
        self.controller_ms += controller_ms
        self.total_ms += backend_ms + controller_ms

    def __add__(self, other: "ResponseTime") -> "ResponseTime":
        return ResponseTime(
            self.total_ms + other.total_ms,
            self.backend_ms + other.backend_ms,
            self.controller_ms + other.controller_ms,
        )

    def as_dict(self) -> dict[str, float]:
        """A JSON-friendly view (used by the benchmark reports)."""
        return {
            "total_ms": self.total_ms,
            "backend_ms": self.backend_ms,
            "controller_ms": self.controller_ms,
        }


#: Canonical phase labels.  Every per-backend timing list and every
#: ``backend[i].<phase>`` trace span derives its label from the *same*
#: string handed down the execution path (see
#: ``BackendController.execute(request, label=...)``), so the accounting
#: label and the span label can never drift apart.
PHASE_BROADCAST = "broadcast"
PHASE_INSERT = "insert"
PHASE_COMMON_LEFT = "left"
PHASE_COMMON_RIGHT = "right"
PHASE_AGGREGATE_INDEX = "aggregate-index"


@dataclass
class BroadcastPhase:
    """One labelled broadcast inside a request (per-backend timings).

    Most requests have exactly one phase; RETRIEVE-COMMON has a ``left``
    and a ``right`` phase (the two broadcast retrievals it is built
    from), kept separate so per-backend accounting never silently
    concatenates two broadcasts into one flat list.  The *label* is the
    same string the per-backend trace spans are named with.
    """

    label: str
    per_backend_ms: list[float] = field(default_factory=list)
    per_backend_wall_ms: list[float] = field(default_factory=list)
