"""MBDS — the Multi-Backend Database System simulator.

MBDS (thesis I.B.2) is MLDS's kernel database engine: a master controller
plus N parallel backends, each with identical software and a dedicated
disk.  This package simulates that architecture faithfully enough to
reproduce its two performance claims: reciprocal response-time decrease as
backends are added at fixed database size, and response-time invariance
when backends grow proportionally with the database.

The paper's hardware (minicomputer backends on a broadcast bus) is
replaced by in-process backend objects plus an analytic
:class:`~repro.mbds.timing.TimingModel`; the partitioned parallel scans —
the mechanism behind both claims — execute for real.
"""

from repro.mbds.backend import Backend, BackendResult
from repro.mbds.controller import BackendController, ExecutionTrace
from repro.mbds.engine import (
    ExecutionEngine,
    ProcessPoolEngine,
    SerialEngine,
    make_engine,
)
from repro.mbds.kds import DatabaseTemplate, KernelDatabaseSystem
from repro.mbds.placement import RoundRobinPlacement
from repro.mbds.timing import BroadcastPhase, ResponseTime, TimingModel

__all__ = [
    "Backend",
    "BackendController",
    "BackendResult",
    "BroadcastPhase",
    "DatabaseTemplate",
    "ExecutionEngine",
    "ExecutionTrace",
    "KernelDatabaseSystem",
    "ProcessPoolEngine",
    "ResponseTime",
    "RoundRobinPlacement",
    "SerialEngine",
    "TimingModel",
    "make_engine",
]
