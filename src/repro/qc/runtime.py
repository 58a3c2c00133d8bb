"""Process-wide switches and the statement memo of the qc subsystem.

Three caches exist, each an :class:`~repro.qc.lru.LRUCache` with a fixed
bound set where it is constructed:

``qc.parse`` — the statement memo (:data:`STATEMENT_MEMO_SIZE`, here)
    One per process, keyed ``(language, exact text)`` → the tuple of
    statement ASTs that text parses to.  All four language engines'
    ``run(text)`` consult it through :func:`parsed`, and nothing else
    does.  Exact-text keys are safe because a parse depends on nothing
    but the text — no schema, session or currency state reaches a parser
    — and sharing the value is safe because every AST class is a frozen
    dataclass of tuples and scalars that the engines only read.
``qc.compile`` — compiled queries, one LRU per :class:`~repro.abdm.store.ABStore`
    (the generated code they bind is kept once per process, per query
    shape, by :mod:`repro.qc.compile`).
``qc.result`` — RETRIEVE results, one epoch-guarded LRU per backend.

:class:`QCConfig` is a mutable singleton (:data:`config`) holding the
three in-process switches that tests and the compile / range-index
benchmarks flip to reach the reference implementations: interpreted
matching, the full scan, and uncached accounting.  No switch changes a
result; ``compile_enabled`` and ``result_cache_enabled`` also leave
simulated times bit-identical (the planner exists to examine fewer
records, so ``plan_enabled`` moves them).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Union

from repro.qc.lru import LRUCache, MISSING

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.metrics import MetricsRegistry, NullMetrics

#: Distinct statement texts the memo holds.
STATEMENT_MEMO_SIZE = 512


@dataclass
class QCConfig:
    """Switches between each optimised path and its reference path."""

    #: Off, stores match with the interpreted ``Query.matches``.
    compile_enabled: bool = True
    #: Off, every indexed store falls back to the compiled full scan —
    #: the baseline bench_range_index.py measures the planner against.
    plan_enabled: bool = True
    #: Off, backends execute every RETRIEVE instead of replaying one.
    result_cache_enabled: bool = True


#: The process-wide configuration singleton.
config = QCConfig()

_statements = LRUCache(STATEMENT_MEMO_SIZE, prefix="qc.parse")


def parsed(language: str, text: str, parser: Callable[[str], Iterable[Any]]) -> tuple:
    """The statements *text* holds, parsed by *parser* once per exact text.

    A text that fails to parse raises out of *parser* and is not stored.
    """
    key = (language, text)
    statements = _statements.get(key)
    if statements is MISSING:
        statements = tuple(parser(text))
        _statements.put(key, statements)
    return statements


def bind_metrics(metrics: Union["MetricsRegistry", "NullMetrics"]) -> None:
    """Mirror the statement memo's counters into *metrics*.

    Last caller wins — with several instrumented MLDS instances in one
    process, the memo's counters land in the most recently bound registry
    (per-store and per-backend caches are bound per instance and
    unaffected).
    """
    _statements.bind_metrics(metrics)


def memo_snapshot() -> dict[str, object]:
    """The statement memo's counters and occupancy (for ``.caches``)."""
    return _statements.snapshot()


def reset() -> None:
    """Restore the switches, empty the statement memo and forget the
    generated scan kernels (test isolation)."""
    from repro.obs.metrics import NULL_METRICS
    from repro.qc.compile import reset_kernels

    reset_kernels()
    vars(config).update(asdict(QCConfig()))
    _statements.clear()
    _statements.bind_metrics(NULL_METRICS)
    _statements.hits = _statements.misses = _statements.evictions = 0
