"""Cyclic-GC pauses as metrics: how often each generation runs, and for how long.

A gen-2 pass walks every container the process holds — every stored
record among them, and every row a cache keeps alive — so a loaded
server pays tens of milliseconds for one, inside whichever statement
happened to allocate the object that tipped the threshold.  That is a latency tail no span
explains; :class:`GcProbe` makes it a number:

``proc.gc.collections.gen<N>``
    Collections of generation *N* (0, 1, 2) since the probe was installed.
``proc.gc.pause_s.gen<N>``
    Seconds the interpreter spent inside them.

The interpreter calls the hook with the GIL held, possibly while the
allocating thread sits inside :class:`~repro.obs.metrics.MetricsRegistry`
holding its (non-reentrant) lock — so the hook only adds to the probe's
own totals, and :meth:`GcProbe.flush` moves them into the registry from
ordinary code (the server's ``metrics`` op).
"""

from __future__ import annotations

import gc
from time import perf_counter
from typing import Union

from repro.obs.metrics import MetricsRegistry, NullMetrics

GENERATIONS = 3


class GcProbe:
    """A ``gc.callbacks`` hook feeding one metrics registry."""

    def __init__(self, metrics: Union[MetricsRegistry, NullMetrics]) -> None:
        self._metrics = metrics
        self._started = 0.0
        self._collections = [0] * GENERATIONS
        self._pause_s = [0.0] * GENERATIONS
        self._flushed_collections = [0] * GENERATIONS
        self._flushed_pause_s = [0.0] * GENERATIONS

    def install(self) -> None:
        if self._on_gc not in gc.callbacks:
            gc.callbacks.append(self._on_gc)

    def remove(self) -> None:
        """Unhook and publish what was counted up to now."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        self.flush()

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = perf_counter()
        else:
            generation = info["generation"]
            self._pause_s[generation] += perf_counter() - self._started
            self._collections[generation] += 1

    def flush(self) -> None:
        """Add what was counted since the last flush to the registry."""
        for generation in range(GENERATIONS):
            collections = self._collections[generation]
            pause_s = self._pause_s[generation]
            if collections == self._flushed_collections[generation]:
                continue
            self._metrics.inc(
                f"proc.gc.collections.gen{generation}",
                collections - self._flushed_collections[generation],
            )
            self._metrics.inc(
                f"proc.gc.pause_s.gen{generation}",
                pause_s - self._flushed_pause_s[generation],
            )
            self._flushed_collections[generation] = collections
            self._flushed_pause_s[generation] = pause_s
