"""A process-wide metrics registry: counters, gauges, histograms.

Zero-dependency and deliberately small.  Three instrument kinds:

* :class:`Counter` — monotonically increasing float (requests executed,
  records examined, WAL ops journaled).
* :class:`Gauge` — last-write-wins float (resident records).
* :class:`Histogram` — fixed-boundary latency distribution.  The bucket
  boundaries are a class-level constant (milliseconds), never derived
  from observed data or the wall clock, so two runs of the same
  workload always produce structurally identical exports.

The hot-path API lives on the registry itself (:meth:`MetricsRegistry.inc`
/ :meth:`observe` / :meth:`set_gauge`): one dict lookup plus one float
add, guarded by a single lock so pool threads can record safely.  The
whole registry exports as JSON via :meth:`as_dict` (the CLI's
``--metrics-out`` and ``.stats``).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Optional, Union


#: Default histogram bucket upper bounds, in milliseconds.  Fixed so
#: exports are schema-stable across runs and machines.
DEFAULT_BUCKETS_MS: tuple[float, ...] = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0,
)


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def as_dict(self) -> dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A last-write-wins value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def as_dict(self) -> dict[str, Any]:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Fixed-boundary distribution of observed values (milliseconds)."""

    __slots__ = ("name", "boundaries", "bucket_counts", "count", "sum", "max")

    def __init__(
        self, name: str, boundaries: tuple[float, ...] = DEFAULT_BUCKETS_MS
    ) -> None:
        if tuple(sorted(boundaries)) != tuple(boundaries) or not boundaries:
            raise ValueError("histogram boundaries must be sorted and non-empty")
        self.name = name
        self.boundaries = tuple(boundaries)
        #: counts[i] observes values <= boundaries[i]; the final slot is
        #: the +Inf overflow bucket.
        self.bucket_counts = [0] * (len(self.boundaries) + 1)
        self.count = 0
        self.sum = 0.0
        self.max = 0.0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.boundaries, value)] += 1
        self.count += 1
        self.sum += value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket holding the *q*-quantile observation."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for index, bucket in enumerate(self.bucket_counts):
            seen += bucket
            if seen >= rank and bucket:
                if index == len(self.boundaries):
                    return self.max
                return self.boundaries[index]
        return self.max

    def as_dict(self) -> dict[str, Any]:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.sum,
            "max": self.max,
            "mean": self.mean,
            "p50": self.quantile(0.5),
            "p99": self.quantile(0.99),
            "boundaries_ms": list(self.boundaries),
            "bucket_counts": list(self.bucket_counts),
        }


Instrument = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Named instruments, created on first use, exported as one JSON tree."""

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, Instrument] = {}

    # -- hot path --------------------------------------------------------------

    def inc(self, name: str, amount: float = 1.0) -> None:
        """Increment the counter *name* (creating it on first use)."""
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = self._instruments[name] = Counter(name)
            instrument.inc(amount)  # type: ignore[union-attr]

    def set_gauge(self, name: str, value: float) -> None:
        """Set the gauge *name* (creating it on first use)."""
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = self._instruments[name] = Gauge(name)
            instrument.set(value)  # type: ignore[union-attr]

    def observe(self, name: str, value: float) -> None:
        """Record *value* into the histogram *name* (created on first use)."""
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = self._instruments[name] = Histogram(name)
            instrument.observe(value)  # type: ignore[union-attr]

    # -- access ----------------------------------------------------------------

    def get(self, name: str) -> Optional[Instrument]:
        with self._lock:
            return self._instruments.get(name)

    def counter_value(self, name: str) -> float:
        instrument = self.get(name)
        return instrument.value if isinstance(instrument, (Counter, Gauge)) else 0.0

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._instruments)

    def as_dict(self) -> dict[str, Any]:
        """The whole registry, name-sorted, JSON-ready."""
        with self._lock:
            return {
                name: self._instruments[name].as_dict()
                for name in sorted(self._instruments)
            }

    def clear(self) -> None:
        with self._lock:
            self._instruments.clear()


class NullMetrics:
    """The disabled registry: constant-time no-ops, empty exports."""

    enabled = False

    def inc(self, name: str, amount: float = 1.0) -> None:
        pass

    def set_gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def get(self, name: str) -> None:
        return None

    def counter_value(self, name: str) -> float:
        return 0.0

    def names(self) -> list[str]:
        return []

    def as_dict(self) -> dict[str, Any]:
        return {}

    def clear(self) -> None:
        pass


NULL_METRICS = NullMetrics()
