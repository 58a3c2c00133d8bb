"""The bounded LRU each of the three qc caches is."""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry
from repro.qc.lru import LRUCache, MISSING


def test_miss_then_hit_counts():
    cache = LRUCache(4)
    assert cache.get("a") is MISSING
    cache.put("a", 1)
    assert cache.get("a") == 1
    assert (cache.hits, cache.misses) == (1, 1)


def test_cached_none_is_distinguishable_from_missing():
    cache = LRUCache(4)
    cache.put("a", None)
    assert cache.get("a") is None
    assert cache.get("b") is MISSING


def test_eviction_is_least_recently_used():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.get("a")  # refresh a: b is now the LRU entry
    cache.put("c", 3)
    assert cache.get("b") is MISSING
    assert cache.get("a") == 1
    assert cache.get("c") == 3
    assert cache.evictions == 1


def test_put_existing_key_updates_without_eviction():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.put("a", 10)
    assert cache.get("a") == 10
    assert cache.get("b") == 2
    assert cache.evictions == 0


def test_clear_empties_but_keeps_counters():
    cache = LRUCache(4)
    cache.put("a", 1)
    cache.get("a")
    cache.clear()
    assert cache.get("a") is MISSING
    assert cache.hits == 1
    assert cache.misses == 1


def test_snapshot_shape():
    cache = LRUCache(4, prefix="qc.test")
    cache.put("a", 1)
    cache.get("a")
    cache.get("b")
    snap = cache.snapshot()
    assert snap["prefix"] == "qc.test"
    assert snap["size"] == 1
    assert snap["maxsize"] == 4
    assert snap["hits"] == 1
    assert snap["misses"] == 1


def test_metrics_mirroring():
    metrics = MetricsRegistry()
    cache = LRUCache(1, prefix="qc.test", metrics=metrics)
    cache.get("a")           # miss
    cache.put("a", 1)
    cache.get("a")           # hit
    cache.put("b", 2)        # evicts a
    assert metrics.counter_value("qc.test.misses") == 1
    assert metrics.counter_value("qc.test.hits") == 1
    assert metrics.counter_value("qc.test.evictions") == 1
