"""Query compilation and the three caches around it.

The hot-path levers, from the thesis's "response time bounded by the
hardware" goal:

* :mod:`repro.qc.compile` — DNF queries bound to one generated
  set-at-a-time scan function per query shape (bit-identical to
  interpreted matching).
* :mod:`repro.qc.lru` — the bounded, counter-instrumented LRU each of
  the three caches is.
* :mod:`repro.qc.runtime` — the three reference-path switches and the
  process-wide statement memo the four language engines share.
"""

from repro.qc.compile import CompiledQuery, compile_query
from repro.qc.lru import LRUCache, MISSING
from repro.qc import runtime

__all__ = [
    "CompiledQuery",
    "compile_query",
    "LRUCache",
    "MISSING",
    "runtime",
]
