"""Per-request span traces for the MLDS stack.

One traced request (or transaction) produces a tree of :class:`Span`
objects mirroring the layers it crossed::

    lil.session                      the language interface (per statement/run)
    └─ kms.translate                 DML → ABDL translation + dispatch
       └─ kc.dispatch                one per ABDL request the KMS emitted
          └─ kds.execute             the kernel database system
             ├─ wal.append           journaling, one record per request
             ├─ wal.commit           the atomic commit point
             │  └─ wal.fsync         only with sync=True WALs
             └─ backend[i].<phase>   one per executing backend, per phase

Spans carry real wall-clock time (``wall_ms``), the engine's *simulated*
time (``simulated_ms`` — bit-identical to the timing model's reports,
never derived from the wall clock), and free-form ``attrs`` such as
``records_examined`` or ``index_hits``.

Propagation is by thread-local context: :meth:`Tracer.span` opens a child
of the calling thread's current span, so layers never pass span handles
around explicitly.  Execution engines open per-backend spans with
:meth:`Tracer.open`, which pushes nothing on the context stack; the
backend's own spans nest under it (activated in-process, grafted from a
worker).

The disabled path is a separate :class:`NullTracer` whose ``span``/
``open`` return shared singletons; per call it costs one attribute load
and one no-op method call, which is what keeps default-configuration
overhead near zero (``benchmarks/bench_obs_overhead.py`` enforces this).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable, Iterator, Optional


class Span:
    """One timed, attributed node of a trace tree."""

    __slots__ = ("name", "parent", "children", "attrs", "simulated_ms",
                 "wall_ms", "_start")

    def __init__(self, name: str, parent: Optional["Span"] = None) -> None:
        self.name = name
        self.parent = parent
        self.children: list[Span] = []
        self.attrs: dict[str, Any] = {}
        #: Simulated (timing-model) milliseconds recorded on this span.
        self.simulated_ms = 0.0
        #: Real elapsed milliseconds; None while the span is still open.
        self.wall_ms: Optional[float] = None
        self._start = time.perf_counter()
        if parent is not None:
            # list.append is atomic under the GIL, so pool threads may
            # attach children to a shared parent without a lock.
            parent.children.append(self)

    def __bool__(self) -> bool:
        return True

    @property
    def closed(self) -> bool:
        return self.wall_ms is not None

    def record(self, simulated_ms: Optional[float] = None, **attrs: Any) -> None:
        """Attach simulated time and/or free-form attributes."""
        if simulated_ms is not None:
            self.simulated_ms = simulated_ms
        if attrs:
            self.attrs.update(attrs)

    def finish(self) -> None:
        """Close the span, fixing its wall-clock duration."""
        if self.wall_ms is None:
            self.wall_ms = (time.perf_counter() - self._start) * 1000.0

    # -- introspection ---------------------------------------------------------

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> list["Span"]:
        """Every span in this subtree whose name equals *name*."""
        return [span for span in self.walk() if span.name == name]

    def as_dict(self) -> dict[str, Any]:
        """JSON-friendly view of the subtree (the slow-log format)."""
        payload: dict[str, Any] = {"name": self.name, "wall_ms": self.wall_ms}
        if self.simulated_ms:
            payload["simulated_ms"] = self.simulated_ms
        if self.attrs:
            payload["attrs"] = dict(self.attrs)
        if self.children:
            payload["children"] = [child.as_dict() for child in self.children]
        return payload

    def render(self, indent: int = 0) -> str:
        """Human-readable tree (the CLI's ``.trace`` output)."""
        wall = "open" if self.wall_ms is None else f"{self.wall_ms:.3f}ms"
        line = "  " * indent + f"{self.name}  wall={wall}"
        if self.simulated_ms:
            line += f"  simulated={self.simulated_ms:.3f}ms"
        for key in sorted(self.attrs):
            line += f"  {key}={self.attrs[key]!r}"
        lines = [line]
        for child in self.children:
            lines.append(child.render(indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Span({self.name!r}, children={len(self.children)})"


class _SpanScope:
    """Context manager pushing/popping one span on the tracer's stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc_info: Any) -> None:
        self._tracer._pop(self._span)


class _ActivationScope:
    """Scope that makes an existing span current without owning it.

    Unlike :class:`_SpanScope`, exiting does *not* finish the span or
    publish a root trace — the caller opened the span (via
    :meth:`Tracer.open`) and keeps responsibility for finishing it.
    Leaked children opened inside the scope are finished on exit.
    """

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc_info: Any) -> None:
        stack = self._tracer._local.stack
        while stack and stack[-1] is not self._span:
            stack.pop().finish()
        if stack:
            stack.pop()


class Tracer:
    """Collects traces: one finished root span per traced request."""

    enabled = True

    def __init__(
        self,
        capacity: int = 64,
        sink: Optional[Callable[[Span], None]] = None,
    ) -> None:
        #: Finished root spans, oldest first (bounded).
        self.traces: deque[Span] = deque(maxlen=capacity)
        #: Called with every finished root span (the slow-log hook).
        self.sink = sink
        self._local = threading.local()

    # -- context ---------------------------------------------------------------

    @property
    def current(self) -> Optional[Span]:
        """The calling thread's innermost open span, if any."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def span(self, name: str, **attrs: Any) -> _SpanScope:
        """Open a child of the current span (or a new root) as a ``with`` scope."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        span = Span(name, stack[-1] if stack else None)
        if attrs:
            span.attrs.update(attrs)
        stack.append(span)
        return _SpanScope(self, span)

    def _pop(self, span: Span) -> None:
        span.finish()
        stack = self._local.stack
        while stack and stack[-1] is not span:  # tolerate leaked children
            stack.pop().finish()
        if stack:
            stack.pop()
        if span.parent is None:
            self.traces.append(span)
            if self.sink is not None:
                self.sink(span)

    def open(self, name: str, parent: Optional[Span] = None) -> Span:
        """Open a leaf span under an *explicit* parent (cross-thread safe).

        The span is not pushed on any thread's context stack; the caller
        must :meth:`Span.finish` it.  Used by execution engines for their
        per-backend spans.
        """
        return Span(name, parent if parent is not None else self.current)

    def activate(self, span: Span) -> _ActivationScope:
        """Make *span* the calling thread's current span for a scope.

        Engines pair this with :meth:`open`: the per-backend span is
        opened and then activated around the in-process backend call, so
        spans opened *inside* the backend (``qc.compile``) attach to it.
        Exiting the scope pops without finishing — the opener still
        finishes.
        """
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        stack.append(span)
        return _ActivationScope(self, span)

    # -- access ----------------------------------------------------------------

    @property
    def last_trace(self) -> Optional[Span]:
        return self.traces[-1] if self.traces else None

    def clear(self) -> None:
        self.traces.clear()


class NullSpan:
    """Shared do-nothing span; truth-tests False so callers can skip work."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return False

    def record(self, simulated_ms: Optional[float] = None, **attrs: Any) -> None:
        pass

    def finish(self) -> None:
        pass


NULL_SPAN = NullSpan()


class _NullScope:
    __slots__ = ()

    def __enter__(self) -> NullSpan:
        return NULL_SPAN

    def __exit__(self, *exc_info: Any) -> None:
        pass


_NULL_SCOPE = _NullScope()


class NullTracer:
    """The disabled tracer: every operation is a constant-time no-op."""

    enabled = False
    current = None
    last_trace = None
    traces: tuple = ()
    sink = None

    def span(self, name: str, **attrs: Any) -> _NullScope:
        return _NULL_SCOPE

    def open(self, name: str, parent: Optional[Span] = None) -> NullSpan:
        return NULL_SPAN

    def activate(self, span: Any) -> _NullScope:
        return _NULL_SCOPE

    def clear(self) -> None:
        pass


NULL_TRACER = NullTracer()
