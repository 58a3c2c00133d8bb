"""Multi-granularity kernel locking for concurrent MLDS sessions.

Until this module the kernel assumed one caller at a time.  The
:class:`LockManager` gives KDS real concurrency control with the classic
multiple-granularity scheme (Gray et al.): a single **global** resource
standing for the whole store, plus one resource per AB file.

Lock modes
----------

========  ==========================================================
``IS``    intention-shared — the session will read specific files
``IX``    intention-exclusive — the session will write specific files
``S``     shared — read the whole resource (unpinned RETRIEVE)
``X``     exclusive — write the whole resource (unpinned mutation)
========  ==========================================================

A pinned read takes ``IS`` on the global resource and ``S`` on each
file; a pinned mutation takes ``IX`` globally and ``X`` per file.  An
*unpinned* request (a query with a clause that does not pin ``FILE``)
can touch anything, so it locks the global resource itself in ``S`` or
``X``.  Concurrent RETRIEVEs over any files are therefore compatible,
mutations serialize per file, and an unpinned mutation drains the whole
kernel — exactly the paper's one-kernel/many-interfaces contract made
safe.

Discipline
----------

* **Deterministic ordering** — :meth:`LockManager.acquire` sorts the
  requested items (global resource first, then file names) so a single
  request batch can never deadlock against another batch.
* **Two-phase** — within a kernel transaction locks are only released
  by :meth:`LockManager.release_all` at commit/abort, which makes every
  concurrent history conflict-equivalent to the commit order (2PL).
* **Fair queueing** — a fresh request must be compatible with every
  *earlier queued waiter* as well as with the current holders, so a
  continuous stream of S readers cannot starve a parked X writer (the
  classic reader-preference pathology).  Upgrades jump the queue: the
  upgrader already holds the resource, so no queued stranger could be
  granted before it releases anyway.
* **Waits-for deadlock detection** — every blocked waiter records the
  owners blocking it in a waits-for graph and runs a cycle check on the
  spot.  When a cycle is found the *youngest* transaction in it (the
  one that started locking most recently, hence has the least work to
  redo) is chosen as the victim: it wakes immediately and raises
  :class:`~repro.errors.DeadlockDetected` (a
  :class:`~repro.errors.LockTimeout` subclass, so every existing
  abort-and-retry loop handles it unchanged) instead of stalling to
  the deadline.  The timeout remains as a backstop for stalls that are
  not cycles (a wedged owner).  The **symmetric upgrade** (two sessions
  each hold ``S`` on a file and both want ``X`` — the routine
  read-then-update shape) is still special-cased first: it is
  detectable before either party blocks, so the second upgrader fails
  fast without ever parking.
* **Wait attribution** — per-mode wait-time histograms
  (``lock.wait_ms{S}``, ``lock.wait_ms{X}``, ...) record how long
  grants stalled, so benchmarks can attribute mixed-workload latency
  to reader/writer interference instead of guessing from counters.
"""

from __future__ import annotations

import enum
import threading
import time
from typing import Dict, Iterable, List, Optional, Tuple

from repro.abdl.ast import (
    BulkInsertRequest,
    DeleteRequest,
    InsertRequest,
    Request,
    RetrieveCommonRequest,
    RetrieveRequest,
    UpdateRequest,
)
from repro.abdm.predicate import Query
from repro.errors import DeadlockDetected, LockTimeout
from repro.obs.metrics import NULL_METRICS, Histogram

#: Reserved resource name for the whole store.  AB file names come from
#: schema identifiers and can never contain a NUL byte.
GLOBAL_RESOURCE = "\x00global"


class LockMode(enum.Enum):
    IS = "IS"
    IX = "IX"
    S = "S"
    X = "X"

    def __repr__(self) -> str:  # noqa: D105 - compact in error messages
        return self.value


_M = LockMode

#: Symmetric compatibility matrix (Gray's multi-granularity table,
#: without SIX which we conservatively escalate to X).
_COMPAT = {
    frozenset({_M.IS}): True,
    frozenset({_M.IS, _M.IX}): True,
    frozenset({_M.IS, _M.S}): True,
    frozenset({_M.IS, _M.X}): False,
    frozenset({_M.IX}): True,
    frozenset({_M.IX, _M.S}): False,
    frozenset({_M.IX, _M.X}): False,
    frozenset({_M.S}): True,
    frozenset({_M.S, _M.X}): False,
    frozenset({_M.X}): False,
}

#: Least upper bound when an owner strengthens a lock it already holds.
#: S ∨ IX would be SIX; we escalate straight to X instead.
_SUP = {
    (_M.IS, _M.IS): _M.IS,
    (_M.IS, _M.IX): _M.IX,
    (_M.IS, _M.S): _M.S,
    (_M.IS, _M.X): _M.X,
    (_M.IX, _M.IX): _M.IX,
    (_M.IX, _M.S): _M.X,
    (_M.IX, _M.X): _M.X,
    (_M.S, _M.S): _M.S,
    (_M.S, _M.X): _M.X,
    (_M.X, _M.X): _M.X,
}


def compatible(a: LockMode, b: LockMode) -> bool:
    """Can *a* and *b* be held on the same resource by different owners?"""
    return _COMPAT[frozenset({a, b})]


def supremum(held: LockMode, wanted: LockMode) -> LockMode:
    """The mode an owner holding *held* must upgrade to for *wanted*."""
    return _SUP.get((held, wanted)) or _SUP[(wanted, held)]


LockItem = Tuple[str, LockMode]


def affected_files(query: Query) -> Optional[frozenset[str]]:
    """The files a request through *query* can touch (None = unknown).

    A query whose every clause pins ``FILE`` can only touch the pinned
    files; any unpinned clause makes the whole store suspect.
    """
    names: set[str] = set()
    for clause in query:
        pinned = clause.file_names()
        if not pinned:
            return None
        names.update(pinned)
    return frozenset(names)


def exclusive_items(files: Iterable[str]) -> List[LockItem]:
    """The lock set of a mutation pinned to *files*."""
    return [(GLOBAL_RESOURCE, _M.IX)] + [(f, _M.X) for f in sorted(set(files))]


def lock_items(request: Request) -> List[LockItem]:
    """The lock set a kernel request must hold before executing.

    Pinned requests intend on the global resource and lock their files;
    unpinned requests lock the global resource itself.
    """
    if isinstance(request, InsertRequest):
        file_name = request.record.file_name
        if file_name is None:
            return [(GLOBAL_RESOURCE, _M.X)]
        return exclusive_items([file_name])
    if isinstance(request, BulkInsertRequest):
        files = {record.file_name for record in request.records}
        if None in files:
            return [(GLOBAL_RESOURCE, _M.X)]
        return exclusive_items(files)  # type: ignore[arg-type]
    if isinstance(request, (DeleteRequest, UpdateRequest)):
        files = affected_files(request.query)
        if files is None:
            return [(GLOBAL_RESOURCE, _M.X)]
        return exclusive_items(files)
    if isinstance(request, RetrieveCommonRequest):
        left = affected_files(request.left_query)
        right = affected_files(request.right_query)
        if left is None or right is None:
            return [(GLOBAL_RESOURCE, _M.S)]
        files = sorted(left | right)
        return [(GLOBAL_RESOURCE, _M.IS)] + [(f, _M.S) for f in files]
    if isinstance(request, RetrieveRequest):
        files = affected_files(request.query)
        if files is None:
            return [(GLOBAL_RESOURCE, _M.S)]
        return [(GLOBAL_RESOURCE, _M.IS)] + [(f, _M.S) for f in sorted(files)]
    # Unknown request type: be safe and drain the kernel.
    return [(GLOBAL_RESOURCE, _M.X)]


def _order_key(item: LockItem) -> Tuple[int, str]:
    name = item[0]
    return (0 if name == GLOBAL_RESOURCE else 1, name)


class LockManager:
    """Blocking reader/writer locks over the global + per-file resources.

    All state lives behind one condition variable; waiters are woken on
    every release and re-check compatibility.  Owners are opaque strings
    (kernel session names).
    """

    def __init__(self, timeout: float = 10.0) -> None:
        self.timeout = timeout
        self._cv = threading.Condition()
        #: resource -> owner -> mode currently granted
        self._held: Dict[str, Dict[str, LockMode]] = {}
        #: resource -> owners blocked waiting to *upgrade* a mode they
        #: already hold there (for symmetric-upgrade deadlock detection)
        self._upgrade_waiters: Dict[str, set] = {}
        #: blocked owner -> (resource, wanted mode, queue ticket) while
        #: parked in _acquire_one.  The waits-for edges are *derived* from
        #: this plus the live holder/queue state at detection time — a
        #: stored edge set would go stale the moment a blocker released,
        #: and a stale edge closes phantom cycles.
        self._waiting: Dict[str, Tuple[str, LockMode, Optional[int]]] = {}
        #: owners picked as deadlock victims; they abort on next wake.
        self._victims: set = set()
        #: owner -> monotone stamp at its first acquisition since the
        #: last release_all.  Victim selection aborts the *youngest*
        #: (largest stamp) member of a cycle — least work to redo, and a
        #: retrying aborter re-stamps younger so it cannot starve elders.
        self._birth: Dict[str, int] = {}
        self._birth_counter = 0
        #: resource -> [(ticket, owner, wanted mode)] in arrival order.
        #: A *fresh* request must be compatible with every earlier queued
        #: waiter as well as with the holders, so a stream of S readers
        #: cannot starve a parked X writer indefinitely.  Upgrades jump
        #: the queue: the upgrader already holds the resource, so queued
        #: strangers cannot be granted before it releases anyway.
        self._queue: Dict[str, List[Tuple[int, str, LockMode]]] = {}
        self._ticket = 0
        #: wanted-mode value -> wait-time histogram (milliseconds)
        self._wait_hist: Dict[str, Histogram] = {}
        self._metrics = NULL_METRICS
        self.acquired_total = 0
        self.wait_total = 0
        self.timeout_total = 0
        self.upgrade_deadlock_total = 0
        self.deadlock_total = 0

    def bind_metrics(self, metrics) -> None:
        """Mirror wait histograms / deadlock counts into a registry.

        The manager always keeps its own per-mode histograms (so
        :meth:`wait_histograms` works without observability); binding a
        :class:`~repro.obs.metrics.MetricsRegistry` additionally exports
        them as ``lock.wait_ms{MODE}`` plus a ``lock.deadlocks`` counter.
        """
        self._metrics = metrics

    # -- acquisition ---------------------------------------------------------

    def acquire(
        self,
        owner: str,
        items: Iterable[LockItem],
        timeout: Optional[float] = None,
    ) -> None:
        """Grant every (resource, mode) in *items* to *owner*, blocking.

        Items are acquired in deterministic sorted order (global resource
        first) so concurrent batches cannot deadlock each other.  Raises
        :class:`LockTimeout` if any single grant outwaits the deadline;
        locks already granted stay held (the caller aborts via
        :meth:`release_all`).
        """
        limit = self.timeout if timeout is None else timeout
        deadline = time.monotonic() + limit
        for resource, mode in sorted(items, key=_order_key):
            self._acquire_one(owner, resource, mode, deadline)

    def _acquire_one(
        self, owner: str, resource: str, mode: LockMode, deadline: float
    ) -> None:
        with self._cv:
            if owner not in self._birth:
                self._birth_counter += 1
                self._birth[owner] = self._birth_counter
            waited = False
            wait_start = 0.0
            upgrading = False
            ticket: Optional[int] = None
            try:
                while True:
                    holders = self._held.get(resource, {})
                    target = mode
                    held = holders.get(owner)
                    if held is not None:
                        target = supremum(held, mode)
                        if target is held:
                            return  # already strong enough
                    blockers = sorted(
                        other
                        for other, other_mode in holders.items()
                        if other != owner and not compatible(target, other_mode)
                    )
                    ahead: List[str] = []
                    if held is None:
                        # Fair queueing: yield to incompatible waiters that
                        # parked before us (all of them while unqueued).
                        for other_ticket, other, other_mode in self._queue.get(
                            resource, ()
                        ):
                            if ticket is not None and other_ticket >= ticket:
                                break
                            if other != owner and not compatible(target, other_mode):
                                ahead.append(other)
                    if not blockers and not ahead:
                        self._held.setdefault(resource, {})[owner] = target
                        self.acquired_total += 1
                        self._victims.discard(owner)
                        if waited:
                            self.wait_total += 1
                            self._observe_wait(target, wait_start)
                        return
                    blockers = sorted(set(blockers) | set(ahead))
                    if owner in self._victims:
                        self._raise_deadlock(
                            owner, target, resource, blockers, waited, wait_start
                        )
                    if held is not None:
                        # Upgrade path: if any blocker is itself parked
                        # waiting to upgrade this resource, neither of us
                        # can release under 2PL until the other does —
                        # a guaranteed deadlock.  Fail fast (the caller
                        # aborts, releasing our locks and unblocking the
                        # rival) instead of both stalling to the deadline.
                        rivals = [
                            b
                            for b in blockers
                            if b in self._upgrade_waiters.get(resource, ())
                        ]
                        if rivals:
                            self.timeout_total += 1
                            self.upgrade_deadlock_total += 1
                            raise LockTimeout(
                                f"session {owner!r} would deadlock upgrading "
                                f"{held.value} to {target.value} on "
                                f"{self._describe(resource)}: "
                                f"{', '.join(map(repr, rivals))} already "
                                "waiting to upgrade it; abort and retry"
                            )
                        if not upgrading:
                            upgrading = True
                            self._upgrade_waiters.setdefault(resource, set()).add(
                                owner
                            )
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        self.timeout_total += 1
                        if waited:
                            self._observe_wait(target, wait_start)
                        raise LockTimeout(
                            f"session {owner!r} timed out waiting for "
                            f"{target.value} on {self._describe(resource)} "
                            f"(held by {', '.join(blockers)})"
                        )
                    if not waited:
                        waited = True
                        wait_start = time.monotonic()
                    if ticket is None and held is None:
                        self._ticket += 1
                        ticket = self._ticket
                        self._queue.setdefault(resource, []).append(
                            (ticket, owner, target)
                        )
                    self._waiting[owner] = (resource, target, ticket)
                    victim = self._deadlock_victim(owner)
                    if victim == owner:
                        self._raise_deadlock(
                            owner, target, resource, blockers, waited, wait_start
                        )
                    elif victim is not None:
                        self._victims.add(victim)
                        self._cv.notify_all()
                    self._cv.wait(remaining)
            finally:
                self._waiting.pop(owner, None)
                if ticket is not None:
                    queue = self._queue.get(resource)
                    if queue is not None:
                        entry = ticket
                        queue[:] = [q for q in queue if q[0] != entry]
                        if not queue:
                            del self._queue[resource]
                    # Leaving the queue (granted or aborted) may unbar a
                    # younger waiter that was only yielding to us.
                    self._cv.notify_all()
                if upgrading:
                    waiters = self._upgrade_waiters.get(resource)
                    if waiters is not None:
                        waiters.discard(owner)
                        if not waiters:
                            del self._upgrade_waiters[resource]

    def _edges(self, node: str) -> set:
        """Who *node* is waiting on right now (derived, never stale).

        Incompatible current holders of the resource it is parked on,
        plus — for a fresh request — incompatible waiters queued ahead
        of it.  Owners that are not waiting have no edges.
        """
        info = self._waiting.get(node)
        if info is None:
            return set()
        resource, target, ticket = info
        holders = self._held.get(resource, {})
        edges = {
            other
            for other, other_mode in holders.items()
            if other != node and not compatible(target, other_mode)
        }
        if node not in holders:  # fresh request: also yields to the queue
            for other_ticket, other, other_mode in self._queue.get(resource, ()):
                if ticket is not None and other_ticket >= ticket:
                    break
                if other != node and not compatible(target, other_mode):
                    edges.add(other)
        return edges

    def _deadlock_victim(self, start: str) -> Optional[str]:
        """The victim of a waits-for cycle through *start*, if any.

        Called under ``_cv`` right after *start* records what it waits
        on.  Follows waits-for edges depth-first looking for a path back
        to *start*; owners that are not currently waiting have no edges
        and terminate the search.  Returns the youngest cycle member
        (the largest birth stamp) or None when the graph is acyclic.
        """
        seen: set = set()

        def probe(node: str, path: List[str]) -> Optional[List[str]]:
            for nxt in sorted(self._edges(node)):
                if nxt == start:
                    return path
                if nxt in seen:
                    continue
                seen.add(nxt)
                cycle = probe(nxt, path + [nxt])
                if cycle is not None:
                    return cycle
            return None

        cycle = probe(start, [start])
        if cycle is None:
            return None
        return max(cycle, key=lambda node: self._birth.get(node, 0))

    def _raise_deadlock(
        self,
        owner: str,
        target: LockMode,
        resource: str,
        blockers: List[str],
        waited: bool,
        wait_start: float,
    ) -> None:
        """Abort *owner* as the chosen deadlock victim (under ``_cv``)."""
        self._victims.discard(owner)
        self.deadlock_total += 1
        self._metrics.inc("lock.deadlocks")
        if waited:
            self._observe_wait(target, wait_start)
        raise DeadlockDetected(
            f"session {owner!r} chosen as deadlock victim waiting for "
            f"{target.value} on {self._describe(resource)} "
            f"(held by {', '.join(blockers)}); abort and retry"
        )

    def _observe_wait(self, mode: LockMode, wait_start: float) -> None:
        """Record a finished wait into the per-mode histograms."""
        elapsed_ms = (time.monotonic() - wait_start) * 1000.0
        name = f"lock.wait_ms{{{mode.value}}}"
        hist = self._wait_hist.get(mode.value)
        if hist is None:
            hist = self._wait_hist[mode.value] = Histogram(name)
        hist.observe(elapsed_ms)
        self._metrics.observe(name, elapsed_ms)

    # -- release -------------------------------------------------------------

    def release_all(self, owner: str) -> None:
        """Drop every lock *owner* holds (end of transaction/request)."""
        with self._cv:
            released = False
            for resource in list(self._held):
                holders = self._held[resource]
                if holders.pop(owner, None) is None:
                    continue
                released = True
                if not holders:
                    del self._held[resource]
            self._birth.pop(owner, None)
            self._waiting.pop(owner, None)
            self._victims.discard(owner)
            if released:
                self._cv.notify_all()

    # -- introspection -------------------------------------------------------

    def holders(self, resource: str) -> Dict[str, LockMode]:
        """Snapshot of who holds *resource* (for tests and diagnostics)."""
        with self._cv:
            return dict(self._held.get(resource, {}))

    def held_by(self, owner: str) -> Dict[str, LockMode]:
        """Snapshot of every lock *owner* currently holds."""
        with self._cv:
            return {
                resource: holders[owner]
                for resource, holders in self._held.items()
                if owner in holders
            }

    def stats(self) -> Dict[str, int]:
        with self._cv:
            return {
                "acquired": self.acquired_total,
                "waited": self.wait_total,
                "timeouts": self.timeout_total,
                "upgrade_deadlocks": self.upgrade_deadlock_total,
                "deadlocks": self.deadlock_total,
                # A gauge, not a counter: resources held right now.
                "held": len(self._held),
            }

    def wait_histograms(self) -> Dict[str, dict]:
        """Per-mode wait-time distributions (``lock.wait_ms{mode}``).

        JSON-ready: mode value -> the histogram's :meth:`as_dict`
        (count, sum, mean, p50/p99, buckets).  Modes that never waited
        are absent — the mixed-workload benchmark asserts exactly that
        for ``S`` under snapshot reads.
        """
        with self._cv:
            return {
                mode: hist.as_dict()
                for mode, hist in sorted(self._wait_hist.items())
            }

    @staticmethod
    def _describe(resource: str) -> str:
        return "the whole store" if resource == GLOBAL_RESOURCE else f"file {resource!r}"

    def __repr__(self) -> str:
        with self._cv:
            return f"LockManager(held={len(self._held)} resources)"
