"""The Kernel Controller (KC).

KC sits between the kernel mapping subsystem and the kernel database
system: every ABDL request the translation produces passes through KC for
execution (thesis I.B.1).  This implementation additionally keeps a
*request log* — the rendered text of every request executed on behalf of
the run-unit — which is how the test suite asserts that a CODASYL-DML
statement translated into exactly the ABDL the thesis's chapters show.
The log keeps the most recent :data:`REQUEST_LOG_CAP` texts: a served
connection lives for millions of statements, so each engine brackets a
statement with :meth:`KernelController.mark` /
:meth:`~KernelController.since` and takes its requests from there.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, ContextManager, Iterator, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.mbds.sessions import KernelSession

from repro.abdl.ast import (
    ALL_ATTRIBUTES,
    Request,
    RetrieveRequest,
    TargetItem,
)
from repro.abdl.executor import RequestResult
from repro.abdm.predicate import Query
from repro.abdm.record import Record
from repro.mbds.kds import KernelDatabaseSystem

#: Request texts the log retains once a statement's capture has closed.
REQUEST_LOG_CAP = 1024


class KernelController:
    """Executes ABDL requests on the shared KDS for one run-unit.

    *session* optionally binds the run-unit to a kernel session (see
    :meth:`repro.mbds.kds.KernelDatabaseSystem.create_session`): every
    request then executes under kernel concurrency control — two-phase
    locks and session-owned WAL transactions — so many run-units can
    share the kernel simultaneously.  Without one, requests run on the
    kernel's own session, under the same protocol.
    """

    def __init__(
        self,
        kds: KernelDatabaseSystem,
        session: Optional["KernelSession"] = None,
    ) -> None:
        self.kds = kds
        self.session = session
        #: Rendered text of the most recent requests executed (oldest
        #: first); trimmed to REQUEST_LOG_CAP whenever a capture closes.
        self.request_log: list[str] = []
        self._trimmed = 0  # entries dropped from the front of the log

    @property
    def obs(self):
        """The kernel's observability bundle (shared across run-units)."""
        return self.kds.obs

    def execute(self, request: Request) -> RequestResult:
        """Execute one request, logging its ABDL text."""
        with self.obs.tracer.span("kc.dispatch") as span:
            rendered = request.render()
            self.request_log.append(rendered)
            result = self.kds.execute(request, session=self.session).result
            if span:
                span.record(abdl=rendered)
        return result

    @contextmanager
    def transaction(self) -> Iterator[None]:
        """Group the requests executed inside into one kernel transaction.

        Commits on normal exit, aborts (journal and in-memory) on error —
        see :meth:`repro.mbds.kds.KernelDatabaseSystem.session_transaction`
        (locks held to commit, file-granular undo on abort).  A run-unit
        without a session of its own runs on the kernel's.
        """
        scope = (
            self.kds.transaction()
            if self.session is None
            else self.kds.session_transaction(self.session)
        )
        with scope:
            yield

    def exclusive(self, files: Sequence[str]) -> ContextManager["KernelSession"]:
        """Hold X locks on *files* around a check-then-write — see
        :meth:`repro.mbds.kds.KernelDatabaseSystem.exclusive`."""
        return self.kds.exclusive(files, self.session)

    def retrieve(
        self,
        query: Query,
        target: Sequence[TargetItem] = (ALL_ATTRIBUTES,),
        by: Optional[str] = None,
    ) -> list[Record]:
        """Convenience retrieval returning the projected records."""
        return self.execute(RetrieveRequest(query, target, by)).records

    def mark(self) -> int:
        """Open a statement-scoped capture: the count of requests so far."""
        return self._trimmed + len(self.request_log)

    def since(self, mark: int) -> list[str]:
        """Every request text logged after *mark*, then trim the log.

        Trimming happens only here, so a statement's own requests are
        all still present when it asks for them, however many it issued.
        """
        captured = self.request_log[max(mark - self._trimmed, 0):]
        excess = len(self.request_log) - REQUEST_LOG_CAP
        if excess > 0:
            del self.request_log[:excess]
            self._trimmed += excess
        return captured

    def last_requests(self, count: int) -> list[str]:
        """The most recent *count* logged request texts."""
        return self.request_log[-count:]
