"""User sessions: one language interface bound to one database.

A session corresponds to the thesis's per-user data (Figure 4.18's
user_info and the dml_info / dap_info unions): the user id, the database
being processed, the run-unit state, and the kernel-controller handle
whose request log records the ABDL every statement translated into.

Sessions are also where request traces begin: each ``execute`` (one
statement) or ``run`` (one transaction) opens the root ``lil.session``
span — tagged with the language, database, and user — under which the
KMS, KC, KDS, backend, and WAL spans of that work nest (see
:mod:`repro.obs`).
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.hierarchical.model import HierarchicalSchema
from repro.kms.dli_engine import DliEngine, DliResult
from repro.functional.model import FunctionalSchema
from repro.kc.controller import KernelController
from repro.kms.adapter import TargetAdapter
from repro.kms.daplex_engine import DaplexEngine, DaplexResult
from repro.kms.engine import DMLEngine
from repro.kms.sql_engine import SqlEngine, SqlResult
from repro.kms.results import StatementResult
from repro.network.model import NetworkSchema


class _LanguageSession:
    """What the four run-units share: a user, a database, one KMS engine.

    Each subclass names its language (the root span's tag) and defines
    ``run`` in its own body: ``benchmarks/fullstack/trace.py`` rebinds
    ``X.run`` through ``X.__dict__``, so an inherited ``run`` would leave
    it nothing to wrap.
    """

    language: str

    def __init__(self, user: str, database: str, engine: Any) -> None:
        self.user = user
        self.database = database
        self.engine = engine

    def execute(self, statement: Any) -> Any:
        """Execute one statement (text or parsed)."""
        with self._root_span():
            return self.engine.execute(statement)

    def run(self, text: str) -> list:
        """Execute a multi-statement transaction (one trace for all of it)."""
        with self._root_span():
            return self.engine.run(text)

    def _root_span(self):
        return self.kc.obs.tracer.span(
            "lil.session",
            language=self.language,
            database=self.database,
            user=self.user,
        )

    def run_file(self, path) -> list:
        """Execute a transaction file (the thesis's dml_info file path)."""
        return self.run(Path(path).read_text())

    @property
    def kc(self) -> KernelController:
        return self.engine.kc

    @property
    def request_log(self) -> list[str]:
        """ABDL texts executed on this session's behalf, oldest first."""
        return self.kc.request_log

    def __repr__(self) -> str:
        return f"{type(self).__name__}(user={self.user!r}, database={self.database!r})"


class CodasylSession(_LanguageSession):
    """A CODASYL-DML run-unit over a network or functional database.

    The session is the user-facing object: feed it DML text (or parsed
    statements) and read back :class:`StatementResult` objects.  Whether
    the underlying database is native network or a transformed functional
    one is decided by the LIL when the session is opened; the DML surface
    is identical — that is the point of the thesis.
    """

    language = "codasyl"

    def __init__(
        self,
        user: str,
        database: str,
        adapter: TargetAdapter,
        source_model: str,
    ) -> None:
        super().__init__(user, database, DMLEngine(adapter))
        #: 'network' or 'functional' — the origin of the database.
        self.source_model = source_model

    def run(self, text: str) -> list[StatementResult]:
        return super().run(text)  # in this class body for trace.py (see base)

    @property
    def schema(self) -> NetworkSchema:
        """The network schema the session navigates (transformed when the
        database is functional)."""
        return self.engine.adapter.schema

    @property
    def cit(self):
        """The session's currency indicator table."""
        return self.engine.cit

    @property
    def uwa(self):
        """The session's user work area."""
        return self.engine.uwa

    @property
    def kc(self) -> KernelController:
        return self.engine.adapter.kc

    def __repr__(self) -> str:
        return (
            f"CodasylSession(user={self.user!r}, database={self.database!r}, "
            f"source={self.source_model})"
        )


class DaplexSession(_LanguageSession):
    """A DAPLEX run-unit over a functional database.

    The native functional interface of MLDS (the dap_info side of the
    thesis's Figure 4.19 union): DAPLEX DML statements execute against
    the same AB(functional) database the CODASYL-DML interface reaches
    through the schema transformer, so the two languages observe each
    other's updates.
    """

    language = "daplex"

    def __init__(
        self,
        user: str,
        database: str,
        schema: FunctionalSchema,
        kc: KernelController,
    ) -> None:
        super().__init__(user, database, DaplexEngine(schema, kc))

    def run(self, text: str) -> list[DaplexResult]:
        return super().run(text)  # in this class body for trace.py (see base)

    @property
    def schema(self) -> FunctionalSchema:
        return self.engine.schema


class SqlSession(_LanguageSession):
    """A SQL run-unit over a relational database.

    The relational language interface of MLDS: SQL statements translate
    to ABDL against the AB(relational) database, sharing the kernel with
    every other interface.
    """

    language = "sql"
    engine: SqlEngine

    def run(self, text: str) -> list[SqlResult]:
        return super().run(text)  # in this class body for trace.py (see base)

    @property
    def schema(self):
        return self.engine.schema


class DliSession(_LanguageSession):
    """A DL/I run-unit over a hierarchical database.

    The hierarchical language interface of MLDS: DL/I calls position a
    cursor over the segment trees stored as AB(hierarchical) files in
    the shared kernel.
    """

    language = "dli"
    engine: DliEngine

    def run(self, text: str) -> list[DliResult]:
        return super().run(text)  # in this class body for trace.py (see base)

    @property
    def schema(self) -> HierarchicalSchema:
        return self.engine.schema

    @property
    def io_area(self) -> dict:
        """The I/O area (fields of the current segment / pending FLDs)."""
        return self.engine.io_area
