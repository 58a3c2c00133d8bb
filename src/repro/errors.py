"""Exception hierarchy for the MLDS reproduction.

Every error raised by the library derives from :class:`MLDSError`, so
applications can catch one type at the top of a transaction loop.  The
subclasses mirror the layers of the system: lexing/parsing errors from the
three language front-ends, semantic errors from schema processing, and
run-time errors from statement execution (currency violations, constraint
violations, aborted transactions).
"""

from __future__ import annotations


class MLDSError(Exception):
    """Base class for every error raised by the MLDS library."""


class LexError(MLDSError):
    """A language front-end met a character sequence it cannot tokenize."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        self.line = line
        self.column = column
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class ParseError(MLDSError):
    """A statement or schema is syntactically malformed."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        self.line = line
        self.column = column
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class SchemaError(MLDSError):
    """A schema is semantically inconsistent (unknown types, duplicates...)."""


class TransformError(MLDSError):
    """A data-model transformation cannot represent a source construct."""


class TranslationError(MLDSError):
    """A data-language statement cannot be translated to ABDL."""


class ExecutionError(MLDSError):
    """The kernel rejected or failed to execute a request."""


class RecordSealed(ExecutionError):
    """Code tried to change a record a store has taken.

    Stored records are shared by every reader — the live file, version
    chains, the result cache and each caller's result — so they are
    read-only; a changed version is built from ``Record.copy()``.
    """


class CurrencyError(ExecutionError):
    """A DML statement needs a currency indicator that is null."""


class ConstraintViolation(ExecutionError):
    """A statement would violate a schema constraint.

    Raised for DUPLICATES-NOT-ALLOWED violations, overlap-constraint
    violations, and the CODASYL/DAPLEX deletion constraints checked by
    ERASE.
    """


class TransactionAborted(ExecutionError):
    """The kernel aborted the transaction instead of running the step asked.

    Raised by ``commit`` and by any further statement once a mutation of
    the transaction failed after it was journaled: a commit record must
    never follow an op that did not apply.
    """


class WalError(MLDSError):
    """The write-ahead log is misused, corrupt, or fails verification.

    Raised for protocol misuse (nested transactions, checkpointing with a
    transaction open), for log corruption detected during recovery
    (non-monotonic sequence numbers, undecodable non-tail records), and
    for record-count checksum mismatches after replay.  Note that an
    *injected crash* is deliberately not a :class:`WalError` — see
    :class:`repro.wal.faults.InjectedCrash`.
    """


class UnsupportedStatement(TranslationError):
    """The statement is parsed but deliberately not translated.

    The thesis rejects ERASE ALL because the CODASYL and DAPLEX deletion
    constraints clash (Section VI.H.2); the statement parses but the
    translator refuses it with this error.
    """


class ConcurrencyError(MLDSError):
    """Concurrent sessions conflicted in a way the kernel cannot resolve."""


class LockTimeout(ConcurrencyError):
    """A session waited longer than the deadline for a kernel lock.

    Two-phase locking holds every lock to end of transaction, so a cycle
    of sessions waiting on each other cannot resolve itself; the kernel
    breaks the cycle by timing out the waiter.  The caller should abort
    its transaction (releasing its own locks) and retry.
    """


class DeadlockDetected(LockTimeout):
    """The waits-for graph found a cycle and this session was the victim.

    Unlike a plain :class:`LockTimeout` (which fires only after the full
    deadline), deadlock detection runs a cycle check the moment a waiter
    blocks, picks the youngest transaction in the cycle, and aborts it
    immediately.  Subclassing :class:`LockTimeout` keeps every existing
    abort-and-retry loop working unchanged.
    """


class SnapshotTooOld(ConcurrencyError):
    """A snapshot read outlived the version chain that could serve it.

    Version chains are bounded: entries below the oldest active
    snapshot's watermark are garbage-collected, and a hard retain cap
    trims further under write churn.  A reader whose snapshot sequence
    predates the trimmed horizon cannot be reconstructed; the kernel
    retries at a fresher snapshot and falls back to a locking read.
    """


class WorkerCrashed(ExecutionError):
    """A backend's worker process died mid-request.

    Carries the backend id so operators can tell *which* shard of the
    farm went down.  Raised instead of hanging on the reply queue when a
    :class:`~repro.ipc.proxy.ProcessBackend`'s worker exits; the
    process engine shuts the rest of the farm down cleanly before
    re-raising.
    """

    def __init__(self, backend_id: int, exitcode: "int | None" = None) -> None:
        self.backend_id = backend_id
        self.exitcode = exitcode
        detail = f" (exit code {exitcode})" if exitcode is not None else ""
        super().__init__(f"backend {backend_id}'s worker process died{detail}")


class ServerError(MLDSError):
    """Base class for MLDS network-service errors (see repro.server)."""


class AuthenticationError(ServerError):
    """The connection presented a missing, unknown, or revoked token."""


class QuotaExceeded(ServerError):
    """A credential exhausted its session or lifetime-request quota."""


class RateLimitExceeded(ServerError):
    """A session's token bucket is empty; retry after it refills."""


class ServerOverloaded(ServerError):
    """Admission control shed the request: in-flight and queue are full."""


class ProtocolError(ServerError):
    """A line on the wire was not a well-formed MLDS protocol message."""
