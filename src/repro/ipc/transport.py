"""Framed pipe transport between the controller and one worker.

One :class:`PipeTransport` wraps one end of a duplex
``multiprocessing.Pipe``.  Every message travels as a single frame:

========  =======================================================
field     meaning
========  =======================================================
magic     ``0xAB`` — catches stream desync immediately
format    ``1`` — the one body format; anything else is refused
flags     bit 0: the payload is a *batch* (a list of messages)
length    payload byte length (u32)
payload   one marshalled message, or a marshalled list of messages
========  =======================================================

The header lives in :mod:`repro.ipc.frames`; this module owns the body.
Bodies are :mod:`marshal` version 4 — CPython's C-speed self-describing
value encoding.  Floats round-trip bit-exactly (NaN payloads, ``-0.0``),
ints are arbitrary precision, and repeated interned strings (dict keys,
command names, span labels) are written once per frame and referenced by
id thereafter — so a coalesced batch frame interns its repetitive
structure for free.  marshal's format is only stable within one
interpreter build, which is exactly what a worker pipe is: the engine
spawns its own workers, so both ends always run the same build.

Batch frames are the request-coalescing carrier: one frame holds a list
of command dicts bound for the worker, and the worker answers with one
frame holding the reply list in command order.
"""

from __future__ import annotations

import marshal
from typing import Any

from repro.ipc.frames import FLAG_BATCH, FrameError, pack_frame, unpack_frame

#: marshal format with the string reference table (intra-frame interning).
_MARSHAL_VERSION = 4


class PipeTransport:
    """One end of a worker connection: framing + marshal bodies."""

    def __init__(self, connection: Any) -> None:
        self._connection = connection

    # -- encoding ----------------------------------------------------------

    def _encode(self, value: Any) -> bytes:
        try:
            return marshal.dumps(value, _MARSHAL_VERSION)
        except ValueError as exc:
            raise FrameError(f"unencodable payload: {exc}") from exc

    def _decode(self, payload: bytes) -> Any:
        try:
            return marshal.loads(payload)
        except (ValueError, EOFError, TypeError) as exc:
            raise FrameError(f"undecodable payload: {exc}") from exc

    # -- sending -----------------------------------------------------------

    def send(self, message: Any) -> None:
        self._connection.send_bytes(pack_frame(0, self._encode(message)))

    def send_batch(self, messages: list) -> None:
        self._connection.send_bytes(
            pack_frame(FLAG_BATCH, self._encode(messages))
        )

    # -- receiving ---------------------------------------------------------

    def poll(self, timeout: float = 0.0) -> bool:
        return bool(self._connection.poll(timeout))

    def recv_any(self) -> tuple[bool, Any]:
        """Receive one frame: ``(is_batch, message_or_list)``."""
        flags, payload = unpack_frame(self._connection.recv_bytes())
        message = self._decode(payload)
        is_batch = bool(flags & FLAG_BATCH)
        if is_batch and not isinstance(message, list):
            raise FrameError("batch frame did not decode to a list")
        return is_batch, message

    def recv(self) -> Any:
        """Receive one non-batch message."""
        is_batch, message = self.recv_any()
        if is_batch:
            raise FrameError("unexpected batch frame (single message expected)")
        return message

    def recv_batch(self) -> list:
        """Receive one batch frame's message list."""
        is_batch, messages = self.recv_any()
        if not is_batch:
            raise FrameError("expected a batch frame, got a single message")
        return messages

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        self._connection.close()


__all__ = ["PipeTransport"]
