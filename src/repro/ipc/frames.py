"""Frame header for the process-engine transport.

Every controller↔worker message travels as one frame: a fixed header
followed by a :mod:`marshal` body (see :mod:`repro.ipc.transport`, which
owns the body encoding).  ``Connection.send_bytes``/``recv_bytes``
already delimit messages, so the header is a cross-check rather than a
stream parser: a desynchronised, truncated or foreign frame fails with a
typed :class:`FrameError` instead of decoding garbage.
"""

from __future__ import annotations

import struct

from repro.errors import MLDSError


class FrameError(MLDSError):
    """A malformed frame or an unencodable value."""


#: magic byte, format byte, flags, payload length.
HEADER = struct.Struct("!BBBI")
MAGIC = 0xAB

#: The one body format on the wire (marshal).  A constant, but checked on
#: every receive so a corrupt or foreign frame fails typed.
FORMAT = 0x01

FLAG_BATCH = 0x01


def pack_frame(flags: int, payload: bytes) -> bytes:
    return HEADER.pack(MAGIC, FORMAT, flags, len(payload)) + payload


def unpack_frame(frame: bytes) -> tuple[int, bytes]:
    """Split one received frame into ``(flags, payload)``."""
    if len(frame) < HEADER.size:
        raise FrameError(f"short frame: {len(frame)} byte(s)")
    magic, body_format, flags, length = HEADER.unpack_from(frame, 0)
    if magic != MAGIC:
        raise FrameError(f"bad frame magic 0x{magic:02x}")
    if body_format != FORMAT:
        raise FrameError(f"unknown frame format byte 0x{body_format:02x}")
    payload = frame[HEADER.size :]
    if length != len(payload):
        raise FrameError(
            f"frame length mismatch: header says {length}, got {len(payload)}"
        )
    return flags, payload


__all__ = [
    "FrameError",
    "pack_frame",
    "unpack_frame",
    "HEADER",
    "MAGIC",
    "FORMAT",
    "FLAG_BATCH",
]
