"""Cross-process messaging for the MBDS process-parallel engine.

The :class:`~repro.mbds.engine.ProcessPoolEngine` runs each backend's
:class:`~repro.abdm.store.ABStore` in a persistent worker process and
talks to it over one duplex pipe.  Everything that crosses the process
boundary travels as one framed marshal body of plain values (dicts,
lists, strings, numbers, booleans, None) — the same value discipline
the WAL already imposes on journaled mutations — so backend state is
fully message-passing-clean: no live object, lock, or cache ever crosses.

* :mod:`repro.ipc.codec` — objects ↔ plain values: requests (extending
  the WAL's mutating-request codec to retrievals), results, scan
  statistics, index digests, and trace spans.
* :mod:`repro.ipc.frames` / :mod:`repro.ipc.transport` — the frame
  header and the marshal-bodied pipe transport.
* :mod:`repro.ipc.worker` — the worker process main loop.
* :mod:`repro.ipc.proxy` — :class:`~repro.ipc.proxy.ProcessBackend`, the
  controller-side stand-in that speaks the protocol while duck-typing
  :class:`~repro.mbds.backend.Backend`.
"""

from repro.ipc.codec import decode_any_request, encode_any_request
from repro.ipc.proxy import ProcessBackend

__all__ = ["ProcessBackend", "decode_any_request", "encode_any_request"]
