"""MLDS as a network service.

The thesis describes MLDS as a shared facility: many users, each
speaking the data language they already know, against one kernel
database system.  This package provides that deployment shape — a
thread-per-connection line-protocol server
(:mod:`repro.server.service`) hosting concurrent LIL sessions in all
four languages over the lock-protected kernel, with per-connection
authentication (:mod:`repro.server.auth`), token-bucket rate limiting
(:mod:`repro.server.ratelimit`), and admission control
(:mod:`repro.server.admission`).

Naming note: :mod:`repro.network` is the CODASYL *network data model*
(schemas, sets, DML) — nothing to do with sockets.  Everything TCP
lives here, under :mod:`repro.server`.  See DESIGN.md.
"""

from repro.server.admission import AdmissionController
from repro.server.auth import Authenticator, Credential
from repro.server.client import ServerClient
from repro.server.ratelimit import TokenBucket
from repro.server.service import MLDSServer, ServerHandle

__all__ = [
    "AdmissionController",
    "Authenticator",
    "Credential",
    "MLDSServer",
    "ServerClient",
    "ServerHandle",
    "TokenBucket",
]
