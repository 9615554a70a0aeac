"""Network service layer: a leader/followers SQL server over the engine.

The package splits sans-IO from transport, the same separation the WAL
uses (framing/codec vs. file):

* :mod:`repro.service.protocol` — CRC-framed wire format + JSON messages;
* :mod:`repro.service.admission` — bounded admission with read-first shed;
* :mod:`repro.service.session` — per-connection session state;
* :mod:`repro.service.core` — sans-IO request dispatcher (the part the
  crashtest drives deterministically, byte-in/byte-out, no sockets);
* :mod:`repro.service.transport` — in-process loopback transport with the
  network fault model (torn frames, dropped responses, duplicate delivery,
  slow-loris chunking);
* :mod:`repro.service.server` — the socket server, one polling thread;
* :mod:`repro.service.client` — a blocking socket client with seeded
  retry/backoff.

``python -m repro.service`` starts a server (see ``--help``).
"""

from repro.service.admission import AdmissionController
from repro.service.client import ServiceClient
from repro.service.core import ServiceCore, ServiceStats
from repro.service.server import SQLService, ThreadedService
from repro.service.session import ServiceSession
from repro.service.transport import LoopbackConnection

__all__ = [
    "AdmissionController",
    "LoopbackConnection",
    "ServiceClient",
    "ServiceCore",
    "ServiceSession",
    "ServiceStats",
    "SQLService",
    "ThreadedService",
]
