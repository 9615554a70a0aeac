"""Deterministic fault injection and crash-point exploration.

Three layers (see DESIGN.md, "Fault injection"):

* :mod:`repro.faults.failpoints` — named trigger points threaded through the
  engine's hot seams (page writes, buffer flushes, log appends and forces,
  checkpoint phases, the commit path).  Zero-cost when no registry is
  installed; deterministic when armed from a seed.
* :mod:`repro.faults.models` — media fault models: a corrupting
  :class:`~repro.faults.models.FaultyDisk` page-store wrapper (torn writes,
  dropped writes, bit-rot, transient I/O errors) and a torn-log-tail
  injector for file-backed logs.
* :mod:`repro.faults.crashtest` — the crash-point exploration harness: run
  a seeded workload once to enumerate every failpoint crossing, then crash
  at each crossing in turn, recover, and check integrity plus as-of
  equivalence against :mod:`repro.faults.oracle`, a model keyed by commit
  timestamp.

This ``__init__`` deliberately imports only the failpoint layer: the storage
and WAL modules call :func:`repro.faults.failpoints.fire` on their hot
paths, so importing :mod:`repro.faults.models` (which imports the storage
layer back) here would create an import cycle.
"""

from repro.faults.failpoints import (
    FailpointRegistry,
    FireEvent,
    SimulatedCrash,
    fire,
    install,
    installed,
    installed_registry,
    uninstall,
)

__all__ = [
    "FailpointRegistry",
    "FireEvent",
    "SimulatedCrash",
    "fire",
    "install",
    "installed",
    "installed_registry",
    "uninstall",
]
