"""Concurrent transaction workers (opt-in; the engine default is serial).

:class:`WorkerPool` runs many transactions against one engine on real
threads, with blocking locks, deadlock-victim retry, and group-commit
batching of the durability forces.  :class:`InterleaveScheduler` runs a
small cast of transaction scripts one-at-a-time under a seeded scheduler,
so a specific interleaving — a write-write conflict, a deadlock cycle —
replays exactly.  :mod:`repro.workers.sweep` drives many seeded schedules
and checks every outcome against the crash explorer's timestamp-keyed
oracle.
"""

from repro.workers.interleave import InterleaveScheduler, ScriptContext
from repro.workers.pool import RetriesExhaustedError, TxnFuture, WorkerPool

__all__ = [
    "InterleaveScheduler",
    "RetriesExhaustedError",
    "ScriptContext",
    "TxnFuture",
    "WorkerPool",
]
