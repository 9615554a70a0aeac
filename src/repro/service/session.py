"""Per-connection session state.

A :class:`ServiceSession` wraps one SQL :class:`repro.sql.executor.Session`
(at most one open transaction) with the connection-lifecycle state the
service needs: a per-session mutex so a pipelining client cannot
interleave two statements inside one transaction bracket, and a defunct
flag for sessions whose connection died while a request was still
executing.

State machine (documented in DESIGN.md):

    open ──execute──▶ open ──disconnect/idle/drain──▶ closed
      │ (defunct: connection gone, request still in flight;
      ▼  the finishing thread observes the flag and aborts)
    defunct ──request completes──▶ closed

Closing a session mid-transaction aborts the transaction, which releases
every lock it holds — a dropped connection can never strand a lock.
"""

from __future__ import annotations

import threading

from repro.sql.executor import Session


class ServiceSession:
    """One client connection's server-side state."""

    def __init__(self, session_id: int, db) -> None:
        self.id = session_id
        self.sql = Session(db)
        self.db = db
        self.lock = threading.Lock()    # serializes statements per session
        self.closed = False
        self.defunct = False
        self.close_reason: str | None = None

    def mark_defunct(self, reason: str) -> None:
        """Connection is gone but a request may still be executing."""
        self.defunct = True
        if self.close_reason is None:
            self.close_reason = reason

    def close(self, reason: str = "disconnect") -> bool:
        """Abort any open transaction and retire the session (idempotent).

        Returns True when an open transaction was aborted — the caller
        counts those as ``service_aborted_on_disconnect``.
        """
        if self.closed:
            return False
        self.closed = True
        self.close_reason = self.close_reason or reason
        aborted = self.sql.in_transaction
        self.sql.close()   # aborts the open txn → releases its locks
        return aborted
