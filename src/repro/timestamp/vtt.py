"""The Volatile Timestamp Table (VTT).

Section 2.2: an in-memory hash table ``(TID, Ttime, SN, RefCount)`` that

* caches the recent (hence likely-to-be-used) PTT entries, speeding TID →
  timestamp translation,
* counts, per transaction, the record versions that still carry a TID
  instead of a timestamp (``RefCount``), and
* remembers, once the RefCount reaches zero, the end-of-log LSN at that
  moment — the value the garbage collector compares against the redo scan
  start point to know that every re-stamped page is durably on disk.

The VTT is volatile by design: it is rebuilt empty after a crash, which is
why a crash can strand PTT entries whose timestamping had actually finished
(the paper accepts this: "we simply end up with certain PTT entries that
cannot be deleted").
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from repro.clock import SN_INVALID, Timestamp
from repro.errors import NotYetCommittedError, UnknownTransactionError


@dataclass
class VTTEntry:
    """One VTT row.

    ``ts`` is the commit timestamp, kept as the object every resolve hands
    out; ``None`` means the transaction is still active (stage I, where the
    paper's row has an invalid SN).  ``refcount is None`` means "undefined":
    the entry was cached from the PTT after a crash or eviction, so we no
    longer know how many unstamped versions remain and must never garbage
    collect its PTT entry.
    """

    ts: Timestamp | None = None
    refcount: int | None = 0
    done_lsn: int | None = None     # end-of-log LSN when refcount hit zero
    is_snapshot: bool = False       # snapshot txns never get a PTT entry
    persistent: bool = False        # True once a PTT entry was written
    commit_lsn: int | None = None   # LSN of the commit record (None: unknown,
    # e.g. cached from the PTT — then the commit is durable by construction)

    @property
    def is_active(self) -> bool:
        return self.ts is None

    @property
    def sn(self) -> int:
        """The commit SN; ``SN_INVALID`` while the transaction is active."""
        return SN_INVALID if self.ts is None else self.ts.sn

    @property
    def timestamp(self) -> Timestamp:
        if self.ts is None:
            raise NotYetCommittedError("transaction has no timestamp yet")
        return self.ts


class VolatileTimestampTable:
    """In-memory TID → :class:`VTTEntry` map."""

    def __init__(self) -> None:
        self._entries: dict[int, VTTEntry] = {}
        # ``(done_lsn, tid)`` of every entry given a done LSN, oldest first:
        # GC pops what lies below its horizon and skips the stale ones.
        self._done: list[tuple[int, int]] = []
        # ``vtt.get(tid)`` -> entry or None: the dict's own method, so the
        # probe every stamp and every visibility test makes is one call.
        self.get = self._entries.get

    def __contains__(self, tid: int) -> bool:
        return tid in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def require(self, tid: int) -> VTTEntry:
        entry = self._entries.get(tid)
        if entry is None:
            raise UnknownTransactionError(f"TID {tid} not in VTT")
        return entry

    # -- stage I: transaction begin ------------------------------------------

    def begin(self, tid: int, *, is_snapshot: bool = False) -> VTTEntry:
        """Create the entry for a starting transaction (RefCount 0, SN invalid)."""
        if tid in self._entries:
            raise ValueError(f"TID {tid} already has a VTT entry")
        entry = VTTEntry(refcount=0, is_snapshot=is_snapshot)
        self._entries[tid] = entry
        return entry

    # -- stage II: a version was written ----------------------------------------

    def increment(self, tid: int) -> None:
        entry = self._entries.get(tid) or self.require(tid)
        if entry.refcount is None:
            return  # undefined stays undefined
        entry.refcount += 1
        entry.done_lsn = None

    # -- stage III: commit --------------------------------------------------------

    def set_committed(
        self, tid: int, ts: Timestamp, end_lsn: int,
        commit_lsn: int | None = None,
    ) -> VTTEntry:
        """Record the commit timestamp; if nothing awaits stamping, mark done."""
        entry = self._entries.get(tid) or self.require(tid)
        entry.ts = ts
        entry.commit_lsn = commit_lsn
        if entry.refcount == 0:
            entry.done_lsn = end_lsn
            heappush(self._done, (end_lsn, tid))
        return entry

    # -- stage IV: a version was stamped ---------------------------------------------

    def decrement(self, tid: int, end_lsn: int) -> int | None:
        """One fewer unstamped version; returns the remaining count (or None).

        When the count reaches zero the caller's ``end_lsn`` (the LSN of the
        end of the log right now) is remembered as the GC gate.
        """
        entry = self._entries.get(tid) or self.require(tid)
        if entry.refcount is None:
            return None
        if entry.refcount <= 0:
            raise ValueError(f"TID {tid}: RefCount underflow")
        entry.refcount -= 1
        if entry.refcount == 0:
            entry.done_lsn = end_lsn
            heappush(self._done, (end_lsn, tid))
        return entry.refcount

    # -- caching from the PTT ------------------------------------------------------------

    def cache_from_ptt(self, tid: int, ts: Timestamp) -> VTTEntry:
        """Cache a PTT entry with *undefined* RefCount (never GC-eligible)."""
        entry = VTTEntry(ts, refcount=None)
        self._entries[tid] = entry
        return entry

    # -- removal ------------------------------------------------------------------------------

    def drop(self, tid: int) -> None:
        self._entries.pop(tid, None)
        if len(self._done) > 2 * len(self._entries) + 64:
            # A dropped entry leaves its pair behind: keep the live ones.
            self._done = [(e.done_lsn, t) for t, e in self._entries.items()
                          if e.done_lsn is not None]
            heapify(self._done)

    def pop_done(self, horizon: int) -> list[tuple[int, VTTEntry]]:
        """Committed entries with RefCount 0 and a done LSN below ``horizon``,
        in TID order, visiting only those (and stale pairs, skipped)."""
        done, ready = self._done, {}
        while done and done[0][0] < horizon:
            done_lsn, tid = heappop(done)
            entry = self._entries.get(tid)
            if entry is not None and entry.done_lsn == done_lsn \
                    and entry.ts is not None:
                ready[tid] = entry
        return sorted(ready.items())

    def items(self) -> list[tuple[int, VTTEntry]]:
        return list(self._entries.items())

    def clear(self) -> None:
        """Crash: the VTT is volatile and simply vanishes."""
        self._entries.clear()
        self._done.clear()
