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

from repro.clock import SN_INVALID, Timestamp
from repro.errors import NotYetCommittedError, UnknownTransactionError


@dataclass
class VTTEntry:
    """One VTT row.

    ``sn == SN_INVALID`` means the transaction is still active (stage I).
    ``refcount is None`` means "undefined": the entry was cached from the
    PTT after a crash or eviction, so we no longer know how many unstamped
    versions remain and must never garbage collect its PTT entry.
    """

    ttime: int
    sn: int = SN_INVALID
    refcount: int | None = 0
    done_lsn: int | None = None     # end-of-log LSN when refcount hit zero
    is_snapshot: bool = False       # snapshot txns never get a PTT entry
    persistent: bool = False        # True once a PTT entry was written
    commit_lsn: int | None = None   # LSN of the commit record (None: unknown,
    # e.g. cached from the PTT — then the commit is durable by construction)

    @property
    def is_active(self) -> bool:
        return self.sn == SN_INVALID

    @property
    def timestamp(self) -> Timestamp:
        if self.is_active:
            raise NotYetCommittedError("transaction has no timestamp yet")
        return Timestamp(self.ttime, self.sn)


class VolatileTimestampTable:
    """In-memory TID → :class:`VTTEntry` map."""

    def __init__(self) -> None:
        self._entries: dict[int, VTTEntry] = {}
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
        entry = VTTEntry(ttime=0, sn=SN_INVALID, refcount=0,
                         is_snapshot=is_snapshot)
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
        entry.ttime = ts.ttime
        entry.sn = ts.sn
        entry.commit_lsn = commit_lsn
        if entry.refcount == 0:
            entry.done_lsn = end_lsn
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
        return entry.refcount

    # -- caching from the PTT ------------------------------------------------------------

    def cache_from_ptt(self, tid: int, ts: Timestamp) -> VTTEntry:
        """Cache a PTT entry with *undefined* RefCount (never GC-eligible)."""
        entry = VTTEntry(ttime=ts.ttime, sn=ts.sn, refcount=None)
        self._entries[tid] = entry
        return entry

    # -- removal ------------------------------------------------------------------------------

    def drop(self, tid: int) -> None:
        self._entries.pop(tid, None)

    def gc_candidates(self) -> list[tuple[int, VTTEntry]]:
        """Entries whose timestamping is complete (RefCount 0 with a done LSN)."""
        return [
            (tid, entry)
            for tid, entry in self._entries.items()
            if entry.refcount == 0
            and entry.done_lsn is not None
            and not entry.is_active
        ]

    def items(self) -> list[tuple[int, VTTEntry]]:
        return list(self._entries.items())

    def clear(self) -> None:
        """Crash: the VTT is volatile and simply vanishes."""
        self._entries.clear()
