"""Lazy timestamping: the four-stage protocol of Section 2.2.

Stage I   — the transaction's first write (readers never need one): create
            the VTT entry (RefCount 0, SN invalid).
Stage II  — insert/update/delete: new versions carry the writer's TID;
            RefCount is incremented per version.
Stage III — commit: choose the timestamp (late, so it agrees with
            serialization order), store it in the VTT, and perform the single
            PTT insert — no data record is revisited.
Stage IV  — on the next access of a non-timestamped record, replace its TID
            with the timestamp from the VTT (falling back to the PTT, and
            caching the result with an *undefined* RefCount).

Trigger points for stage IV, straight from the paper:

* updating a non-timestamped version with a later version,
* a cached page is about to be flushed to disk (buffer-pool pre-flush hook),
* a transaction reads a non-timestamped version,
* a page is time split.

Timestamping itself is **never logged**.  Garbage collection of a PTT entry
is therefore gated on proof that every re-stamped page is durably on disk:
the VTT remembers the end-of-log LSN when a transaction's RefCount reached
zero, and the entry becomes collectable only once the redo scan start point
(advanced by checkpoints) moves past that LSN.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable

from repro.clock import SN_INVALID, Timestamp, field_tid
from repro.errors import UnknownTransactionError
from repro.storage.buffer import BufferPool
from repro.storage.page import DataPage, Page
from repro.timestamp.ptt import PersistentTimestampTable
from repro.timestamp.vtt import VolatileTimestampTable
from repro.wal.log import LogManager
from repro.wal.records import PTTDelete

_NO_MUTEX = nullcontext()


@dataclass
class TimestampStats:
    """Counters for timestamping work (feeds the cost model)."""
    stamps: int = 0              # record versions whose TID was replaced
    vtt_hits: int = 0
    ptt_lookups: int = 0
    ptt_inserts: int = 0
    ptt_deletes: int = 0
    commit_revisit_pages: int = 0  # eager only: pages revisited before commit

    def snapshot(self) -> "TimestampStats":
        """An independent copy of the current counter values."""
        return TimestampStats(
            self.stamps, self.vtt_hits, self.ptt_lookups,
            self.ptt_inserts, self.ptt_deletes, self.commit_revisit_pages,
        )


class TimestampManager:
    """Lazy timestamping engine (the paper's choice)."""

    #: set by the engine: (table_id, key) -> current DataPage holding the key
    locator: Callable[[int, bytes], DataPage | None] | None

    def __init__(
        self,
        log: LogManager,
        buffer: BufferPool,
        ptt: PersistentTimestampTable,
    ) -> None:
        self.log = log
        self.buffer = buffer
        self.ptt = ptt
        self.vtt = VolatileTimestampTable()
        self.stats = TimestampStats()
        self.locator = None
        # After a crash, conventional tables may hold committed TID-marked
        # records whose mapping was volatile-only (no PTT entry).  Their
        # exact time is gone, but for a non-temporal table any time before
        # every post-restart snapshot is semantically equivalent; recovery
        # sets this fallback to the restart time.
        self.recovery_fallback: Timestamp | None = None
        # Concurrent mode installs an RLock here, guarding every VTT/PTT
        # mutation (begin/commit/abort transitions, stamping's decrement,
        # GC's drop) plus resolve's VTT cache fill.  None by default: the
        # single-threaded paths stay lock-free.
        self.mutex = None
        buffer.pre_flush_hooks.append(self._flush_hook)

    # -- stage I ---------------------------------------------------------------

    def on_begin(self, tid: int, *, is_snapshot: bool = False) -> None:
        with self.mutex or _NO_MUTEX:
            self.vtt.begin(tid, is_snapshot=is_snapshot)

    # -- stage II --------------------------------------------------------------

    def on_version_created(
        self, tid: int, table_id: int, page_id: int, key: bytes
    ) -> None:
        """A new version was written, marked with ``tid``."""
        # The per-version methods (this one, resolve, stamp_version) test the
        # mutex for ``None`` by hand; the per-transaction ones can afford the
        # two Python calls that entering ``nullcontext`` costs.
        if self.mutex is None:
            self.vtt.increment(tid)
            return
        with self.mutex:
            self.vtt.increment(tid)

    # -- stage III ----------------------------------------------------------------

    def on_commit_prepare(self, tid: int, ts: Timestamp) -> None:
        """Work to do *before* the commit record (eager overrides this)."""

    def on_commit(
        self, tid: int, ts: Timestamp, commit_lsn: int, *, persistent: bool
    ) -> None:
        """Record the commit timestamp; write the PTT entry if needed.

        ``persistent`` is True when the transaction updated an immortal
        table, i.e. its TID→timestamp mapping must survive a crash.
        """
        with self.mutex or _NO_MUTEX:
            entry = self.vtt.set_committed(
                tid, ts, self.log.end_lsn, commit_lsn=commit_lsn
            )
            entry.persistent = persistent
            if persistent:
                self.ptt.insert(tid, ts, rec_lsn=commit_lsn)
                self.stats.ptt_inserts += 1
            elif entry.refcount == 0:
                # Nothing awaits stamping and nothing is in the PTT: the
                # entry has no further use (snapshot-only transactions
                # especially).
                self.vtt.drop(tid)

    def on_abort(self, tid: int) -> None:
        """Rollback removes the transaction's versions; the entry is useless."""
        with self.mutex or _NO_MUTEX:
            self.vtt.drop(tid)

    # -- stage IV -----------------------------------------------------------------

    def resolve(self, tid: int) -> tuple[Timestamp | None, bool]:
        """TID → (timestamp, committed?).  (None, False) while still active."""
        mutex = self.mutex
        if mutex is not None:
            mutex.acquire()
        try:
            entry = self.vtt.get(tid)
            if entry is not None:
                if entry.sn == SN_INVALID:      # still active
                    return None, False
                self.stats.vtt_hits += 1
                return entry.timestamp, True
            self.stats.ptt_lookups += 1
            ts = self.ptt.lookup(tid)
            if ts is None:
                raise UnknownTransactionError(
                    f"TID {tid} is in neither the VTT nor the PTT"
                )
            self.vtt.cache_from_ptt(tid, ts)
            return ts, True
        finally:
            if mutex is not None:
                mutex.release()

    def resolve_with_fallback(
        self, tid: int, *, immortal: bool
    ) -> tuple[Timestamp | None, bool]:
        """Like :meth:`resolve`, but non-immortal tables may use the
        post-crash fallback timestamp for mappings lost with the VTT."""
        try:
            return self.resolve(tid)
        except UnknownTransactionError:
            if immortal or self.recovery_fallback is None:
                raise
            self.vtt.cache_from_ptt(tid, self.recovery_fallback)
            return self.recovery_fallback, True

    def resolve_many(
        self,
        tids: set[int],
        memo: dict[int, tuple[Timestamp | None, bool]],
        *,
        immortal: bool = True,
    ) -> dict[int, tuple[Timestamp | None, bool]]:
        """Batched stage IV: resolve every TID in one VTT/PTT pass.

        ``memo`` is a per-scan cache — TIDs already present cost nothing, so
        a scan touching the same writer on every page pays one lookup total
        instead of one per version.  The memo must not outlive the scan: an
        entry of ``(None, False)`` (writer still active) goes stale the
        moment that writer commits — harmless within one scan, since a
        commit after the scan's horizon was drawn is invisible to it anyway.
        """
        for tid in tids:
            if tid not in memo:
                memo[tid] = self.resolve_with_fallback(tid, immortal=immortal)
        return memo

    def stamp_version(self, version, *, immortal: bool = True) -> bool:
        """Try to timestamp one version; False if its writer is still active.

        Also declines while the writer's commit record is not yet durable
        (group commit holds commit records in the log buffer): stamping is
        never logged, so a stamped version reaching disk before its commit
        record would survive a crash that rolls the transaction back.
        """
        mutex = self.mutex
        if mutex is not None:
            mutex.acquire()
        try:
            tid = field_tid(version.ttime_field)
            ts, committed = self.resolve_with_fallback(tid, immortal=immortal)
            if not committed:
                return False
            entry = self.vtt.get(tid)
            if entry is not None and entry.commit_lsn is not None \
                    and entry.commit_lsn >= self.log.flushed_lsn:
                return False
            assert ts is not None
            version.stamp(ts)
            self.stats.stamps += 1
            if entry is not None:
                remaining = self.vtt.decrement(tid, self.log.end_lsn)
                if remaining == 0 and entry.is_snapshot:
                    # Paper: a snapshot transaction's entry can be dropped
                    # the moment its reference count reaches zero — nothing
                    # persists in the PTT.
                    self.vtt.drop(tid)
            return True
        finally:
            if mutex is not None:
                mutex.release()

    def stamp_page(self, page: DataPage, *, mark_dirty: bool = True) -> int:
        """Timestamp every committed, not-yet-stamped version in the page.

        Per the paper, "lazy timestamping of non-timestamped data records
        requires that an exclusive latch be obtained on the page to enable
        the change to be made" — the latch is held for the stamping pass
        and released before returning.

        Returns the number of versions stamped.  ``mark_dirty=False`` is used
        by the pre-flush hook (the page is being written out anyway).
        """
        if not page.has_unstamped_records():
            return 0
        latched = self.buffer.contains(page.page_id)
        if latched:
            self.buffer.latch_exclusive(page.page_id)
        try:
            stamped = 0
            for version in page.unstamped_versions():
                if self.stamp_version(version, immortal=page.immortal):
                    stamped += 1
        finally:
            if latched:
                self.buffer.unlatch(page.page_id)
        if stamped:
            # Stamping mutates records in place, invisible to the page's
            # attribute-level cache invalidation — always touch, even on the
            # pre-flush path that skips mark_dirty.
            page.touch()
            if mark_dirty:
                self.buffer.mark_dirty_page(page)
        return stamped

    def stamp_page_for_split(self, page: DataPage) -> int:
        """Stage-IV trigger ahead of a time split.

        A time split partitions versions by timestamp, so every *committed*
        version must be stamped before the split classifies it — a
        committed version left TID-marked would be treated as uncommitted
        (case 4, current page only) even though its commit time falls
        before the split time, and as-of reads routed to the history page
        would miss it.  Ordinary stamping declines a version while its
        commit record sits in the unforced log buffer (group commit); here
        that is not an option, so force the log and stamp again.  Only
        genuinely uncommitted versions remain TID-marked on return.
        """
        stamped = self.stamp_page(page)
        if page.has_unstamped_records() and self._committed_unstamped(page):
            self.log.force()
            stamped += self.stamp_page(page)
        return stamped

    def _committed_unstamped(self, page: DataPage) -> bool:
        """Any unstamped version whose writer has already committed?"""
        with self.mutex or _NO_MUTEX:
            for version in page.unstamped_versions():
                entry = self.vtt.get(version.tid)
                if entry is not None:
                    if not entry.is_active:
                        return True
                elif self.ptt.lookup(version.tid) is not None:
                    return True
        return False

    def _flush_hook(self, page: Page) -> None:
        if isinstance(page, DataPage):
            self.stamp_page(page, mark_dirty=False)

    # -- garbage collection ------------------------------------------------------------

    def garbage_collect(self, redo_scan_start_lsn: int) -> int:
        """Drop completed entries whose stamping is provably durable.

        An entry qualifies when its RefCount is zero *and* the redo scan
        start point has moved past the end-of-log LSN recorded when the
        count reached zero (which implies every page stamped for this
        transaction has been written to disk).  Returns the number of PTT
        entries removed.
        """
        removed = 0
        with self.mutex or _NO_MUTEX:
            for tid, entry in self.vtt.gc_candidates():
                if entry.done_lsn is None \
                        or redo_scan_start_lsn <= entry.done_lsn:
                    continue
                if entry.persistent:
                    lsn = self.log.append(PTTDelete(subject_tid=tid))
                    self.ptt.delete(tid, rec_lsn=lsn)
                    self.stats.ptt_deletes += 1
                    removed += 1
                self.vtt.drop(tid)
        return removed

    # -- recovery support --------------------------------------------------------------------

    def rebuild_after_crash(self) -> None:
        """Reset volatile state (the VTT does not survive a crash)."""
        self.vtt.clear()

    def restore_committed(self, tid: int, ts: Timestamp) -> None:
        """Recovery saw a durable commit record: remember its timestamp.

        The RefCount is *undefined* (None): we no longer know how many
        versions remain unstamped, so the PTT entry (if any) is never
        garbage collected — exactly the paper's post-crash behaviour.
        """
        if tid not in self.vtt:
            self.vtt.cache_from_ptt(tid, ts)
