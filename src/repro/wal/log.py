"""The log manager: append, force, scan, and crash semantics.

LSNs are byte offsets.  Appending a record assigns it the current end of
log; the record's durable image is its codec bytes framed by a 4-byte
length, so log-size accounting matches what a real log file would grow by
(this feeds the benchmark cost model: the paper's eager-vs-lazy argument is
partly "extra log operations reduce system throughput").

Durability model: :meth:`force` makes the record at an LSN, and every
record before it, durable; :meth:`crash` discards everything after the
durable prefix (the file-backed log then reloads what its device kept).  Commit forces
the log (the dominant latency of a small transaction on 2005 hardware —
this is what makes the paper's 9.6 ms baseline).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator

from repro.errors import WALError
from repro.faults.failpoints import fire
from repro.wal.records import LogRecord, MultiPageImage, SMOReason

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.buffer import BufferPool
    from repro.storage.page import Page


@dataclass
class LogStats:
    """Log volume and force counters (feeds the cost model)."""
    appends: int = 0
    bytes_appended: int = 0
    forces: int = 0
    image_records: int = 0     # records carrying full page images (SMOs/CLRs)
    image_bytes: int = 0       # their bytes: a simulator artifact; real
    # engines log structure modifications physiologically (~100 bytes), so
    # the cost model prices image records by count, not by image volume.
    forced_bytes: int = 0      # bytes made durable by physical forces; each
    # force writes one contiguous (sequential) suffix, so forced_bytes /
    # forces is the average batch a group-committed force amortizes.


class LogManager:
    """An append-only log with an explicit durable prefix."""

    HEADER_BYTES = 16
    """The log starts past a pseudo file header, so no record has LSN 0 —
    LSN 0 stays free as the "no record / never written" sentinel used by
    fresh pages and by ``prev_lsn`` backchain ends."""

    FRAME_BYTES = 4
    """Framing overhead per record: a 4-byte length prefix.  The file-backed
    subclass widens this to add a per-frame CRC32."""

    def __init__(self) -> None:
        # The tail: records no device holds, oldest first (in memory, the
        # whole log).  The device holds the rest, up to ``_written_lsn``.
        self._lsns: list[int] = []      # start offset of each tail record
        self._raws: list[bytes] = []    # codec bytes of each tail record
        self._written_lsn = self.HEADER_BYTES
        self._written_records = 0       # how many records the device holds
        # Read-only for everyone else: the offset just past the last
        # appended record ("LSN of end of log"), and the end of the durable
        # prefix.
        self.end_lsn = self.HEADER_BYTES
        self.flushed_lsn = self.HEADER_BYTES
        self._master_checkpoint_lsn = 0  # durable master record (tiny side write)
        self.stats = LogStats()
        # Run after every *physical* force, once flushed_lsn has advanced.
        # Group commit drains its acknowledgement queue here, so any force —
        # a commit batch filling, a WAL-rule page flush, a checkpoint —
        # durably acks whatever commits it happens to cover.
        self.post_force_hooks: list[Callable[[], None]] = []
        # Guards the tail and the LSN counters.  ``append`` takes it by
        # hand: a ``with`` on a C lock costs twice as much.
        self.mutex = threading.RLock()
        # The force-order lock serializes the *sync* stage of a force (the
        # device write), which runs outside the mutex so appends continue
        # while a force is in flight.  Concurrent mode makes it a FIFO
        # ReentrantLatch the interleaving harness can replay.
        self.force_order = threading.RLock()
        self._synced_lsn = self.HEADER_BYTES   # durable, not yet published

    # -- appending ---------------------------------------------------------

    def append(self, record: LogRecord) -> int:
        """Append a record; returns its LSN (not yet durable)."""
        fire("log.append")
        raw = record.to_bytes()
        size = self.FRAME_BYTES + len(raw)
        stats = self.stats
        mutex = self.mutex
        mutex.acquire()
        try:
            lsn = record.lsn = self.end_lsn
            self._lsns.append(lsn)
            self._raws.append(raw)
            self.end_lsn = lsn + size
            stats.appends += 1
            stats.bytes_appended += size
            if record.CARRIES_IMAGES:
                stats.image_records += 1
                stats.image_bytes += size
            return lsn
        finally:
            mutex.release()

    @property
    def next_lsn(self) -> int:
        """The LSN the *next* appended record will receive.

        Structure modifications use this to stamp page LSNs into the page
        images they are about to log (the images must carry the SMO's own
        LSN so redo's page-LSN guard works).
        """
        return self.end_lsn

    # -- durability ---------------------------------------------------------

    def force(self, upto_lsn: int | None = None, *, unlatch=None) -> None:
        """Make the record *at* ``upto_lsn`` durable (``None``: every record).

        An LSN is a record's start offset, so the record at ``L`` is durable
        iff ``L < flushed_lsn`` — a durable prefix that ends exactly at
        ``L`` does not hold it yet.  A no-op when it already is — so the
        stats count *physical* forces, which is what group commit would
        pay for.

        A force runs in three stages.  *begin* picks the offset the durable
        prefix must reach; *sync* puts everything appended so far on the
        device, holding only the force-order lock; *finish* publishes the
        new durable prefix and runs ``post_force_hooks``.  Callers hold the
        engine latch around the whole call; one that can afford to let go
        of it during the device write passes it as ``unlatch`` and gets it
        back for *finish* — ``db.flush_commits()`` does, so no other
        thread's statement waits behind its ``fsync``.
        """
        with self.mutex:                                    # begin
            target = self.end_lsn if upto_lsn is None \
                else min(upto_lsn + 1, self.end_lsn)
            if target <= self.flushed_lsn:
                return
        if unlatch is not None:
            unlatch.release()
        try:
            with self.force_order:                          # sync
                # A concurrent force may have synced past the target
                # already; then only its finish can still be pending.
                if target > self._synced_lsn:
                    upto = self._write_out()
                    fire("log.force")
                    self.stats.forced_bytes += upto - self._synced_lsn
                    self.stats.forces += 1
                    self._synced_lsn = upto
        finally:
            if unlatch is not None:
                unlatch.acquire()
        with self.mutex:                                    # finish
            if self._synced_lsn > self.flushed_lsn:
                self.flushed_lsn = self._synced_lsn
                for hook in self.post_force_hooks:
                    hook()

    def _write_out(self) -> int:
        """Put the unsynced suffix on the device; returns the LSN it ends at.

        The in-memory log has no device; the file-backed subclass writes
        and fsyncs here.  Called with the force-order lock held.
        """
        return self.end_lsn

    # -- master record ---------------------------------------------------------

    def set_master_checkpoint(self, lsn: int) -> None:
        """Record the last complete checkpoint's LSN (durable master record)."""
        if lsn >= self.flushed_lsn:
            raise WALError("checkpoint LSN must be durable before the master record")
        self._master_checkpoint_lsn = lsn

    @property
    def master_checkpoint_lsn(self) -> int:
        return self._master_checkpoint_lsn

    # -- reading ------------------------------------------------------------------

    def records_from(self, lsn: int = 0) -> Iterator[LogRecord]:
        """Decode and yield records with LSN >= ``lsn`` (durable or not)."""
        for at, raw in self._frames(lsn, self.end_lsn):
            record = LogRecord.decode(raw)
            record.lsn = at
            yield record

    def durable_frames(self, after_lsn: int = 0) -> Iterator[tuple[int, bytes]]:
        """Yield ``(lsn, raw)`` for every *durable* record with LSN > ``after_lsn``.

        A record is fully durable iff it starts below ``flushed_lsn`` —
        :meth:`force` always flushes a contiguous suffix, so there is never a
        half-durable record.  The raw bytes are the unframed codec image
        (what :meth:`LogRecord.decode` accepts).  This is the log-archiving
        tap: the media-recovery archive copies exactly these frames after
        each physical force.
        """
        for lsn, raw in self._frames(after_lsn, self.flushed_lsn):
            if lsn > after_lsn:
                yield lsn, raw

    def record_at(self, lsn: int) -> LogRecord:
        for record in self.records_from(lsn):
            if record.lsn == lsn:
                return record
            break
        raise WALError(f"no log record at LSN {lsn}")

    def _frames(self, lsn: int, end: int) -> Iterator[tuple[int, bytes]]:
        """The one read path: ``(lsn, raw)`` of each record in ``[lsn, end)``
        — from the device below ``_written_lsn`` (starting at a record's LSN:
        it has no index), then from the tail, looked at again after each
        device read in case a force (redo's evictions force) handed it over."""
        lsn = max(lsn, self.HEADER_BYTES)
        while True:
            with self.mutex:
                written = self._written_lsn
                i, j = bisect_left(self._lsns, lsn), bisect_left(self._lsns, end)
                lsns, raws = self._lsns[i:j], self._raws[i:j]
            if lsn >= min(written, end):
                yield from zip(lsns, raws)
                return
            yield from self._read_device(lsn, min(written, end))
            lsn = written

    def _read_device(self, lsn, upto):      # the in-memory log has none
        return iter(())

    # -- crash simulation --------------------------------------------------------------

    def crash(self) -> None:
        """Lose the unforced tail; a device-backed log reloads its device."""
        keep = bisect_left(self._lsns, self.flushed_lsn)
        del self._lsns[keep:]
        del self._raws[keep:]
        self.end_lsn = self._synced_lsn = self.flushed_lsn
        self._open()

    def _open(self) -> None:
        """Load the device (the in-memory log keeps its forced prefix)."""

    def close(self) -> None:
        """Release the device (the in-memory log has none)."""

    def __len__(self) -> int:
        return self._written_records + len(self._lsns)


def log_smo(
    log: LogManager, buffer: "BufferPool", reason: SMOReason,
    pages: "list[Page]", freed: "list[int] | tuple[int, ...]" = (),
) -> int:
    """Log one atomic multi-page image, then put its pages in the pool.

    The one way a structure modification's pages enter the buffer pool, for
    every tree (B-tree, TSB index, PTT) and for page frees: the record is
    appended first, and each page is installed dirty with the record's LSN
    after it.  Installing a page can evict another, and an evicted page is
    written; written before its record existed it would reach the disk
    under its old LSN, already naming siblings and history pages that exist
    nowhere.  ``freed`` are the ids the record returns to the free list.
    """
    lsn = log.next_lsn
    seen: set[int] = set()
    unique: list[Page] = []
    for page in pages:
        if page.page_id in seen:
            continue
        seen.add(page.page_id)
        page.lsn = lsn
        page.touch()        # imaged below, before mark_dirty would
        unique.append(page)
    assigned = log.append(MultiPageImage(
        reason=reason, images=[(p.page_id, p.to_bytes()) for p in unique],
        freed=list(freed),
    ))
    assert assigned == lsn
    for page in unique:
        buffer.mark_dirty_page(page, lsn)
        page._image_epoch = page._encode_epoch  # still what was logged
    return lsn
