"""The log manager: append, force, scan, and crash semantics.

LSNs are byte offsets.  Appending a record assigns it the current end of
log; the record's durable image is its codec bytes framed by a 4-byte
length, so log-size accounting matches what a real log file would grow by
(this feeds the benchmark cost model: the paper's eager-vs-lazy argument is
partly "extra log operations reduce system throughput").

Durability model: :meth:`force` makes the record at an LSN, and every
record before it, durable; :meth:`crash` discards everything after the
durable prefix.  Commit forces
the log (the dominant latency of a small transaction on 2005 hardware —
this is what makes the paper's 9.6 ms baseline).
"""

from __future__ import annotations

from bisect import bisect_right
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.errors import WALError
from repro.faults.failpoints import fire
from repro.wal.records import LogRecord

_NO_MUTEX = nullcontext()


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

    def snapshot(self) -> "LogStats":
        """An independent copy of the current counter values."""
        return LogStats(self.appends, self.bytes_appended, self.forces,
                        self.image_records, self.image_bytes,
                        self.forced_bytes)

    def delta(self, since: "LogStats") -> "LogStats":
        """Elementwise difference against an earlier snapshot."""
        return LogStats(
            self.appends - since.appends,
            self.bytes_appended - since.bytes_appended,
            self.forces - since.forces,
            self.image_records - since.image_records,
            self.image_bytes - since.image_bytes,
            self.forced_bytes - since.forced_bytes,
        )


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
        self._lsns: list[int] = []      # start offset of each record
        self._raws: list[bytes] = []    # framed codec bytes of each record
        self._end_lsn = self.HEADER_BYTES
        self._flushed_lsn = self.HEADER_BYTES
        self._master_checkpoint_lsn = 0  # durable master record (tiny side write)
        self.stats = LogStats()
        # Run after every *physical* force, once flushed_lsn has advanced.
        # Group commit drains its acknowledgement queue here, so any force —
        # a commit batch filling, a WAL-rule page flush, a checkpoint —
        # durably acks whatever commits it happens to cover.
        self.post_force_hooks: list[Callable[[], None]] = []
        # Concurrent mode installs an RLock here so parallel workers can
        # append/force safely; None (the default) keeps the single-threaded
        # fast path free of any locking.
        self.mutex = None
        # Concurrent mode also installs the force-order lock: it serializes
        # the *sync* stage of a force (the device write), which runs outside
        # the mutex so appends continue while a force is in flight.
        self.force_order = None
        self._synced_lsn = self.HEADER_BYTES   # durable, not yet published

    # -- appending ---------------------------------------------------------

    def append(self, record: LogRecord) -> int:
        """Append a record; returns its LSN (not yet durable)."""
        fire("log.append")
        raw = record.to_bytes()
        size = self.FRAME_BYTES + len(raw)
        stats = self.stats
        mutex = self.mutex      # by hand: entering ``nullcontext`` is not free
        if mutex is not None:
            mutex.acquire()
        try:
            lsn = record.lsn = self._end_lsn
            self._lsns.append(lsn)
            self._raws.append(raw)
            self._end_lsn = lsn + size
            stats.appends += 1
            stats.bytes_appended += size
            if record.CARRIES_IMAGES:
                stats.image_records += 1
                stats.image_bytes += size
            return lsn
        finally:
            if mutex is not None:
                mutex.release()

    @property
    def end_lsn(self) -> int:
        """Offset just past the last appended record ("LSN of end of log")."""
        return self._end_lsn

    @property
    def next_lsn(self) -> int:
        """The LSN the *next* appended record will receive.

        Structure modifications use this to stamp page LSNs into the page
        images they are about to log (the images must carry the SMO's own
        LSN so redo's page-LSN guard works).
        """
        return self._end_lsn

    @property
    def flushed_lsn(self) -> int:
        return self._flushed_lsn

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
        with self.mutex or _NO_MUTEX:                       # begin
            target = self._end_lsn if upto_lsn is None \
                else min(upto_lsn + 1, self._end_lsn)
            if target <= self._flushed_lsn:
                return
        if unlatch is not None:
            unlatch.release()
        try:
            with self.force_order or _NO_MUTEX:             # sync
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
        with self.mutex or _NO_MUTEX:                       # finish
            if self._synced_lsn > self._flushed_lsn:
                self._flushed_lsn = self._synced_lsn
                for hook in self.post_force_hooks:
                    hook()

    def _write_out(self) -> int:
        """Put the unsynced suffix on the device; returns the LSN it ends at.

        The in-memory log has no device; the file-backed subclass writes
        and fsyncs here.  Called with the force-order lock held.
        """
        return self._end_lsn

    # -- master record ---------------------------------------------------------

    def set_master_checkpoint(self, lsn: int) -> None:
        """Record the last complete checkpoint's LSN (durable master record)."""
        if lsn >= self._flushed_lsn:
            raise WALError("checkpoint LSN must be durable before the master record")
        self._master_checkpoint_lsn = lsn

    @property
    def master_checkpoint_lsn(self) -> int:
        return self._master_checkpoint_lsn

    # -- scanning ------------------------------------------------------------------

    def records_from(self, lsn: int = 0) -> Iterator[LogRecord]:
        """Decode and yield records with LSN >= ``lsn`` (durable or not)."""
        start = bisect_right(self._lsns, lsn)
        if start and self._lsns[start - 1] == lsn:
            start -= 1
        for i in range(start, len(self._lsns)):
            record = LogRecord.decode(self._raws[i])
            record.lsn = self._lsns[i]
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
        start = bisect_right(self._lsns, after_lsn)
        for i in range(start, len(self._lsns)):
            lsn = self._lsns[i]
            if lsn >= self._flushed_lsn:
                break
            yield lsn, self._raws[i]

    def record_at(self, lsn: int) -> LogRecord:
        index = bisect_right(self._lsns, lsn) - 1
        if index < 0 or self._lsns[index] != lsn:
            raise WALError(f"no log record at LSN {lsn}")
        record = LogRecord.decode(self._raws[index])
        record.lsn = lsn
        return record

    # -- crash simulation --------------------------------------------------------------

    def crash(self) -> None:
        """Discard the non-durable suffix, as a power failure would."""
        keep = bisect_right(self._lsns, self._flushed_lsn)
        if keep and self._lsns[keep - 1] == self._flushed_lsn:
            keep -= 1
        del self._lsns[keep:]
        del self._raws[keep:]
        self._end_lsn = self._synced_lsn = self._flushed_lsn

    def __len__(self) -> int:
        return len(self._lsns)
