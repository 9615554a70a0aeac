"""The page store: the "disk" under the buffer pool, with physical I/O accounting.

:class:`PageStore` keeps page *i* at byte offset ``i * page_size`` of a
:mod:`repro.storage.device` (memory by default, or a file).  A page write
reaches the device at once and is durable only after :meth:`PageStore.sync`;
a crash reopens the store from what its device kept.

Every read/write is classified as *sequential* (page id adjacent to the last
I/O) or *random*; the benchmark cost model converts these counts into
simulated milliseconds, which is how we reproduce the paper's latency shapes
without the authors' 2005 hardware.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass

from repro.errors import (
    ChecksumError,
    PageNotFoundError,
    StorageError,
    TransientIOError,
)
from repro.faults.failpoints import fire
from repro.storage.device import Device, MemoryDevice
from repro.storage.constants import (
    CHECKSUM_OFFSET,
    CHECKSUM_SIZE,
    PAGE_SIZE,
)

# Byte offset of the 8-byte LSN in the common page header (see
# Page._COMMON_HEADER: page_id(4) | type(1) | flags(1) | pad(2) | lsn(8)).
_LSN_OFFSET = 8


def page_checksum(raw: bytes) -> int:
    """CRC32 over a page image, excluding the header's checksum field.

    Never returns 0: a stored 0 is a page that was never written.
    """
    view = memoryview(raw)      # CRC32 reads the two spans in place
    crc = zlib.crc32(view[:CHECKSUM_OFFSET])
    crc = zlib.crc32(view[CHECKSUM_OFFSET + CHECKSUM_SIZE:], crc)
    return crc or 1


def stamp_checksum(raw: bytes) -> bytes:
    """Return ``raw`` with its header CRC32 field filled in (one copy)."""
    view = memoryview(raw)
    return b"".join((
        view[:CHECKSUM_OFFSET],
        page_checksum(raw).to_bytes(CHECKSUM_SIZE, "big"),
        view[CHECKSUM_OFFSET + CHECKSUM_SIZE:],
    ))


def verify_checksum(raw: bytes, page_id: int) -> None:
    """Raise :exc:`ChecksumError` unless ``raw`` is a stamped image or all zeros.

    A stored CRC of 0 passes only on a never-written page; on any other
    image it is damage (a zeroed header field, or a torn write).
    """
    stored = int.from_bytes(
        raw[CHECKSUM_OFFSET : CHECKSUM_OFFSET + CHECKSUM_SIZE], "big"
    )
    if stored == 0 and not any(raw):
        return
    computed = page_checksum(raw)
    if stored != computed:
        raise ChecksumError(
            f"page {page_id}: stored CRC32 {stored:#010x} does not match "
            f"the page image (torn write or bit-rot)",
            page_id=page_id,
            stored_crc=stored,
            computed_crc=computed,
            page_lsn=int.from_bytes(raw[_LSN_OFFSET : _LSN_OFFSET + 8], "big"),
        )


class RetryPolicy:
    """Bounded retry with deterministic, seeded exponential backoff.

    Only :class:`~repro.errors.TransientIOError` is retried — it is the one
    failure class a repeat attempt may clear (a permanent media error would
    fail again and is the repair subsystem's job instead).  Backoff is
    counted in abstract *steps* (1, 2, 4, … doubling per attempt, with a
    seeded jitter draw), never wall-clock sleeps: the simulation stays
    deterministic, and the cost model can price a step however it likes.
    """

    def __init__(self, max_attempts: int = 4, *, seed: int = 0) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        self.max_attempts = max_attempts
        self.rng = random.Random(seed)

    def backoff_steps(self, attempt: int) -> int:
        """Steps to back off after failed attempt ``attempt`` (1-based)."""
        ceiling = 1 << (attempt - 1)
        return ceiling + self.rng.randrange(ceiling)


@dataclass
class DiskStats:
    """Physical I/O counters (monotonic)."""

    reads: int = 0
    writes: int = 0
    sequential_reads: int = 0
    sequential_writes: int = 0
    allocations: int = 0
    free_reuses: int = 0        # allocations served from the free list
    read_retries: int = 0       # transient read errors absorbed by retry
    write_retries: int = 0      # transient write errors absorbed by retry
    backoff_steps: int = 0      # abstract backoff units spent across retries
    verify_failures: int = 0    # write read-back mismatches (torn/dropped)

    @property
    def random_reads(self) -> int:
        return self.reads - self.sequential_reads

    @property
    def random_writes(self) -> int:
        return self.writes - self.sequential_writes


class PageStore:
    """Fixed-size pages addressed by integer page id, on one device.

    Every write stamps the page's CRC32 into its header and every read
    verifies it (:func:`verify_checksum`).  Page id 0 (``META_PAGE_ID``)
    always exists and holds the database boot block; :meth:`allocate` hands
    out ids 1, 2, 3, …
    """

    def __init__(
        self, device: Device | None = None, page_size: int = PAGE_SIZE
    ) -> None:
        self.device: Device = MemoryDevice() if device is None else device
        self.page_size = page_size
        self.stats = DiskStats()
        self.retry: RetryPolicy | None = None   # opt-in transient-error retry
        self.verify_writes = False   # opt-in: read back and compare each write
        # Ids to reuse, smallest first, before the store grows; each freed
        # by a durable record, and restart derives the set from the log.
        self.free_list: set[int] = set()
        self._last_read_pid = -2
        self._last_write_pid = -2
        self._open()

    def _open(self) -> None:
        size = self.device.size
        if size % self.page_size:
            raise StorageError(f"device size {size} is not a page multiple")
        if not size:
            self.device.truncate(self.page_size)    # the meta page
        self._next_pid = max(1, size // self.page_size)

    def crash(self) -> None:
        """Reopen from what the device kept; restart rebuilds the free list."""
        self._open()

    # -- interface -----------------------------------------------------------

    def read_page(self, page_id: int) -> bytes:
        raw = self._read_retrying(page_id)
        verify_checksum(raw, page_id)
        self.stats.reads += 1
        if page_id == self._last_read_pid + 1:
            self.stats.sequential_reads += 1
        self._last_read_pid = page_id
        return raw

    def _read_retrying(self, page_id: int) -> bytes:
        attempts = self.retry.max_attempts if self.retry else 1
        for attempt in range(1, attempts + 1):
            try:
                return self._read(page_id)
            except TransientIOError as exc:
                exc.page_id = page_id   # the device knows offsets, not pages
                if attempt == attempts:
                    raise
                self.stats.read_retries += 1
                self.stats.backoff_steps += self.retry.backoff_steps(attempt)
        raise AssertionError("unreachable")  # pragma: no cover

    def write_page(self, page_id: int, raw: bytes) -> None:
        if len(raw) != self.page_size:
            raise StorageError(
                f"page image is {len(raw)} bytes, page size is {self.page_size}"
            )
        fire("disk.write_page")
        raw = stamp_checksum(raw)
        # Verification without at least one rewrite attempt would detect torn
        # and dropped writes but be unable to do anything about them, so
        # verify_writes alone grants a single retry.
        if self.retry is not None:
            attempts = self.retry.max_attempts
        else:
            attempts = 2 if self.verify_writes else 1
        for attempt in range(1, attempts + 1):
            try:
                self._write(page_id, raw)
            except TransientIOError as exc:
                exc.page_id = page_id
                if attempt == attempts:
                    raise
                self.stats.write_retries += 1
                if self.retry is not None:
                    self.stats.backoff_steps += self.retry.backoff_steps(attempt)
                continue
            if not self.verify_writes:
                break
            try:
                landed = self._read(page_id)
            except StorageError:
                landed = None
            if landed == raw:
                break
            # Torn or dropped write: the image on the platter is not what we
            # sent.  Rewrite while we still hold the good bytes; if every
            # attempt tears, leave it — the read path / scrubber repairs it.
            self.stats.verify_failures += 1
        self.stats.writes += 1
        if page_id == self._last_write_pid + 1:
            self.stats.sequential_writes += 1
        self._last_write_pid = page_id

    def allocate(self) -> int:
        self.stats.allocations += 1
        if self.free_list:
            pid = min(self.free_list)
            self.free_list.remove(pid)
            self.stats.free_reuses += 1
            return pid
        pid = self._next_pid
        self.device.truncate((pid + 1) * self.page_size)
        self._next_pid += 1
        return pid

    def extend(self, page_count: int) -> None:
        """Cover ids below ``page_count`` (growth a power loss took back)."""
        self._next_pid = max(self._next_pid, page_count)

    @property
    def page_count(self) -> int:
        return self._next_pid

    def exists(self, page_id: int) -> bool:
        return 0 <= page_id < self._next_pid

    def sync(self) -> None:
        """Make every page written so far survive a power loss."""
        self.device.sync()

    def close(self) -> None:
        """Sync and release the device (idempotent)."""
        self.device.sync()
        self.device.close()

    # -- the device ------------------------------------------------------------

    def _read(self, page_id: int) -> bytes:
        if not self.exists(page_id):
            raise PageNotFoundError(f"page {page_id} does not exist")
        raw = self.device.read(self.page_size, page_id * self.page_size)
        return raw.ljust(self.page_size, b"\0")   # short past a lost growth

    def _write(self, page_id: int, raw: bytes) -> None:
        if not self.exists(page_id):
            raise PageNotFoundError(f"page {page_id} was never allocated")
        self.device.write(raw, page_id * self.page_size)
