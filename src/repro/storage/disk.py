"""Page stores: the "disk" under the buffer pool, with physical I/O accounting.

Two implementations share one interface:

* :class:`InMemoryDisk` — a dict of page images.  Fast, and still *durable*
  in the simulation's sense: a crash discards the buffer pool and all
  volatile state, never the disk.
* :class:`FileDisk` — a real file of 8 KB pages, for examples that want an
  artifact on disk and for testing the codec end-to-end.

Every read/write is classified as *sequential* (page id adjacent to the last
I/O) or *random*; the benchmark cost model converts these counts into
simulated milliseconds, which is how we reproduce the paper's latency shapes
without the authors' 2005 hardware.
"""

from __future__ import annotations

import os
import random
import zlib
from dataclasses import dataclass, fields

from repro.errors import (
    ChecksumError,
    PageNotFoundError,
    StorageError,
    TransientIOError,
)
from repro.faults.failpoints import fire
from repro.storage.constants import (
    CHECKSUM_OFFSET,
    CHECKSUM_SIZE,
    META_PAGE_ID,
    PAGE_SIZE,
)

# Byte offset of the 8-byte LSN in the common page header (see
# Page._COMMON_HEADER: page_id(4) | type(1) | flags(1) | pad(2) | lsn(8)).
_LSN_OFFSET = 8


def page_checksum(raw: bytes) -> int:
    """CRC32 over a page image, excluding the header's checksum field.

    Never returns 0 — that value is reserved for "no checksum stamped", so
    images written before checksums were enabled stay readable.
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
    """Raise :exc:`ChecksumError` if a stamped image fails verification."""
    stored = int.from_bytes(
        raw[CHECKSUM_OFFSET : CHECKSUM_OFFSET + CHECKSUM_SIZE], "big"
    )
    if stored == 0:
        return  # written before checksums were enabled
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


def pwrite_all(fd: int, data: bytes, offset: int) -> None:
    """One positional write; a short one (rare on a regular file) goes on
    where it stopped, so what is in the file stays at the offset asked."""
    done = os.pwrite(fd, data, offset)
    while done < len(data):
        done += os.pwrite(fd, memoryview(data)[done:], offset + done)


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
    """Physical I/O counters (monotonic; take deltas across an experiment)."""

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

    def snapshot(self) -> "DiskStats":
        """An independent copy of the current counter values."""
        return DiskStats(**{f.name: getattr(self, f.name) for f in fields(self)})

    def delta(self, since: "DiskStats") -> "DiskStats":
        """Elementwise difference against an earlier snapshot."""
        return DiskStats(
            **{
                f.name: getattr(self, f.name) - getattr(since, f.name)
                for f in fields(self)
            }
        )


class PageStore:
    """Abstract page store: fixed-size pages addressed by integer page id.

    Page id 0 (:data:`META_PAGE_ID`) always exists and holds the database
    boot block; :meth:`allocate` hands out ids 1, 2, 3, …
    """

    def __init__(self, page_size: int = PAGE_SIZE) -> None:
        self.page_size = page_size
        self.stats = DiskStats()
        self.checksums = False   # opt-in: stamp on write, verify on read
        self.retry: RetryPolicy | None = None   # opt-in transient-error retry
        self.verify_writes = False   # opt-in: read back and compare each write
        # Opt-in page reuse: the archive manager installs a PageFreeList
        # here when cold-history tiering reclaims migrated pages; allocate()
        # then prefers a reclaimed id over growing the store.
        self.free_list = None
        self._last_read_pid = -2
        self._last_write_pid = -2

    # -- interface -----------------------------------------------------------

    def read_page(self, page_id: int) -> bytes:
        raw = self._read_retrying(page_id)
        if self.checksums:
            verify_checksum(raw, page_id)
        self.stats.reads += 1
        if page_id == self._last_read_pid + 1:
            self.stats.sequential_reads += 1
        self._last_read_pid = page_id
        return raw

    def _read_retrying(self, page_id: int) -> bytes:
        if self.retry is None:
            return self._read(page_id)
        for attempt in range(1, self.retry.max_attempts + 1):
            try:
                return self._read(page_id)
            except TransientIOError:
                if attempt == self.retry.max_attempts:
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
        if self.checksums:
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
            except TransientIOError:
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
        if self.free_list is not None:
            pid = self.free_list.pop()
            if pid is not None:
                self.stats.free_reuses += 1
                return pid
        return self._allocate()

    @property
    def page_count(self) -> int:
        raise NotImplementedError

    def exists(self, page_id: int) -> bool:
        return 0 <= page_id < self.page_count

    def sync(self) -> None:
        """Make every page written so far survive a power loss."""

    def close(self) -> None:
        """Release underlying resources (idempotent)."""

    # -- backend hooks ---------------------------------------------------------

    def _read(self, page_id: int) -> bytes:
        raise NotImplementedError

    def _write(self, page_id: int, raw: bytes) -> None:
        raise NotImplementedError

    def _allocate(self) -> int:
        raise NotImplementedError


class InMemoryDisk(PageStore):
    """Dict-backed page store (the default for tests and benchmarks)."""

    def __init__(self, page_size: int = PAGE_SIZE) -> None:
        super().__init__(page_size)
        self._pages: dict[int, bytes] = {META_PAGE_ID: bytes(page_size)}
        self._next_pid = 1

    def _read(self, page_id: int) -> bytes:
        try:
            return self._pages[page_id]
        except KeyError:
            raise PageNotFoundError(f"page {page_id} does not exist") from None

    def _write(self, page_id: int, raw: bytes) -> None:
        if page_id >= self._next_pid and page_id != META_PAGE_ID:
            raise PageNotFoundError(f"page {page_id} was never allocated")
        self._pages[page_id] = raw

    def _allocate(self) -> int:
        pid = self._next_pid
        self._next_pid += 1
        self._pages[pid] = bytes(self.page_size)
        return pid

    @property
    def page_count(self) -> int:
        return self._next_pid


class FileDisk(PageStore):
    """File-backed page store: page *i* lives at byte offset ``i * page_size``."""

    def __init__(self, path: str | os.PathLike, page_size: int = PAGE_SIZE) -> None:
        super().__init__(page_size)
        self.path = os.fspath(path)
        preexisting = os.path.exists(self.path)
        # Unbuffered: a page moves in one positional syscall on the fd.
        self._file = open(self.path, "r+b" if preexisting else "w+b", buffering=0)
        self._fd = self._file.fileno()
        self._zeros = bytes(page_size)      # what a fresh page id holds
        if not preexisting:
            pwrite_all(self._fd, self._zeros, 0)   # the meta page
        size = os.fstat(self._fd).st_size
        if size % page_size:
            raise StorageError(f"{self.path}: size {size} not a page multiple")
        self._next_pid = max(1, size // page_size)

    def _read(self, page_id: int) -> bytes:
        if not self.exists(page_id):
            raise PageNotFoundError(f"page {page_id} does not exist")
        raw = os.pread(self._fd, self.page_size, page_id * self.page_size)
        if len(raw) != self.page_size:
            raise PageNotFoundError(f"page {page_id}: short read")
        return raw

    def _write(self, page_id: int, raw: bytes) -> None:
        if not self.exists(page_id):
            raise PageNotFoundError(f"page {page_id} was never allocated")
        pwrite_all(self._fd, raw, page_id * self.page_size)

    def _allocate(self) -> int:
        pid = self._next_pid
        pwrite_all(self._fd, self._zeros, pid * self.page_size)
        self._next_pid += 1
        return pid

    @property
    def page_count(self) -> int:
        return self._next_pid

    def sync(self) -> None:
        os.fdatasync(self._fd)

    def close(self) -> None:
        """Release underlying resources (idempotent)."""
        if not self._file.closed:
            os.fsync(self._fd)
            self._file.close()
