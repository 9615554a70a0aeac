"""A file-backed log manager: durability across process restarts.

:class:`~repro.wal.log.LogManager` keeps the log in memory, which is ideal
for tests and benchmarks (its ``crash()`` models lost unforced records
exactly).  :class:`FileLogManager` extends it with a real log file:

* appends stay in memory; the *sync* stage of ``force`` frames the records
  appended since the last one, writes them at their LSN (an LSN *is* a file
  offset) and syncs, and ``flushed_lsn`` only ever advances over synced
  frames;
* the file grows in zero-filled extents of :data:`EXTENT_BYTES`, ahead of
  the log, so a force overwrites bytes the file already has: it changes no
  size and allocates nothing, and ``fdatasync`` has no metadata to commit.
  Everything past the end of the log is zero (the *zero-tail invariant*);
* each on-disk frame is ``length(4) + crc32(4) + record bytes``
  (:mod:`repro.storage.framing`), so a torn or bit-garbled tail is
  *detected*, not just guessed at: the load scan stops at the first frame
  whose length is zero or implausible, whose CRC32 mismatches, or whose
  record bytes fail to decode;
* the master checkpoint LSN lives in a small side file, written atomically
  (the "durable master record" a real engine keeps in the log header);
* opening an existing path replays the file into memory — a process that
  died without a clean shutdown recovers by running the normal
  analysis/redo/undo over the reloaded log.

A torn tail (a partially-written final force after a real OS crash) is
zeroed on load, every non-zero byte past the last good frame: a frame of
that force that did land behind the torn one must not come back to life
when later, shorter appends happen to end where it starts.  A log written
before extents existed simply ends at its end of log and opens the same.
"""

from __future__ import annotations

import os
import zlib

from repro.errors import LogFormatError, WALError
from repro.faults.failpoints import fire
from repro.storage.disk import pwrite_all
from repro.storage.framing import HEADER as _FRAME, scan
from repro.wal.log import LogManager, _NO_MUTEX
from repro.wal.records import LogRecord

EXTENT_BYTES = 256 * 1024
"""The file grows by whole zero-filled extents of this size.

Zero-*filled*, not merely allocated: a write into an allocated-but-unwritten
extent still journals the extent's conversion, which is the cost this
avoids.  The zeros reach the device with the first force into the extent.
"""

_ZEROS = bytes(32 * 1024)     # written in pieces: no extent-sized buffer

# macOS has no fdatasync; there the full fsync is the only barrier.
_datasync = getattr(os, "fdatasync", os.fsync)


def _decodes(raw: bytes) -> bool:
    """The load scan's test of a frame the CRC passed: is it a log record?"""
    try:
        LogRecord.decode(raw)
    except LogFormatError:
        return False
    return True


class FileLogManager(LogManager):
    """LogManager whose durable prefix lives in a real file."""

    FRAME_BYTES = _FRAME.size   # keeps LSN arithmetic equal to file offsets

    def __init__(self, path: str | os.PathLike) -> None:
        super().__init__()
        self.path = os.fspath(path)
        self._master_path = self.path + ".master"
        preexisting = os.path.exists(self.path)
        # Unbuffered: every write is one positional ``pwrite`` on the fd.
        self._file = open(self.path, "r+b" if preexisting else "w+b", buffering=0)
        self._fd = self._file.fileno()
        self._reserved = 0      # file size: zero-filled up to here
        try:
            if preexisting:
                self._load()
            else:
                self._reserve(self.HEADER_BYTES)
        except BaseException:
            self._file.close()
            raise
        self._written = len(self._raws)   # records already in the file

    # -- loading ---------------------------------------------------------------

    def _load(self) -> None:
        data = self._file.read()
        if len(data) < self.HEADER_BYTES:
            raise WALError(f"{self.path}: shorter than the log header")
        self._lsns, self._raws, end = scan(data, self.HEADER_BYTES, _decodes)
        self._end_lsn = self._synced_lsn = self._flushed_lsn = end
        self._reserved = len(data)
        debris = len(data[end:].rstrip(b"\x00"))
        if debris:
            # Restore the zero tail now, durably, before any append can
            # line up with a stale frame in it.
            self._zero(end, debris)
            os.fsync(self._fd)
        if os.path.exists(self._master_path):
            with open(self._master_path, "rb") as fh:
                master = int.from_bytes(fh.read(8), "big")
            if master and master < self._flushed_lsn:
                self._master_checkpoint_lsn = master

    # -- appending / forcing ---------------------------------------------------------

    # Appending and the staged force are the base class's; only the device
    # write differs.  The names stay bound here because tracing tools wrap
    # the ``append`` and ``force`` of each class they name.
    append = LogManager.append
    force = LogManager.force

    def _zero(self, offset: int, length: int) -> None:
        for at in range(offset, offset + length, len(_ZEROS)):
            pwrite_all(self._fd, _ZEROS[: offset + length - at], at)

    def _reserve(self, upto: int) -> None:
        """Zero-fill whole extents until the file covers ``[0, upto)``."""
        if upto > self._reserved:
            grow = -(-(upto - self._reserved) // EXTENT_BYTES) * EXTENT_BYTES
            self._zero(self._reserved, grow)
            self._reserved += grow

    def _write_out(self) -> int:
        with self.mutex or _NO_MUTEX:
            count = len(self._raws)
            unwritten = self._raws[self._written:]
            upto = self._end_lsn
        if unwritten:
            crc32 = zlib.crc32
            data = b"".join(
                [_FRAME.pack(len(raw), crc32(raw)) + raw for raw in unwritten]
            )
            fire("filelog.write")
            self._reserve(upto)
            # Positional: a write that failed part-way is overwritten in
            # place by the retry, so file offsets keep matching LSNs.
            pwrite_all(self._fd, data, upto - len(data))
            # Advanced only once written: a failed write leaves its records
            # for the next force.
            self._written = count
        fire("filelog.fsync")
        _datasync(self._fd)
        return upto

    def set_master_checkpoint(self, lsn: int) -> None:
        super().set_master_checkpoint(lsn)
        tmp = self._master_path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(lsn.to_bytes(8, "big"))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self._master_path)

    # -- crash / close -----------------------------------------------------------------

    def crash(self) -> None:
        """Simulated crash: the unforced suffix never reached the file."""
        # A crash inside a force can leave frames in the file that were
        # never published as durable; zero them as the in-memory suffix is
        # dropped, so the tail past the durable prefix is zeros again.
        # No write ever went past the end of log or the reserved extents.
        written_upto = min(self._end_lsn, self._reserved)
        super().crash()
        self._written = len(self._raws)
        if written_upto > self._flushed_lsn:
            self._zero(self._flushed_lsn, written_upto - self._flushed_lsn)

    def close(self) -> None:
        """Release underlying resources (idempotent)."""
        if not self._file.closed:
            self.force()
            self._file.close()
