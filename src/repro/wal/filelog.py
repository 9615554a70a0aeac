"""A file-backed log manager: durability across process restarts.

:class:`~repro.wal.log.LogManager` keeps the log in memory, which is ideal
for tests and benchmarks (its ``crash()`` models lost unforced records
exactly).  :class:`FileLogManager` extends it with a real log file, and the
file is the log:

* appends stay in memory until a force; its *sync* stage frames the
  records appended since the last one, writes them at their LSN (an LSN
  *is* a file offset), hands them over to the file and syncs, and
  ``flushed_lsn`` only ever advances over synced frames;
* every reader reads a written record back from the file, a chunk at a
  time, each frame's CRC32 checked (damage raises ``LogFormatError``);
* the file grows in zero-filled extents of :data:`EXTENT_BYTES`, ahead of
  the log, so a force overwrites bytes the file already has: it changes no
  size and allocates nothing, and ``fdatasync`` has no metadata to commit.
  Everything past the end of the log is zero (the *zero-tail invariant*);
* each on-disk frame is ``length(4) + crc32(4) + record bytes``
  (:mod:`repro.storage.framing`), so a torn or bit-garbled tail is
  *detected*, not just guessed at: the load scan stops at the first frame
  whose length is zero or implausible, whose CRC32 mismatches, or whose
  record bytes fail to decode;
* the master checkpoint LSN lives in a small side device, replaced
  atomically (the "durable master record" a real engine keeps in the log
  header);
* opening scans the device a chunk at a time for its clean prefix — a
  process that died without a clean shutdown recovers by running the
  normal analysis/redo/undo over the file.

Both are devices (:mod:`repro.storage.device`), and a crash is a reopen:
the unwritten tail is lost and the load scan runs again over what the
device kept.  A torn tail is zeroed on load, every non-zero byte past the
last good frame: a frame of that force that did land behind the torn one
must not come back to life when later, shorter appends end where it
starts.  A log written before extents existed opens the same.
"""

from __future__ import annotations

import os
import zlib

from repro.errors import LogFormatError, WALError
from repro.faults.failpoints import fire
from repro.storage.device import Device, FileDevice, MemoryDevice
from repro.storage.framing import CHUNK_BYTES, HEADER as _FRAME, scan_chunks
from repro.wal.log import LogManager
from repro.wal.records import LogRecord

EXTENT_BYTES = 256 * 1024
"""The file grows by whole zero-filled extents of this size.

Zero-*filled*, not merely allocated: a write into an allocated-but-unwritten
extent still journals the extent's conversion, which is the cost this
avoids.  The zeros reach the device with the first force into the extent.
"""

_ZEROS = bytes(32 * 1024)     # written in pieces: no extent-sized buffer


def _decodes(raw: bytes) -> bool:
    """The load scan's test of a frame the CRC passed: is it a log record?"""
    try:
        LogRecord.decode(raw)
    except LogFormatError:
        return False
    return True


class FileLogManager(LogManager):
    """LogManager whose durable prefix lives on ``device``, its master
    record on ``master`` (in memory if not given); a path opens both as
    files, the master's at ``<path>.master``."""

    FRAME_BYTES = _FRAME.size   # keeps LSN arithmetic equal to file offsets

    def __init__(
        self, device: Device | str | os.PathLike, master: Device | None = None,
    ) -> None:
        super().__init__()
        if isinstance(device, (str, os.PathLike)):
            path = os.fspath(device)
            device, master = FileDevice(path), FileDevice(path + ".master")
        self.device = device
        self.master = master if master is not None else MemoryDevice()
        self.path = getattr(device, "path", "log")
        try:
            self._open()
        except BaseException:
            self.device.close()
            raise

    # -- loading ---------------------------------------------------------------

    def _open(self) -> None:
        """Load what the device holds: its clean prefix and the master.  A
        crash runs this again (:meth:`LogManager.crash`)."""
        if not self.device.size:
            self._reserved = 0
            self._reserve(self.HEADER_BYTES)
        read, size = self.device.read, self.device.size
        if size < self.HEADER_BYTES:
            raise WALError(f"{self.path}: shorter than the log header")
        end, count = self.HEADER_BYTES, 0
        for lsn, raw in scan_chunks(read, end, size, _decodes):
            end, count = lsn + self.FRAME_BYTES + len(raw), count + 1
        self.end_lsn = self._synced_lsn = self.flushed_lsn = end
        self._written_lsn, self._written_records = end, count
        self._reserved = size
        if any(read(CHUNK_BYTES, at).strip(b"\x00")
               for at in range(end, size, CHUNK_BYTES)):
            # Restore the zero tail now, durably, before any append can
            # line up with a stale frame in it.
            self._zero(end, size - end)
            self.device.sync()
        master = int.from_bytes(self.master.read(8, 0), "big")
        self._master_checkpoint_lsn = master if master < self.flushed_lsn else 0

    # -- reading -----------------------------------------------------------------

    def _read_device(self, lsn, upto):
        stop = yield from scan_chunks(self.device.read, lsn, upto)
        if stop < upto:     # at a frame the scan distrusts, inside the log
            raise LogFormatError(f"{self.path}: damaged log frame at LSN {stop}")

    # -- appending / forcing ---------------------------------------------------------

    # Appending and the staged force are the base class's; only the device
    # write differs.  The names stay bound here because tracing tools wrap
    # the ``append`` and ``force`` of each class they name.
    append = LogManager.append
    force = LogManager.force

    def _zero(self, offset: int, length: int) -> None:
        for at in range(offset, offset + length, len(_ZEROS)):
            self.device.write(_ZEROS[: offset + length - at], at)

    def _reserve(self, upto: int) -> None:
        """Zero-fill whole extents until the file covers ``[0, upto)``."""
        if upto > self._reserved:
            grow = -(-(upto - self._reserved) // EXTENT_BYTES) * EXTENT_BYTES
            self._zero(self._reserved, grow)
            self._reserved += grow

    def _write_out(self) -> int:
        with self.mutex:
            unwritten = list(self._raws)
            upto = self.end_lsn
        if unwritten:
            crc32 = zlib.crc32
            data = b"".join(
                [_FRAME.pack(len(raw), crc32(raw)) + raw for raw in unwritten]
            )
            fire("filelog.write")
            self._reserve(upto)
            # Positional: a write that failed part-way is overwritten in
            # place by the retry, so file offsets keep matching LSNs.
            self.device.write(data, upto - len(data))
            # The hand-over, only once written (a failed write leaves its
            # records for the next force): from here on the file has them.
            count = len(unwritten)
            with self.mutex:
                del self._lsns[:count]
                del self._raws[:count]
                self._written_lsn = upto
                self._written_records += count
        fire("filelog.fsync")
        self.device.sync()
        return upto

    def set_master_checkpoint(self, lsn: int) -> None:
        super().set_master_checkpoint(lsn)
        self.master.replace(lsn.to_bytes(8, "big"))

    # -- close -----------------------------------------------------------------------

    def close(self) -> None:
        """Force the tail and release the devices (idempotent)."""
        self.force()
        self.device.close()
        self.master.close()
