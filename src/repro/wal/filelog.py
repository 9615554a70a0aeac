"""A file-backed log manager: durability across process restarts.

:class:`~repro.wal.log.LogManager` keeps the log in memory, which is ideal
for tests and benchmarks (its ``crash()`` models lost unforced records
exactly).  :class:`FileLogManager` extends it with a real log file:

* appends stay in memory; the *sync* stage of ``force`` frames, writes and
  fsyncs the records appended since the last one, and ``flushed_lsn`` only
  ever advances over fsynced frames;
* each on-disk frame is ``length(4) + crc32(4) + record bytes``, so a torn
  or bit-garbled tail is *detected*, not just guessed at: the load scan
  stops at the first frame whose length is implausible, whose CRC32
  mismatches, or whose record bytes fail to decode;
* the master checkpoint LSN lives in a small side file, written atomically
  (the "durable master record" a real engine keeps in the log header);
* opening an existing path replays the file into memory — a process that
  died without a clean shutdown recovers by running the normal
  analysis/redo/undo over the reloaded log.

A torn tail (a partially-written final record after a real OS crash) is
truncated on load, mirroring how real log scans stop at the first
malformed record.
"""

from __future__ import annotations

import os
import struct
import zlib

from repro.errors import LogFormatError, WALError
from repro.faults.failpoints import fire
from repro.wal.log import LogManager, _NO_MUTEX
from repro.wal.records import LogRecord

_FRAME = struct.Struct(">II")   # length, crc32 of the record bytes


class FileLogManager(LogManager):
    """LogManager whose durable prefix lives in a real file."""

    FRAME_BYTES = _FRAME.size   # keeps LSN arithmetic equal to file offsets

    def __init__(self, path: str | os.PathLike) -> None:
        super().__init__()
        self.path = os.fspath(path)
        self._master_path = self.path + ".master"
        preexisting = os.path.exists(self.path)
        if preexisting:
            self._load()
            self._file = open(self.path, "r+b")
            self._file.seek(0, os.SEEK_END)
        else:
            self._file = open(self.path, "w+b")
            self._file.write(bytes(self.HEADER_BYTES))
            self._file.flush()
        self._written = len(self._raws)   # records already in the file

    # -- loading ---------------------------------------------------------------

    def _load(self) -> None:
        with open(self.path, "rb") as fh:
            data = fh.read()
        if len(data) < self.HEADER_BYTES:
            raise WALError(f"{self.path}: shorter than the log header")
        offset = self.HEADER_BYTES
        while offset + self.FRAME_BYTES <= len(data):
            length, crc = _FRAME.unpack_from(data, offset)
            end = offset + self.FRAME_BYTES + length
            if length == 0 or end > len(data):
                break  # torn tail: stop at the first malformed frame
            raw = data[offset + self.FRAME_BYTES : end]
            if zlib.crc32(raw) != crc:
                break  # garbled frame: the CRC catches bit damage too
            try:
                LogRecord.decode(raw)
            except LogFormatError:
                break
            self._lsns.append(offset)
            self._raws.append(raw)
            offset = end
        self._end_lsn = self._synced_lsn = self._flushed_lsn = offset
        if offset < len(data):
            # Truncate the torn tail so appends continue cleanly.
            with open(self.path, "r+b") as fh:
                fh.truncate(offset)
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
            self._file.write(data)
            # Advanced only once written: a failed write leaves its records
            # for the next force.
            self._written = count
        self._file.flush()
        fire("filelog.fsync")
        os.fsync(self._file.fileno())
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
        super().crash()
        self._written = len(self._raws)
        # A crash inside a force can leave frames in the file that were
        # never published as durable; drop them with the in-memory suffix
        # so file offsets keep matching LSNs.
        self._file.truncate(self._flushed_lsn)
        self._file.seek(0, os.SEEK_END)

    def close(self) -> None:
        """Release underlying resources (idempotent)."""
        if not self._file.closed:
            self.force()
            self._file.close()
