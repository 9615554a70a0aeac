"""Append-only archive store: a sequence of block frames.

A history page is immutable the moment it exists (the paper's time split,
§3.3), so the store never rewrites, moves or indexes anything: it is one
append-only sequence of :mod:`repro.storage.framing` frames, one archived
page each, and **a block's position in that sequence is its ref** — the
number a TSB-tree page header stores under ``ARCHIVE_PID_BIT``.  A frame's
payload is the page's ``used_bytes`` (4 bytes, so the pre-compression size
survives reopen) followed by the compressed block of
:mod:`repro.archive.delta`.

The store is WAL-shaped, with an explicit durable/unsynced boundary:

* :meth:`append_block` only buffers and returns the position;
* :meth:`sync` makes everything appended so far durable (file variant:
  write + flush + fsync);
* :meth:`crash` discards the unsynced tail, exactly like ``WriteAheadLog``
  in the fault harness.

Positions are stable across reopen because the durable prefix is
immutable: the opening scan stops at the first torn or corrupt frame, as
the WAL's does, and truncates the file there so later appends continue
the clean prefix.  A block appended but never linked (the migration
protocol links a page to a position only after the sync, see
:mod:`repro.archive.manager`) is an orphan nothing reads.
"""

from __future__ import annotations

import os
import struct

from repro.errors import StorageError
from repro.storage.framing import frame, scan

_RAW_BYTES = struct.Struct(">I")    # leads every payload: the page's used_bytes


class ArchiveStoreError(StorageError):
    """The archive store has no block at the position asked for."""


class ArchiveStore:
    """The block sequence, in-memory (``path=None``, the crash-simulation
    case) or file-backed.  ``durable_count`` marks how many blocks survive
    :meth:`crash`."""

    def __init__(self, path: str | None = None) -> None:
        self.path = path
        # (used_bytes of the archived page, its compressed block), by position
        self._blocks: list[tuple[int, bytes]] = []
        self.durable_count = 0
        self._file = None
        if path is None:
            return
        if os.path.exists(path):
            with open(path, "rb") as fh:
                data = fh.read()
            # A torn tail is ignored, like the WAL's.
            _, payloads, end = scan(data)
            self._blocks = [
                (_RAW_BYTES.unpack_from(p)[0], p[_RAW_BYTES.size :])
                for p in payloads
            ]
            self.durable_count = len(self._blocks)
            # Reopen truncated to the clean prefix so appends land after it.
            self._file = open(path, "r+b")
            self._file.truncate(end)
            self._file.seek(end)
        else:
            self._file = open(path, "w+b")

    def append_block(self, blob: bytes, raw_bytes: int) -> int:
        """Buffer one block (``raw_bytes`` before compression); returns its
        position."""
        self._blocks.append((raw_bytes, blob))
        return len(self._blocks) - 1

    def sync(self) -> None:
        """Make every buffered block durable (file: write+flush+fsync)."""
        if self._file is not None and self.durable_count < len(self._blocks):
            for raw_bytes, blob in self._blocks[self.durable_count :]:
                self._file.write(frame(_RAW_BYTES.pack(raw_bytes) + blob))
            self._file.flush()
            os.fsync(self._file.fileno())
        self.durable_count = len(self._blocks)

    def crash(self) -> None:
        """Simulate power loss: drop the unsynced tail."""
        del self._blocks[self.durable_count :]

    def read_block(self, position: int) -> bytes:
        """The compressed block at ``position`` (durable or still buffered)."""
        if not 0 <= position < len(self._blocks):
            raise ArchiveStoreError(f"archive block {position} does not exist")
        return self._blocks[position][1]

    def __len__(self) -> int:
        return len(self._blocks)

    @property
    def raw_bytes(self) -> int:
        """Pre-compression bytes of every block."""
        return sum(raw_bytes for raw_bytes, _ in self._blocks)

    @property
    def stored_bytes(self) -> int:
        """Compressed bytes of every block."""
        return sum(len(blob) for _, blob in self._blocks)

    def close(self) -> None:
        if self._file is not None:
            self.sync()
            self._file.close()
            self._file = None
