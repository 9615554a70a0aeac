"""Append-only archive store: a sequence of block frames.

A history page is immutable the moment it exists (the paper's time split,
§3.3), so the store never rewrites, moves or indexes anything: it is one
append-only sequence of :mod:`repro.storage.framing` frames, one archived
page each, and **a block's position in that sequence is its ref** — the
number a TSB-tree page header stores under ``ARCHIVE_PID_BIT``.  A frame's
payload is the page's ``used_bytes`` (4 bytes, so the pre-compression size
survives reopen) followed by the compressed block of
:mod:`repro.archive.delta`.

The store is WAL-shaped: :meth:`append_block` only buffers and returns the
position, :meth:`sync` writes the buffered frames to the device behind
those already there and syncs it, and a crash loses the buffer — the store
is opened again on its :mod:`repro.storage.device` and keeps the frames
the device kept.

Positions are stable across reopen because the durable prefix is
immutable: the opening scan stops at the first torn or corrupt frame, as
the WAL's does, and truncates the device there so later appends continue
the clean prefix.  A block appended but never linked (the migration
protocol links a page to a position only after the sync, see
:mod:`repro.archive.manager`) is an orphan nothing reads.
"""

from __future__ import annotations

import struct

from repro.errors import StorageError
from repro.storage.device import Device, MemoryDevice
from repro.storage.framing import frame, scan

_RAW_BYTES = struct.Struct(">I")    # leads every payload: the page's used_bytes


class ArchiveStoreError(StorageError):
    """The archive store has no block at the position asked for."""


class ArchiveStore:
    """The block sequence on a device (in memory if none is given)."""

    def __init__(self, device: Device | None = None) -> None:
        self.device: Device = MemoryDevice() if device is None else device
        _, payloads, self._end = scan(self.device.read(self.device.size, 0))
        # (used_bytes of the archived page, its compressed block), by position
        self._blocks: list[tuple[int, bytes]] = [
            (_RAW_BYTES.unpack_from(p)[0], p[_RAW_BYTES.size :]) for p in payloads
        ]
        self._unsynced: list[bytes] = []    # their frames, not yet written
        if self._end < self.device.size:    # appends continue the clean prefix
            self.device.truncate(self._end)

    def append_block(self, blob: bytes, raw_bytes: int) -> int:
        """Buffer one block (``raw_bytes`` before compression); returns its
        position."""
        self._blocks.append((raw_bytes, blob))
        self._unsynced.append(frame(_RAW_BYTES.pack(raw_bytes) + blob))
        return len(self._blocks) - 1

    def sync(self) -> None:
        """Make every buffered block durable."""
        if self._unsynced:
            data = b"".join(self._unsynced)
            self.device.write(data, self._end)
            self._end += len(data)
            self._unsynced.clear()
            self.device.sync()

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
        self.sync()
        self.device.close()
