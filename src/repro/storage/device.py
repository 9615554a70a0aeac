"""The one seam every durable byte passes through: a device.

A device is a flat byte image: ``read(size, offset)`` (short at the end),
``write(data, offset)`` and ``truncate(size)`` (growing with zeros),
``sync()``, ``size``, ``close()``, and ``replace(data)``, an atomic and
durable swap of the whole image for the log's master record.
:class:`MemoryDevice` keeps it in a ``bytearray``; :class:`FileDevice` in a
file, and is the only module that calls ``pread``, ``pwrite``, ``fsync``,
``fdatasync`` or ``replace`` on an engine file.

A crash keeps what the device kept: a plain device every write it
completed, like the OS after a process kill; the power-loss model
(:class:`repro.faults.models.FaultyDevice`) the image as of the last sync
plus a chosen subset of the writes since.  Each store reopens from its
device through the code that opens it.
"""

from __future__ import annotations

import os
from typing import Callable, Protocol

# macOS has no fdatasync; there the full fsync is the only barrier.
_datasync = getattr(os, "fdatasync", os.fsync)


class Device(Protocol):
    size: int

    def read(self, size: int, offset: int) -> bytes: ...
    def write(self, data: bytes, offset: int) -> None: ...
    def sync(self) -> None: ...
    def truncate(self, size: int) -> None: ...
    def replace(self, data: bytes) -> None: ...
    def close(self) -> None: ...


class MemoryDevice:
    """A device in a ``bytearray``: every write survives, nothing is synced."""

    def __init__(self) -> None:
        self._image = bytearray()

    @property
    def size(self) -> int:
        return len(self._image)

    def read(self, size: int, offset: int) -> bytes:
        return bytes(self._image[offset : offset + size])

    def write(self, data: bytes, offset: int) -> None:
        if offset > len(self._image):
            self.truncate(offset)
        self._image[offset : offset + len(data)] = data

    def truncate(self, size: int) -> None:
        del self._image[size:]
        self._image.extend(bytes(size - len(self._image)))

    def replace(self, data: bytes) -> None:
        self._image[:] = data

    def sync(self) -> None:
        pass

    close = sync


class FileDevice:
    """A device in the file at ``path`` (created empty if missing)."""

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = os.fspath(path)
        self._open()

    def _open(self) -> None:
        # Unbuffered: a read or write is one positional syscall on the fd.
        mode = "r+b" if os.path.exists(self.path) else "w+b"
        self._file = open(self.path, mode, buffering=0)
        self._fd = self._file.fileno()
        self.size = os.fstat(self._fd).st_size

    def read(self, size: int, offset: int) -> bytes:
        return os.pread(self._fd, size, offset)

    def write(self, data: bytes, offset: int) -> None:
        # A short write (rare on a regular file) goes on where it stopped,
        # so what is in the file stays at the offset asked.
        done = os.pwrite(self._fd, data, offset)
        while done < len(data):
            done += os.pwrite(self._fd, memoryview(data)[done:], offset + done)
        self.size = max(self.size, offset + done)

    def truncate(self, size: int) -> None:
        os.ftruncate(self._fd, size)
        self.size = size

    def replace(self, data: bytes) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        self._file.close()
        self._open()

    def sync(self) -> None:
        if not self._file.closed:   # closing is idempotent, so is this
            _datasync(self._fd)

    def close(self) -> None:
        """Release the descriptor (idempotent); syncing is the store's."""
        self._file.close()


#: the file of each store, beside the page file's path
SUFFIXES = {"pages": "", "log": ".log", "master": ".log.master",
            "archive": ".archive"}


def file_devices(path: str) -> Callable[[str], FileDevice]:
    """The engine's default opener for a path: one file per store."""
    return lambda name: FileDevice(path + SUFFIXES[name])
