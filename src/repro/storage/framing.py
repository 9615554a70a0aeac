"""The one frame: ``length(4) | crc32(4) | payload``, big-endian.

Three byte sequences in this repo are runs of these frames: the WAL
(:mod:`repro.wal.log`, a frame per log record, addressed by device
offset inside zero-filled extents), the archive store
(:mod:`repro.archive.store`, a frame per archived page, addressed
by position and truncated to its clean prefix on open) and the service's
wire stream (:mod:`repro.service.protocol`, unbounded, reassembled a chunk
at a time).  Addressing and lifecycle are each user's own; the format and
the scan that finds where a damaged image stops being trustworthy are here.
"""

from __future__ import annotations

import struct
import zlib
from typing import Callable, Generator

HEADER = struct.Struct(">II")   # payload length, crc32(payload)
CHUNK_BYTES = 64 * 1024         # what a file scan holds at a time


def frame(payload: bytes) -> bytes:
    """``payload`` behind its length + CRC32 header."""
    return HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def scan(
    data: bytes, offset: int = 0,
    accept: Callable[[bytes], bool] | None = None,
) -> tuple[list[int], list[bytes], int]:
    """:func:`scan_chunks` of an image in memory: (offset of each intact
    frame, its payload, offset just past the last one)."""
    frames = list(scan_chunks(
        lambda size, at: data[at : at + size], offset, len(data), accept
    ))
    offsets = [at for at, _ in frames]
    payloads = [payload for _, payload in frames]
    end = offsets[-1] + HEADER.size + len(payloads[-1]) if frames else offset
    return offsets, payloads, end


def scan_chunks(
    read: Callable[[int, int], bytes], offset: int, end: int,
    accept: Callable[[bytes], bool] | None = None, chunk: int = CHUNK_BYTES,
) -> Generator[tuple[int, bytes], None, int]:
    """``(offset, payload)`` of each intact frame of the image ``[offset,
    end)``, which ``read(size, offset)`` returns a chunk (or a longer frame)
    at a time.  It stops for good at the first frame it cannot trust — a
    header cut short, a zero length (a log's preallocated tail), a length
    past the image, a CRC32 mismatch (bit damage or a torn write), or a
    payload ``accept`` turns down: past a bad length there is no telling
    where the next frame starts.  Returns the offset it stopped at."""
    size, unpack, crc32 = HEADER.size, HEADER.unpack_from, zlib.crc32
    chunk = want = max(chunk, size)
    while True:
        data = read(min(want, end - offset), offset)
        at, limit = 0, len(data)
        while at + size <= limit:
            length, crc = unpack(data, at)
            stop = at + size + length
            if stop > limit:
                break
            payload = data[at + size : stop]
            if not length or crc32(payload) != crc or (
                    accept and not accept(payload)):
                return offset + at
            yield offset + at, payload
            at = stop
        offset += at
        if limit < want:
            return offset       # the image ends inside this chunk
        # The chunk ends inside a frame: read on from it, a whole frame.
        whole = limit - at >= size
        want = max(chunk, size + unpack(data, at)[0]) if whole else chunk
