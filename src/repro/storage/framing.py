"""The one frame: ``length(4) | crc32(4) | payload``, big-endian.

Three byte sequences in this repo are runs of these frames: the file WAL
(:mod:`repro.wal.filelog`, a frame per log record, addressed by file
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
from typing import Callable

HEADER = struct.Struct(">II")   # payload length, crc32(payload)


def frame(payload: bytes) -> bytes:
    """``payload`` behind its length + CRC32 header."""
    return HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def scan(
    data: bytes, offset: int = 0,
    accept: Callable[[bytes], bool] | None = None,
) -> tuple[list[int], list[bytes], int]:
    """The intact frames of ``data`` from ``offset`` on.

    Returns (offset of each frame, its payload, offset just past the last
    one).  The scan stops for good at the first frame it cannot trust — a
    header cut short, a zero length (the preallocated tail of a log), a
    length that runs past the image, a CRC32 mismatch (bit damage as well
    as a torn write), or a payload ``accept`` turns down — because past a
    bad length there is no telling where the next frame starts.
    """
    offsets: list[int] = []
    payloads: list[bytes] = []
    size = HEADER.size
    while offset + size <= len(data):
        length, crc = HEADER.unpack_from(data, offset)
        end = offset + size + length
        if length == 0 or end > len(data):
            break
        payload = data[offset + size : end]
        if zlib.crc32(payload) != crc:
            break
        if accept is not None and not accept(payload):
            break
        offsets.append(offset)
        payloads.append(payload)
        offset = end
    return offsets, payloads, offset
