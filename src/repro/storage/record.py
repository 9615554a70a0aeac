"""Record versions: the on-page record layout of Figure 1.

A record image is::

    flags        1 byte    (RecordFlag bits: delete stub, VP-in-history)
    key_len      2 bytes
    payload_len  2 bytes
    key          key_len bytes   (binary-comparable primary key image)
    payload      payload_len bytes
    --- 14-byte versioning tail (Figure 1b) ---
    VP           2 bytes   pointer to the previous version of the record
    Ttime        8 bytes   commit time of the writer, or its TID while
                           the record is not yet timestamped (high bit set)
    SN           4 bytes   sequence-number extension of the timestamp

The versioning tail reuses the same 14 bytes SQL Server spends on snapshot-
isolation versioning, so conventional tables pay no extra record overhead —
we keep that property by giving every record the tail regardless of whether
its table is immortal.

``VP`` is an *intra-page* pointer: the index of the previous version within
the same page's version area.  After a time split moves older versions to a
history page, ``VP`` holds the **slot number in the history page** instead
and the ``VP_IN_HISTORY`` flag is set (the page header's history pointer
identifies which page that is) — exactly the scheme of Section 3.1.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.clock import TID_FLAG, Timestamp, encode_tid_field, field_tid
from repro.errors import PageFormatError
from repro.storage.constants import (
    DELETE_STUB,
    NO_PREVIOUS,
    VERSIONING_TAIL_SIZE,
    VP_IN_HISTORY,
)

RECORD_OVERHEAD = 1 + 2 + 2 + VERSIONING_TAIL_SIZE  # flags + lengths + tail

RECORD_HEAD = struct.Struct(">BHH")   # flags, key_len, payload_len
RECORD_TAIL = struct.Struct(">HQI")   # vp, ttime_field, sn
# One record's tail and the next record's head, read by one unpack.
_RECORD_STEP = struct.Struct(">HQIBHH")


@dataclass(slots=True)
class RecordVersion:
    """One version of one record, as stored in a page.

    Instances are mutable in exactly two ways after creation: lazy
    timestamping replaces a TID-marked ``ttime_field`` with the commit
    timestamp (:meth:`stamp`), and page splits rewrite ``vp``/``flags`` when
    chains are relinked.  Payload and key never change — updates create a
    *new* version (§1.2: old versions are immortal).
    """

    key: bytes
    payload: bytes
    flags: int = 0
    vp: int = NO_PREVIOUS
    ttime_field: int = 0
    sn: int = 0

    # -- classification ------------------------------------------------------

    @property
    def is_delete_stub(self) -> bool:
        return self.flags & DELETE_STUB != 0

    @property
    def vp_in_history(self) -> bool:
        return self.flags & VP_IN_HISTORY != 0

    @property
    def has_previous(self) -> bool:
        return self.vp != NO_PREVIOUS

    @property
    def is_timestamped(self) -> bool:
        """True once the Ttime field holds a real commit time, not a TID."""
        return not self.ttime_field & TID_FLAG

    @property
    def tid(self) -> int:
        """The writer's TID (only valid while not yet timestamped)."""
        return field_tid(self.ttime_field)

    @property
    def timestamp(self) -> Timestamp:
        """The version's start time (only valid once timestamped)."""
        if self.ttime_field & TID_FLAG:
            raise ValueError(
                f"record for key {self.key!r} is not timestamped yet "
                f"(TID {field_tid(self.ttime_field)})"
            )
        return Timestamp(self.ttime_field, self.sn)

    # -- mutation ------------------------------------------------------------

    @classmethod
    def new(
        cls,
        key: bytes,
        payload: bytes,
        tid: int,
        *,
        delete_stub: bool = False,
    ) -> "RecordVersion":
        """Create a fresh, not-yet-timestamped version written by ``tid``."""
        if delete_stub:
            return cls(key, b"", DELETE_STUB, NO_PREVIOUS, encode_tid_field(tid), 0)
        return cls(key, payload, 0, NO_PREVIOUS, encode_tid_field(tid), 0)

    def stamp(self, ts: Timestamp) -> None:
        """Replace the TID marking with the transaction's commit timestamp."""
        if not self.ttime_field & TID_FLAG:
            raise ValueError(f"record for key {self.key!r} is already timestamped")
        self.ttime_field = ts.ttime
        self.sn = ts.sn

    def copy(self) -> "RecordVersion":
        """A detached copy (used when a time split replicates spanning versions)."""
        return RecordVersion(
            self.key, self.payload, self.flags, self.vp, self.ttime_field, self.sn
        )

    # -- sizing / codec ------------------------------------------------------

    @property
    def size_on_page(self) -> int:
        """Bytes this version occupies in a page's record area."""
        return RECORD_OVERHEAD + len(self.key) + len(self.payload)

    def to_bytes(self) -> bytes:
        """Serialize to the fixed-size on-disk image."""
        if len(self.key) > 0xFFFF or len(self.payload) > 0xFFFF:
            raise PageFormatError("key or payload exceeds 64 KiB record limit")
        return b"".join(
            (
                RECORD_HEAD.pack(self.flags, len(self.key), len(self.payload)),
                self.key,
                self.payload,
                RECORD_TAIL.pack(self.vp, self.ttime_field, self.sn),
            )
        )

    @classmethod
    def from_bytes(
        cls, data: bytes | memoryview, offset: int = 0
    ) -> tuple["RecordVersion", int]:
        """Decode one record image at ``offset``; return (record, next_offset)."""
        versions, end = decode_versions(data, offset, 1)
        return versions[0], end


def decode_versions(
    data: bytes | memoryview, offset: int, count: int
) -> tuple[list[RecordVersion], int]:
    """Bulk-decode ``count`` consecutive record images starting at ``offset``.

    This is the hot loop of every page reload, which eviction pressure turns
    into a per-operation cost: one ``unpack_from`` per record reads its tail
    and the next record's head together (:data:`_RECORD_STEP`), a single
    try/except covers the loop instead of one per record, and each key and
    payload is sliced straight out of the image — one ``bytes`` copy, which
    it needs anyway: they outlive the page image.

    Truncation is caught by the unpacks: slicing past the end *clamps*
    silently, but every record's tail sits behind both of its
    variable-length fields, so its unpack — fused with the next head for
    all but the last record, alone for the last — raises for any record the
    image does not hold whole.
    """
    if type(data) is not bytes:
        data = bytes(data)      # slices below must be bytes, not views
    versions: list[RecordVersion] = []
    if not count:
        return versions, offset
    append = versions.append
    step = _RECORD_STEP.unpack_from
    head_size = RECORD_HEAD.size
    tail_size = RECORD_TAIL.size
    make = RecordVersion
    try:
        flags, key_len, payload_len = RECORD_HEAD.unpack_from(data, offset)
        for _ in range(count - 1):
            body = offset + head_size
            split = body + key_len
            tail = split + payload_len
            vp, ttime_field, sn, next_flags, key_len, payload_len = step(data, tail)
            append(make(data[body:split], data[split:tail],
                        flags, vp, ttime_field, sn))
            flags = next_flags
            offset = tail + tail_size
        body = offset + head_size
        split = body + key_len
        tail = split + payload_len
        vp, ttime_field, sn = RECORD_TAIL.unpack_from(data, tail)
        append(make(data[body:split], data[split:tail], flags, vp, ttime_field, sn))
    except struct.error as exc:
        raise PageFormatError("truncated record image") from exc
    return versions, tail + tail_size
