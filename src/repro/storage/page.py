"""Slotted pages with intra-page version chains (Section 3.2, Figure 2).

A data page keeps a conventional slotted layout — header at the front, slot
array growing from the back — with two Immortal DB additions to the header:

* **history pointer**: page id of the history page holding versions that once
  lived in this page (0 = none), and
* **split time**: the start of this page's time range, i.e. the time used by
  the most recent time split (``Timestamp.MIN`` if the page never split).

Each slot points at the *newest* version of one record; older versions are
reached only through the per-record version chain (the ``VP`` fields), never
directly from the slot array, so a current-time transaction sees exactly the
records a conventional page would give it.

Pages of other types (B-tree index nodes, TSB-tree index nodes, PTT nodes)
subclass :class:`Page` and register their codec in :data:`PAGE_CODECS` so the
buffer pool can deserialize any raw page image.
"""

from __future__ import annotations

import itertools
import struct
from bisect import bisect_left
from typing import Callable

from repro.clock import TID_FLAG, Timestamp
from repro.errors import PageFormatError, PageFullError
from repro.storage.constants import (
    COMMON_HEADER_SIZE,
    DATA_HEADER_SIZE,
    NO_PAGE,
    NO_PREVIOUS,
    PAGE_SIZE,
    PageType,
    SLOT_SIZE,
    VP_IN_HISTORY,
)
from repro.storage.record import (
    RECORD_OVERHEAD,
    RecordVersion,
    decode_versions,
)


# page_id(4) type(1) flags(1) pad(2) lsn(8) CRC32-slot(4, stamped by disk)
_COMMON_HEADER = struct.Struct(">IBB2xQ4x")


class Page:
    """Base class for every page type: common header + codec registry.

    Serialization is cached: :meth:`to_bytes` re-encodes only when the page's
    mutation epoch has moved since the last encode.  The epoch advances on
    every attribute assignment (``__setattr__``) and on explicit
    :meth:`touch` calls, which callers that mutate page contents *through*
    an attribute (e.g. stamping a :class:`RecordVersion` reached via
    ``versions``) must issue — the buffer pool does this in ``mark_dirty``.
    """

    page_type: PageType = PageType.META

    # Class-level defaults so __setattr__ can read them before __init__ runs.
    _encode_epoch: int = 0
    _image: bytes | None = None
    _image_epoch: int = -1

    _CACHE_ATTRS = frozenset({"_encode_epoch", "_image", "_image_epoch"})

    # Process-wide monotonic id given to every page *object*.  A page id can
    # be re-materialized as a fresh object (buffer reload, replace_page) whose
    # epoch restarts near zero, so (page_id, epoch) alone cannot key an
    # external cache soundly; (instance_stamp, epoch) can.
    _instance_stamps = itertools.count(1)

    def __init__(self, page_id: int) -> None:
        self._instance_stamp = next(Page._instance_stamps)
        self.page_id = page_id
        self.lsn = 0            # LSN of the last log record applied (WAL rule)
        self.header_flags = 0

    @property
    def cache_token(self) -> tuple[int, int]:
        """Identity + mutation epoch: equal tokens ⇒ identical page content."""
        return (self._instance_stamp, self._encode_epoch)

    def __setattr__(self, name: str, value) -> None:
        object.__setattr__(self, name, value)
        if name not in Page._CACHE_ATTRS:
            object.__setattr__(self, "_encode_epoch", self._encode_epoch + 1)

    def touch(self) -> None:
        """Invalidate the cached image after an in-place content mutation."""
        object.__setattr__(self, "_encode_epoch", self._encode_epoch + 1)

    def to_bytes(self) -> bytes:
        """Serialize to the fixed-size on-disk image (cached per epoch)."""
        if self._image is not None and self._image_epoch == self._encode_epoch:
            return self._image
        image = self._encode()
        object.__setattr__(self, "_image", image)
        object.__setattr__(self, "_image_epoch", self._encode_epoch)
        return image

    # Every subclass must produce exactly PAGE_SIZE bytes.
    def _encode(self) -> bytes:  # pragma: no cover - abstract
        """Build the fixed-size on-disk image (uncached)."""
        raise NotImplementedError

    def _common_header(self) -> bytes:
        return _COMMON_HEADER.pack(
            self.page_id, int(self.page_type), self.header_flags, self.lsn
        )

    @staticmethod
    def read_common_header(raw: bytes) -> tuple[int, int, int, int]:
        """Return (page_id, page_type, flags, lsn) from a raw page image."""
        if len(raw) != PAGE_SIZE:
            raise PageFormatError(f"page image is {len(raw)} bytes, want {PAGE_SIZE}")
        page_id, page_type, flags, lsn = _COMMON_HEADER.unpack_from(raw, 0)
        return page_id, page_type, flags, lsn


PAGE_CODECS: dict[int, Callable[[bytes], "Page"]] = {}
"""Registry: page-type byte -> ``from_bytes`` decoder."""


def register_page_codec(page_type: PageType, decoder: Callable[[bytes], Page]) -> None:
    PAGE_CODECS[int(page_type)] = decoder


def decode_page(raw: bytes) -> Page:
    """Deserialize a raw page image, dispatching on its page-type byte."""
    _, page_type, _, _ = Page.read_common_header(raw)
    try:
        decoder = PAGE_CODECS[page_type]
    except KeyError:
        raise PageFormatError(f"unknown page type {page_type}") from None
    return decoder(raw)


# nslots(2) nversions(2) split_ts(8+4) end_ts(8+4) history(4) next_leaf(4)
# table_id(4) — the data-page header extension after the common header.
_DATA_EXT = struct.Struct(">HHQIQIIII")

_DATA_TYPES = (PageType.DATA_CURRENT, PageType.DATA_HISTORY)


def read_data_header(raw: bytes) -> tuple[bool, int, int, int] | None:
    """``(is_history, end_ts.key, history_page_id, next_leaf_id)`` of a data
    page image, read from its fixed header alone; None for any other type.

    The time range and the chain pointers live in the header (Section 3.2)
    so that a pass deciding *which* pages to open need not open them.
    """
    page_type = Page.read_common_header(raw)[1]
    if page_type not in _DATA_TYPES:
        return None
    (_, _, _, _, end_ttime, end_sn, history_page_id, next_leaf_id,
     _) = _DATA_EXT.unpack_from(raw, COMMON_HEADER_SIZE)
    return (page_type == PageType.DATA_HISTORY, end_ttime << 32 | end_sn,
            history_page_id, next_leaf_id)


# Precompiled slot-array codecs, keyed by slot count: pages cluster around a
# few fill levels, so ``struct.Struct(f">{n}H")`` compilation amortizes to
# nothing instead of re-parsing the format string on every decode.  (Only
# these: a repeat count compiles to one code.  The whole-node formats the
# page codecs pack with — one group per record or entry — compile to ~100
# bytes a group, 40 KB for a full PTT leaf; they are built per call and
# dropped, because a table of them, or ``struct``'s own cache of 100, costs
# megabytes to save a third of a call that is already ten times cheaper
# than a slice assignment per field.)
_SLOT_CODECS: dict[int, struct.Struct] = {}


def _slot_codec(nslots: int) -> struct.Struct:
    codec = _SLOT_CODECS.get(nslots)
    if codec is None:
        codec = _SLOT_CODECS[nslots] = struct.Struct(f">{nslots}H")
    return codec


def history_slot_after(chain: list[RecordVersion]) -> int | None:
    """Where a newest-first chain continues: its slot in the history page."""
    if chain and chain[-1].flags & VP_IN_HISTORY:
        return chain[-1].vp
    return None


class DataPage(Page):
    """A current or history data page holding versioned records."""

    page_type = PageType.DATA_CURRENT

    IMMORTAL_FLAG = 1  # header_flags bit: page belongs to an immortal table

    def __init__(
        self,
        page_id: int,
        *,
        is_history: bool = False,
        page_size: int = PAGE_SIZE,
        table_id: int = 0,
        immortal: bool = False,
    ) -> None:
        super().__init__(page_id)
        if is_history:
            self.page_type = PageType.DATA_HISTORY
        if immortal:
            self.header_flags |= self.IMMORTAL_FLAG
        self.table_id = table_id
        self.page_size = page_size
        # Versions live in self.versions in storage order; chains are
        # expressed by RecordVersion.vp holding *indices into this list*.
        self.versions: list[RecordVersion] = []
        # Slot array: index of the newest version of each record, sorted by
        # key so current-time range scans work exactly as in a B-tree leaf.
        self.slots: list[int] = []
        self._slot_keys: list[bytes] = []
        # Immortal DB header additions (Section 3.2):
        self.split_ts: Timestamp = Timestamp.MIN   # start of this page's time range
        self.end_ts: Timestamp = Timestamp.MAX     # exclusive end (history pages)
        self.history_page_id: int = NO_PAGE        # chain of time-split pages
        self.next_leaf_id: int = NO_PAGE           # B-tree leaf sibling chain
        self._used = DATA_HEADER_SIZE

    def sibling(self, page_id: int, *, is_history: bool | None = None) -> "DataPage":
        """An empty page of this one's table, size and (by default) kind."""
        if is_history is None:
            is_history = self.is_history
        return DataPage(
            page_id, is_history=is_history, page_size=self.page_size,
            table_id=self.table_id, immortal=self.immortal,
        )

    @property
    def is_history(self) -> bool:
        return self.page_type == PageType.DATA_HISTORY

    @property
    def immortal(self) -> bool:
        """True when the page belongs to a transaction-time (immortal) table."""
        return bool(self.header_flags & self.IMMORTAL_FLAG)

    # -- space accounting ----------------------------------------------------

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def free_bytes(self) -> int:
        return self.page_size - self._used

    @property
    def utilization(self) -> float:
        return self._used / self.page_size

    def current_version_bytes(self) -> int:
        """Bytes consumed by only the newest (slot-array-visible) versions.

        This is the quantity the split policy thresholds on: after a time
        split only these versions (plus uncommitted ones) remain, so a page
        whose *current* content already exceeds the threshold needs a key
        split too (Section 3.3).
        """
        return sum(self.versions[i].size_on_page for i in self.slots)

    # -- slot lookup -----------------------------------------------------------

    def slot_of(self, key: bytes) -> int | None:
        """Slot number of ``key``, or None if the page has no record for it."""
        keys = self._slot_keys
        pos = bisect_left(keys, key)
        if pos < len(keys) and keys[pos] == key:
            return pos
        return None

    def head(self, key: bytes) -> RecordVersion | None:
        """The newest version of ``key`` in this page (what a slot points at)."""
        slot = self.slot_of(key)
        if slot is None:
            return None
        return self.versions[self.slots[slot]]

    def keys(self) -> list[bytes]:
        """All record keys present in the slot array, in key order."""
        return list(self._slot_keys)

    @property
    def min_key(self) -> bytes | None:
        return self._slot_keys[0] if self._slot_keys else None

    @property
    def max_key(self) -> bytes | None:
        return self._slot_keys[-1] if self._slot_keys else None

    # -- version chains --------------------------------------------------------

    def chain(self, key: bytes) -> list[RecordVersion]:
        """The versions of ``key`` in this page, newest first ([] if none).

        The list stops at the page boundary: if the oldest local version's
        VP points into the history page (``VP_IN_HISTORY``), the caller must
        continue there (see :func:`history_slot_after`).
        """
        slot = self.slot_of(key)
        if slot is None:
            return []
        return self.chain_from(self.slots[slot])

    def chain_from(self, version_index: int) -> list[RecordVersion]:
        """The chain newest-first starting from an explicit version index."""
        versions = self.versions
        version = versions[version_index]
        chain = [version]
        while version.vp != NO_PREVIOUS and not version.flags & VP_IN_HISTORY:
            version = versions[version.vp]
            chain.append(version)
        return chain

    def chains(self) -> list[list[RecordVersion]]:
        """Every record's chain (newest first), in key order."""
        return [self.chain_from(head) for head in self.slots]

    # -- mutation ---------------------------------------------------------------

    def insert_version(self, record: RecordVersion) -> None:
        """Add a brand-new version written by an active transaction.

        If the key already has versions here, the new version becomes the
        chain head and its VP points at the old head.  Raises
        :exc:`PageFullError` when the page lacks room — the caller then
        performs a time split and/or key split and retries.
        """
        key = record.key
        keys = self._slot_keys
        pos = bisect_left(keys, key)
        existing = pos < len(keys) and keys[pos] == key
        need = RECORD_OVERHEAD + len(key) + len(record.payload)
        if not existing:
            need += SLOT_SIZE
        if need > self.page_size - self._used:
            raise PageFullError(
                f"page {self.page_id}: no room for {record.size_on_page}-byte record"
            )
        versions = self.versions
        if existing:
            record.vp = self.slots[pos]
            record.flags &= ~VP_IN_HISTORY
            self.slots[pos] = len(versions)
        else:
            record.vp = NO_PREVIOUS
            self.slots.insert(pos, len(versions))
            keys.insert(pos, key)
        versions.append(record)
        self._used += need

    def add_chain(
        self,
        chain_newest_first: list[RecordVersion],
        *,
        history_slot: int | None = None,
    ) -> int:
        """Install a copy of one key's whole version chain (page splits).

        The versions are copied as they are linked.  If ``history_slot`` is
        given, the oldest version's VP is pointed at that slot of the page's
        history page.  Returns the key's slot number here — for a split,
        which reads its source in key order, always the last one.
        """
        if not chain_newest_first:
            raise ValueError("empty chain")
        key = chain_newest_first[0].key
        keys = self._slot_keys
        pos = bisect_left(keys, key)
        if pos < len(keys) and keys[pos] == key:
            raise ValueError(f"page {self.page_id} already has a slot for {key!r}")
        need = SLOT_SIZE + (RECORD_OVERHEAD + len(key)) * len(chain_newest_first)
        for v in chain_newest_first:
            if v.key != key:
                raise ValueError("chain mixes keys")
            need += len(v.payload)
        if need > self.page_size - self._used:
            raise PageFullError(
                f"page {self.page_id}: no room for {need}-byte chain"
            )
        # Store oldest-first so VP indices always point backwards in the list.
        versions = self.versions
        vp, flag = NO_PREVIOUS, 0
        if history_slot is not None:
            vp, flag = history_slot, VP_IN_HISTORY
        for v in reversed(chain_newest_first):
            versions.append(RecordVersion(
                key, v.payload, v.flags & ~VP_IN_HISTORY | flag, vp,
                v.ttime_field, v.sn,
            ))
            vp, flag = len(versions) - 1, 0
        self.slots.insert(pos, vp)  # head = newest = last appended
        keys.insert(pos, key)
        self._used += need
        return pos

    def remove_newest_version(self, key: bytes) -> RecordVersion:
        """Remove the chain head for ``key`` (transaction rollback / undo).

        The slot is re-pointed at the previous version; if the head had no
        local predecessor the slot is removed entirely.  Version indices are
        compacted so VP pointers and slots stay valid.
        """
        slot = self.slot_of(key)
        if slot is None:
            raise KeyError(key)
        head_index = self.slots[slot]
        head = self.versions[head_index]
        if head.vp != NO_PREVIOUS and not head.flags & VP_IN_HISTORY:
            self.slots[slot] = head.vp
        else:
            del self.slots[slot]
            del self._slot_keys[slot]
            self._used -= SLOT_SIZE
        del self.versions[head_index]
        self._used -= head.size_on_page
        # Compact: every index greater than head_index shifts down by one.
        for version in self.versions:
            if version.vp != NO_PREVIOUS and version.vp > head_index \
                    and not version.flags & VP_IN_HISTORY:
                version.vp -= 1
        self.slots = [i - 1 if i > head_index else i for i in self.slots]
        return head

    def replace_payload_in_place(self, key: bytes, payload: bytes) -> None:
        """In-place update for conventional (non-versioned) tables."""
        slot = self.slot_of(key)
        if slot is None:
            raise KeyError(key)
        head = self.versions[self.slots[slot]]
        delta = len(payload) - len(head.payload)
        if delta > self.free_bytes:
            raise PageFullError(
                f"page {self.page_id}: in-place growth of {delta} bytes does not fit"
            )
        head.payload = payload
        self._used += delta

    def has_unstamped_records(self) -> bool:
        """True if any version still carries a TID instead of a timestamp."""
        for version in self.versions:
            if version.ttime_field & TID_FLAG:
                return True
        return False

    def unstamped_versions(self) -> list[RecordVersion]:
        return [v for v in self.versions if v.ttime_field & TID_FLAG]

    # -- self-contained invariants -------------------------------------------------

    def self_check(self) -> list[str]:
        """Page-local invariant violations (empty list = healthy).

        Exactly the checks that need no engine context — no TID resolution,
        no sibling pages — so the online scrubber can run them against any
        decoded disk image: slot array sorted, every chain acyclic with
        in-range indices and key-consistent versions, timestamps strictly
        decreasing along each chain, and a history page's time range
        non-empty.  ``verify_integrity`` layers the cross-structure checks
        (chains across pages, TSB agreement, orphaned TIDs) on top.
        """
        problems: list[str] = []
        if self._slot_keys != sorted(self._slot_keys):
            problems.append("slot array out of order")
        for key in self._slot_keys:
            visited: set[int] = set()
            index = self.slots[bisect_left(self._slot_keys, key)]
            last_ts: Timestamp | None = None
            while True:
                if index in visited:
                    problems.append(f"key {key!r} chain has a cycle")
                    break
                if not 0 <= index < len(self.versions):
                    problems.append(
                        f"key {key!r} chain index {index} out of range"
                    )
                    break
                visited.add(index)
                version = self.versions[index]
                if version.key != key:
                    problems.append(
                        f"chain of {key!r} reached a version of "
                        f"{version.key!r}"
                    )
                    break
                if version.is_timestamped:
                    ts = version.timestamp
                    if last_ts is not None and ts >= last_ts:
                        problems.append(
                            f"key {key!r} timestamps not strictly "
                            f"decreasing ({ts} under {last_ts})"
                        )
                    last_ts = ts
                if not version.has_previous or version.vp_in_history:
                    break
                index = version.vp
        if self.is_history and self.split_ts >= self.end_ts:
            problems.append("history page has empty time range")
        return problems

    # -- codec --------------------------------------------------------------------

    def _encode(self) -> bytes:
        """Build the fixed-size on-disk image (uncached)."""
        buf = bytearray(self.page_size)
        buf[0:COMMON_HEADER_SIZE] = self._common_header()
        _DATA_EXT.pack_into(
            buf, COMMON_HEADER_SIZE,
            len(self.slots), len(self.versions),
            self.split_ts.ttime, self.split_ts.sn,
            self.end_ts.ttime, self.end_ts.sn,
            self.history_page_id, self.next_leaf_id, self.table_id,
        )
        # The whole record area in one pack: a format of one group per
        # version (compiled per call and dropped; see ``_SLOT_CODECS``).
        formats: list[str] = []
        fields: list = []
        extend = fields.extend
        for v in self.versions:
            key, payload = v.key, v.payload
            formats.append(f"BHH{len(key)}s{len(payload)}sHQI")
            extend((v.flags, len(key), len(payload), key, payload,
                    v.vp, v.ttime_field, v.sn))
        try:
            records = struct.Struct(">" + "".join(formats))
            records.pack_into(buf, DATA_HEADER_SIZE, *fields)
        except struct.error as exc:
            raise PageFormatError(
                f"page {self.page_id} overflows its image"
            ) from exc
        offset = DATA_HEADER_SIZE + records.size
        slot_area = self.page_size - SLOT_SIZE * len(self.slots)
        if offset > slot_area:
            raise PageFormatError(
                f"page {self.page_id} overflows its image "
                f"({offset} bytes of records, slot area at {slot_area})"
            )
        if self.slots:
            _slot_codec(len(self.slots)).pack_into(buf, slot_area, *self.slots)
        return bytes(buf)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "DataPage":
        """Deserialize from an on-disk image."""
        page_id, page_type, flags, lsn = Page.read_common_header(raw)
        if page_type not in _DATA_TYPES:
            raise PageFormatError(f"not a data page: type {page_type}")
        (
            nslots, nversions,
            split_ttime, split_sn, end_ttime, end_sn,
            history_page_id, next_leaf_id, table_id,
        ) = _DATA_EXT.unpack_from(raw, COMMON_HEADER_SIZE)
        versions, offset = decode_versions(raw, DATA_HEADER_SIZE, nversions)
        slot_area = len(raw) - SLOT_SIZE * nslots
        heads = list(_slot_codec(nslots).unpack_from(raw, slot_area))
        if heads and max(heads) >= nversions:
            bad = next(i for i, head in enumerate(heads) if head >= nversions)
            raise PageFormatError(
                f"page {page_id}: slot {bad} points past version area"
            )
        keys = [versions[h].key for h in heads]
        if keys != sorted(keys):
            raise PageFormatError(f"page {page_id}: slot array not key-ordered")
        page = cls.__new__(cls)
        # One dict update, not one epoch-bumping ``__setattr__`` per field:
        # the object is not visible yet, so nobody holds a ``cache_token``
        # the bumps would have to invalidate.
        fields = page.__dict__
        fields.update(
            _instance_stamp=next(Page._instance_stamps),
            page_id=page_id, lsn=lsn, header_flags=flags,
            table_id=table_id, page_size=len(raw),
            versions=versions, slots=heads, _slot_keys=keys,
            split_ts=Timestamp(split_ttime, split_sn),
            end_ts=Timestamp(end_ttime, end_sn),
            history_page_id=history_page_id, next_leaf_id=next_leaf_id,
            # decode_versions walked exactly size_on_page bytes per record,
            # so the final offset already totals the record area.
            _used=offset + SLOT_SIZE * nslots,
        )
        if page_type == PageType.DATA_HISTORY:
            fields["page_type"] = PageType.DATA_HISTORY
        return page


register_page_codec(PageType.DATA_CURRENT, DataPage.from_bytes)
register_page_codec(PageType.DATA_HISTORY, DataPage.from_bytes)


class MetaPage(Page):
    """The boot page (page 0): an opaque, length-prefixed blob.

    The engine stores its durable root information here — catalog, PTT root
    page id, index roots — serialized by :mod:`repro.core.catalog`.
    """

    page_type = PageType.META

    def __init__(self, page_id: int = 0, blob: bytes = b"",
                 page_size: int = PAGE_SIZE) -> None:
        super().__init__(page_id)
        self.page_size = page_size
        self.blob = blob

    def _encode(self) -> bytes:
        """Build the fixed-size on-disk image (uncached)."""
        capacity = self.page_size - COMMON_HEADER_SIZE - 4
        if len(self.blob) > capacity:
            raise PageFormatError(
                f"meta blob of {len(self.blob)} bytes exceeds capacity {capacity}"
            )
        buf = bytearray(self.page_size)
        buf[0:COMMON_HEADER_SIZE] = self._common_header()
        at = COMMON_HEADER_SIZE
        buf[at : at + 4] = len(self.blob).to_bytes(4, "big")
        buf[at + 4 : at + 4 + len(self.blob)] = self.blob
        return bytes(buf)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "MetaPage":
        """Deserialize from an on-disk image."""
        page_id, page_type, flags, lsn = Page.read_common_header(raw)
        if page_type != PageType.META:
            raise PageFormatError(f"not a meta page: type {page_type}")
        at = COMMON_HEADER_SIZE
        length = int.from_bytes(raw[at : at + 4], "big")
        page = cls(page_id, bytes(raw[at + 4 : at + 4 + length]), page_size=len(raw))
        page.header_flags = flags
        page.lsn = lsn
        return page


register_page_codec(PageType.META, MetaPage.from_bytes)
