"""Archive block codec: delta-compressed images of history pages.

One archive **block** is the complete, exactly-reconstructible content of
one migrated history page.  The encoding exploits the two redundancies a
slotted version-chain page carries:

* every version stores its full key, but a page holds few distinct keys —
  the block stores each key once and refers to it by index; and
* consecutive versions of one record typically differ in a few bytes
  (the varying-value-length methodology in PAPERS.md), so each non-base
  payload is stored as a (shared prefix, shared suffix, middle bytes)
  delta against the key's **base version** — the oldest version of that
  key in the page — falling back to raw bytes whenever the delta would
  not be smaller.

Versions are stored *positionally* (same order as ``DataPage.versions``),
so the intra-page VP chain indices — including ``VP_IN_HISTORY`` slot
numbers that point into the next page of the history chain — survive the
round trip untouched, and ``decode_block`` rebuilds a page whose
``to_bytes()`` image is byte-identical to the original's (modulo the page
id stamped into the header, which the caller chooses).

The assembled document is zlib-compressed as a whole; zlib then mops up
the remaining redundancy (repeated filler in payloads, runs of equal
header fields).
"""

from __future__ import annotations

import struct
import zlib
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

from repro.clock import Timestamp
from repro.errors import PageFormatError
from repro.storage.constants import (
    DATA_HEADER_SIZE,
    NO_PREVIOUS,
    SLOT_SIZE,
    VP_IN_HISTORY,
)
from repro.storage.page import DataPage
from repro.storage.record import RECORD_OVERHEAD, RecordVersion

BLOCK_MAGIC = b"IAB1"

# table_id(4) header_flags(1) lsn(8) split(8+4) end(8+4) history(4)
# next_leaf(4) page_size(4) nkeys(2) nversions(2) nslots(2)
_BLOCK_HEADER = struct.Struct(">IBQQIQIIIIHHH")

_RAW = 0     # payload mode: length-prefixed raw bytes
_DELTA = 1   # payload mode: (prefix, suffix, middle) vs the key's base payload

_VERSION_HEAD = struct.Struct(">BHQIHB")   # flags, vp, ttime_field, sn, key_idx, mode
_RAW_LEN = struct.Struct(">H")
_DELTA_HEAD = struct.Struct(">HHH")        # prefix_len, suffix_len, middle_len


def _common_affix(base: bytes, payload: bytes) -> tuple[int, int]:
    """Longest common prefix/suffix lengths of ``base`` and ``payload``."""
    limit = min(len(base), len(payload))
    prefix = 0
    while prefix < limit and base[prefix] == payload[prefix]:
        prefix += 1
    suffix = 0
    remaining = limit - prefix
    while suffix < remaining and base[-1 - suffix] == payload[-1 - suffix]:
        suffix += 1
    return prefix, suffix


def encode_block(page: DataPage) -> bytes:
    """Serialize a history page into a compressed archive block."""
    key_index: dict[bytes, int] = {}
    bases: dict[int, bytes] = {}
    body = bytearray()
    for version in page.versions:
        idx = key_index.setdefault(version.key, len(key_index))
        payload = version.payload
        base = bases.get(idx)
        if base is None:
            bases[idx] = payload
            mode, encoded = _RAW, _RAW_LEN.pack(len(payload)) + payload
        else:
            prefix, suffix = _common_affix(base, payload)
            middle = payload[prefix : len(payload) - suffix]
            if _DELTA_HEAD.size + len(middle) < _RAW_LEN.size + len(payload):
                mode = _DELTA
                encoded = _DELTA_HEAD.pack(prefix, suffix, len(middle)) + middle
            else:
                mode, encoded = _RAW, _RAW_LEN.pack(len(payload)) + payload
        body += _VERSION_HEAD.pack(
            version.flags, version.vp, version.ttime_field, version.sn, idx, mode
        )
        body += encoded
    keys = bytearray()
    for key in key_index:  # insertion order == index order
        keys += _RAW_LEN.pack(len(key)) + key
    header = _BLOCK_HEADER.pack(
        page.table_id, page.header_flags, page.lsn,
        page.split_ts.ttime, page.split_ts.sn,
        page.end_ts.ttime, page.end_ts.sn,
        page.history_page_id, page.next_leaf_id, page.page_size,
        len(key_index), len(page.versions), len(page.slots),
    )
    slots = struct.pack(f">{len(page.slots)}H", *page.slots)
    return zlib.compress(bytes(BLOCK_MAGIC + header + keys + body + slots), 6)


@dataclass
class _Block:
    """The index of one decompressed block, validated at open and immutable
    after: a version is the same whenever it is built.  ``records[i]`` is
    version ``i``'s head fields, then the three spans of ``doc`` that
    concatenate to its payload (a raw version has only the middle one; a
    delta borrows both ends of its key's base)."""

    doc: bytes
    key_table: list[bytes]
    records: list[tuple]
    slots: list[int]
    slot_keys: list[bytes]      # key_table[...] of each slot's head, ascending

    def version(self, i: int) -> RecordVersion:
        (flags, vp, ttime_field, sn, key_idx, _,
         lead, lead_end, start, end, tail, tail_end) = self.records[i]
        doc = self.doc
        return RecordVersion(
            self.key_table[key_idx],
            doc[lead:lead_end] + doc[start:end] + doc[tail:tail_end],
            flags, vp, ttime_field, sn,
        )

    def chain(self, key: bytes) -> list[RecordVersion]:
        """:meth:`DataPage.chain`, building only this key's versions."""
        pos = bisect_left(self.slot_keys, key)
        if pos == len(self.slot_keys) or self.slot_keys[pos] != key:
            return []
        chain = [self.version(self.slots[pos])]
        while chain[-1].vp != NO_PREVIOUS and not chain[-1].flags & VP_IN_HISTORY:
            chain.append(self.version(chain[-1].vp))
        return chain


class ArchivedPage(DataPage):
    """A decoded block: a history page whose ``versions`` are built on first
    use (integrity walker, migration, ``to_bytes()``); chain views read
    ``block`` key by key instead."""

    @cached_property
    def versions(self) -> list[RecordVersion]:
        return [self.block.version(i) for i in range(len(self.block.records))]


def decode_block(blob: bytes, page_id: int) -> DataPage:
    """Open the archived history page, stamped with ``page_id``: every head,
    length, key index, delta base, chain pointer and slot is checked here,
    so a damaged block fails now (``ArchiveManager.materialize`` quarantines
    it), never later when a version is built."""
    try:
        doc = zlib.decompress(blob)
    except zlib.error as exc:
        raise PageFormatError(f"archive block is not valid zlib data: {exc}") from exc
    if doc[: len(BLOCK_MAGIC)] != BLOCK_MAGIC:
        raise PageFormatError("archive block has a bad magic number")
    try:
        (
            table_id, header_flags, lsn,
            split_ttime, split_sn, end_ttime, end_sn,
            history_page_id, next_leaf_id, page_size,
            nkeys, nversions, nslots,
        ) = _BLOCK_HEADER.unpack_from(doc, len(BLOCK_MAGIC))
        offset = len(BLOCK_MAGIC) + _BLOCK_HEADER.size
        keys: list[bytes] = []
        for _ in range(nkeys):
            (klen,) = _RAW_LEN.unpack_from(doc, offset)
            offset += _RAW_LEN.size
            keys.append(doc[offset : offset + klen])
            if len(keys[-1]) != klen:
                raise PageFormatError("archive block truncated in key table")
            offset += klen
        records: list[tuple] = []
        bases: list[tuple[int, int] | None] = [None] * nkeys
        used = DATA_HEADER_SIZE + SLOT_SIZE * nslots
        unpack_head, unpack_raw = _VERSION_HEAD.unpack_from, _RAW_LEN.unpack_from
        for i in range(nversions):
            head = unpack_head(doc, offset)
            flags, vp, _, _, key_idx, mode = head
            offset += _VERSION_HEAD.size
            if key_idx >= nkeys:
                raise PageFormatError("archive block version references a bad key")
            if vp >= i and vp != NO_PREVIOUS and not flags & VP_IN_HISTORY:
                raise PageFormatError("archive block chain does not point back")
            if mode == _RAW:
                start = offset + _RAW_LEN.size
                offset = start + unpack_raw(doc, offset)[0]
                records.append(head + (0, 0, start, offset, 0, 0))
                plen = offset - start
                if bases[key_idx] is None:
                    bases[key_idx] = (start, offset)
            elif mode == _DELTA:
                prefix, suffix, mlen = _DELTA_HEAD.unpack_from(doc, offset)
                start = offset + _DELTA_HEAD.size
                offset = start + mlen
                if bases[key_idx] is None:
                    raise PageFormatError("archive block delta precedes its base")
                base, base_end = bases[key_idx]
                if prefix + suffix > base_end - base:
                    raise PageFormatError("archive block delta exceeds its base")
                records.append(head + (
                    base, base + prefix, start, offset, base_end - suffix, base_end
                ))
                plen = prefix + mlen + suffix
            else:
                raise PageFormatError(f"archive block has payload mode {mode}")
            used += RECORD_OVERHEAD + len(keys[key_idx]) + plen
        # A payload that ran past the end left ``offset`` there too: the
        # next head, or the slot array, did not unpack.
        slots = list(struct.unpack_from(f">{nslots}H", doc, offset))
    except struct.error as exc:
        raise PageFormatError(f"archive block is truncated: {exc}") from exc
    if offset > len(doc) or any(slot >= nversions for slot in slots):
        raise PageFormatError("archive block payload or slot past its end")
    block = _Block(doc, keys, records, slots, [keys[records[h][4]] for h in slots])
    page = ArchivedPage(page_id, is_history=True, page_size=page_size, table_id=table_id)
    del page.__dict__["versions"]   # the empty list: now built on first use
    # A fresh page has no cached image to invalidate: one update, no epochs.
    page.__dict__.update(
        block=block, header_flags=header_flags, lsn=lsn,
        split_ts=Timestamp(split_ttime, split_sn),
        end_ts=Timestamp(end_ttime, end_sn),
        history_page_id=history_page_id, next_leaf_id=next_leaf_id,
        slots=slots, _slot_keys=block.slot_keys, _used=used,
    )
    return page
