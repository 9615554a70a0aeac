"""Archive block codec: delta-compressed images of history pages.

One archive **block** is the complete, exactly-reconstructible content of
one migrated history page.  The encoding exploits the two redundancies a
slotted version-chain page carries:

* every version stores its full key, but a page holds few distinct keys —
  the block stores each key once and refers to it by index; and
* consecutive versions of one record typically differ in a few bytes
  (the varying-value-length methodology in PAPERS.md), so each payload is
  stored as a (shared prefix, shared suffix, middle bytes) delta against
  the key's **base version**, its first version in the page (stored whole).

The layout, ``magic | header | key lengths | version table | slots | keys |
payload``, opens in one pass: everything before the keys is fixed width
(one bulk unpack), the version table is stored column by column (flags,
vp, ttime, sn, key index, prefix, suffix, middle length) and the payload
area is the middles, in version order.  Versions are stored
*positionally*, so intra-page VP chain indices — ``VP_IN_HISTORY`` slot
numbers too — survive the round trip, and ``decode_block`` rebuilds a
page whose ``to_bytes()`` image is byte-identical to the original's
(modulo the page id the caller stamps).

The assembled document is zlib-compressed as a whole; zlib then mops up
the remaining redundancy (repeated filler in payloads, runs of equal
header fields).
"""

from __future__ import annotations

import struct
import zlib
from bisect import bisect_left
from functools import cached_property, lru_cache
from itertools import accumulate, chain, compress, count
from operator import add, ge

from repro.clock import TID_FLAG, Timestamp
from repro.core.asof import _ChainView
from repro.errors import PageFormatError
from repro.storage.constants import (
    DATA_HEADER_SIZE,
    NO_PREVIOUS,
    SLOT_SIZE,
    VP_IN_HISTORY,
    PageType,
)
from repro.storage.page import DataPage, Page
from repro.storage.record import RecordVersion

BLOCK_MAGIC = b"IAB2"   # "IAB1" blocks (a head per version) are refused

# table_id(4) header_flags(1) lsn(8) split(8+4) end(8+4) history(4)
# next_leaf(4) page_size(4) nkeys(2) nversions(2) nslots(2)
_BLOCK_HEADER = struct.Struct(">IBQQIQIIIIHHH")


@lru_cache(maxsize=256)
def _fixed_part(nkeys: int, nversions: int, nslots: int) -> struct.Struct:
    """Key lengths, then the version table's columns (flags, vp, ttime,
    sn, then key index, prefix, suffix, middle length), then the slots."""
    n = nversions
    return struct.Struct(f">{nkeys}H{n}B{n}H{n}Q{n}I{4 * n + nslots}H")


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
    versions = page.versions
    key_index: dict[bytes, int] = {}
    bases: dict[int, bytes] = {}
    rows = []
    payloads = bytearray()
    for version in versions:
        idx = key_index.setdefault(version.key, len(key_index))
        payload = version.payload
        if idx in bases:
            prefix, suffix = _common_affix(bases[idx], payload)
        else:
            bases[idx] = payload
            prefix = suffix = 0
        middle = payload[prefix : len(payload) - suffix]
        rows.append((version.flags, version.vp, version.ttime_field,
                     version.sn, idx, prefix, suffix, len(middle)))
        payloads += middle
    header = _BLOCK_HEADER.pack(
        page.table_id, page.header_flags, page.lsn,
        page.split_ts.ttime, page.split_ts.sn,
        page.end_ts.ttime, page.end_ts.sn,
        page.history_page_id, page.next_leaf_id, page.page_size,
        len(key_index), len(versions), len(page.slots),
    )
    fixed = _fixed_part(len(key_index), len(versions), len(page.slots)).pack(
        *map(len, key_index), *chain.from_iterable(zip(*rows)), *page.slots,
    )
    doc = b"".join((BLOCK_MAGIC, header, fixed, *key_index, payloads))
    return zlib.compress(doc, 6)


class _Block:
    """One decompressed block, validated at open and immutable after: a
    version is the same whenever it is built.  ``columns`` are the version
    table's; version ``i``'s middle is ``doc[starts[i]:starts[i + 1]]``,
    and ``first[k]`` is the base version of key ``k``."""

    def __init__(self, doc, keys, columns, starts, first, slots):
        self.doc, self.keys, self.columns, self.starts = doc, keys, columns, starts
        self.first, self.slots = first, slots
        self.slot_keys = [keys[columns[4][head]] for head in slots]  # ascending

    def build(self, order) -> list[RecordVersion]:
        """The versions at the indices ``order`` names, in that order."""
        flags, vps, ttimes, sns, key_idx, prefixes, suffixes, _ = self.columns
        doc, starts, first, keys = self.doc, self.starts, self.first, self.keys
        versions = []
        for i in order:
            key = key_idx[i]
            payload = doc[starts[i] : starts[i + 1]]
            prefix, suffix = prefixes[i], suffixes[i]
            if prefix or suffix:
                lead, end = starts[first[key]], starts[first[key] + 1]
                payload = doc[lead : lead + prefix] + payload + doc[end - suffix : end]
            versions.append(RecordVersion(
                keys[key], payload, flags[i], vps[i], ttimes[i], sns[i]
            ))
        return versions

    def chain_view(self, key: bytes) -> _ChainView | None:
        """The chain view of ``key``, building only its versions: indices
        from the ``vp`` column, timestamp keys from ``(ttime, sn)``."""
        pos = bisect_left(self.slot_keys, key)
        if pos == len(self.slot_keys) or self.slot_keys[pos] != key:
            return None
        flags, vps, ttimes, sns = self.columns[:4]
        i = self.slots[pos]
        order, stamps = [i], [ttimes[i] << 32 | sns[i]]
        while vps[i] != NO_PREVIOUS and not flags[i] & VP_IN_HISTORY:
            i = vps[i]
            order.append(i)
            stamps.append(ttimes[i] << 32 | sns[i])
        order.reverse()
        stamps.reverse()
        return _ChainView.stamped(stamps, self.build(order))


class ArchivedPage(DataPage):
    """A decoded block: a history page whose ``versions`` (and their byte
    count) are built on first use (integrity walker, migration,
    ``to_bytes()``); chain views read ``block`` key by key instead."""

    page_type = PageType.DATA_HISTORY

    @cached_property
    def versions(self) -> list[RecordVersion]:
        return self.block.build(range(len(self.block.starts) - 1))

    @cached_property
    def _used(self) -> int:
        sizes = sum(version.size_on_page for version in self.versions)
        return DATA_HEADER_SIZE + SLOT_SIZE * len(self.slots) + sizes


def decode_block(blob: bytes, page_id: int) -> DataPage:
    """Open the archived history page, stamped with ``page_id``: every
    length, key index, delta base, chain pointer, slot and timestamp is
    checked here, column by column, so a damaged block fails now
    (``ArchiveManager.materialize`` quarantines it), never later when a
    version is built."""
    try:
        doc = zlib.decompress(blob)
    except zlib.error as exc:
        raise PageFormatError(f"archive block is not valid zlib data: {exc}") from exc
    if doc[: len(BLOCK_MAGIC)] != BLOCK_MAGIC:
        raise PageFormatError("archive block has a bad magic number")
    offset = len(BLOCK_MAGIC) + _BLOCK_HEADER.size
    try:
        (
            table_id, header_flags, lsn,
            split_ttime, split_sn, end_ttime, end_sn,
            history_page_id, next_leaf_id, page_size,
            nkeys, n, nslots,
        ) = _BLOCK_HEADER.unpack_from(doc, len(BLOCK_MAGIC))
        fixed = _fixed_part(nkeys, n, nslots)
        fields = fixed.unpack_from(doc, offset)
    except struct.error as exc:
        raise PageFormatError(f"archive block is truncated: {exc}") from exc
    key_lens, slots = fields[:nkeys], fields[nkeys + 8 * n :]
    columns = flags, vps, ttimes, _, key_idx, prefixes, suffixes, mlens = [
        fields[at : at + n] for at in range(nkeys, nkeys + 8 * n, n)
    ] if n else [()] * 8
    bounds = list(accumulate(key_lens, initial=offset + fixed.size))
    if bounds[-1] + sum(mlens) != len(doc):
        raise PageFormatError("archive block payload area has the wrong length")
    if n and max(key_idx) >= nkeys:
        raise PageFormatError("archive block version references a bad key")
    if n and max(ttimes) & TID_FLAG:
        raise PageFormatError("archive block holds a TID-marked version")
    # Only an oldest version (no previous, or one in the history page) may
    # point at or past itself.
    if any(vps[i] != NO_PREVIOUS and not flags[i] & VP_IN_HISTORY
           for i in compress(count(), map(ge, vps, count()))):
        raise PageFormatError("archive block chain does not point back")
    # A key's base is its first version: reversed, dict() keeps the first.
    first = dict(zip(reversed(key_idx), range(n - 1, -1, -1)))
    affixes = list(map(add, prefixes, suffixes))
    if any(map(affixes.__getitem__, first.values())):
        raise PageFormatError("archive block delta precedes its base")
    if any(a > mlens[first[k]] for a, k in zip(affixes, key_idx)):
        raise PageFormatError("archive block delta exceeds its base")
    if slots and max(slots) >= n:
        raise PageFormatError("archive block slot past its end")
    keys = [doc[a:b] for a, b in zip(bounds, bounds[1:])]
    starts = list(accumulate(mlens, initial=bounds[-1]))
    block = _Block(doc, keys, columns, starts, first, slots)
    page = ArchivedPage.__new__(ArchivedPage)
    # A fresh page has no cached image to invalidate: one update, no epochs.
    page.__dict__.update(
        _instance_stamp=next(Page._instance_stamps), page_id=page_id,
        block=block, table_id=table_id, page_size=page_size,
        header_flags=header_flags, lsn=lsn,
        split_ts=Timestamp(split_ttime, split_sn),
        end_ts=Timestamp(end_ttime, end_sn),
        history_page_id=history_page_id, next_leaf_id=next_leaf_id,
        slots=list(slots), _slot_keys=block.slot_keys,
    )
    return page
