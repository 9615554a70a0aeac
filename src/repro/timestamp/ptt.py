"""The Persistent Timestamp Table (PTT).

Section 2.2: "*a disk table that has the format (TID, Ttime, SN) … a B-tree
based table ordered by TID, which permits fast access based on TID … Since
TIDs are assigned in ascending order, this also means that all recent table
entries are at the tail of the table.*"

We implement it exactly so: a B+tree of fixed-size 20-byte entries
(tid 8 | ttime 8 | sn 4) living in buffer-pool pages of type ``PTT``.
Because TIDs ascend, inserts append at the rightmost leaf, so the hot part
of the table stays cached; garbage collection deletes from the (cold) head.

Two structural choices worth noting:

* **Fixed root page id.**  The boot page stores the PTT root durably; root
  growth moves the old root's content to a fresh page and turns the root
  page into an internal node, so the stored id never goes stale.
* **Preemptive top-down splitting.**  Full nodes are split on the way down,
  so a split only ever posts to a parent with guaranteed room — no upward
  cascades.

Durability: PTT mutations are logged *logically* (the commit record carries
the entry; :class:`~repro.wal.records.PTTDelete` records garbage
collection), and redo re-applies them idempotently ("insert if absent" /
"delete if present") through whatever tree structure reached the disk.  PTT
node splits therefore need no log records of their own.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from itertools import chain
from typing import Iterator

from repro.clock import Timestamp
from repro.errors import BufferPoolError, PageFormatError
from repro.storage.buffer import BufferPool
from repro.storage.constants import COMMON_HEADER_SIZE, NO_PAGE, PAGE_SIZE, PageType
from repro.storage.page import Page, register_page_codec

ENTRY_SIZE = 20        # tid(8) + ttime(8) + sn(4)
_CHILD_SIZE = 12       # separator tid(8) + child pid(4)
_NODE_HEADER = COMMON_HEADER_SIZE + 8   # is_leaf(1) + count(2) + next_leaf(4) + pad

_NODE_EXT = struct.Struct(">BHI")       # is_leaf, count, next_leaf (0 if internal)

# A node's whole entry area packs and unpacks in one C call, with a format
# of one group per entry, compiled per call and dropped (why: see
# ``storage.page._SLOT_CODECS``).
_LEAF_ENTRY = "QQI"     # tid, ttime, sn
_CHILD_ENTRY = "QI"     # separator tid (0 for the first), child pid


def _entries(entry: str, count: int) -> struct.Struct:
    return struct.Struct(">" + entry * count)


_APPEND_SPLIT_FRACTION = 0.9
"""Split point for an append-mostly tree: retired nodes stay 90 % full."""


class PTTNodePage(Page):
    """One node of the PTT B+tree (leaf or internal)."""

    page_type = PageType.PTT

    def __init__(self, page_id: int, *, is_leaf: bool = True,
                 page_size: int = PAGE_SIZE) -> None:
        super().__init__(page_id)
        self.page_size = page_size
        self.is_leaf = is_leaf
        self.next_leaf = NO_PAGE
        # Leaf payload: parallel arrays sorted by tid.
        self.tids: list[int] = []
        self.ttimes: list[int] = []
        self.sns: list[int] = []
        # Internal payload: children[i] covers keys in [seps[i-1], seps[i]).
        # len(children) == len(seps) + 1.
        self.seps: list[int] = []
        self.children: list[int] = []

    # -- capacity -------------------------------------------------------------

    @property
    def leaf_capacity(self) -> int:
        return (self.page_size - _NODE_HEADER) // ENTRY_SIZE

    @property
    def fanout(self) -> int:
        return (self.page_size - _NODE_HEADER) // _CHILD_SIZE

    @property
    def is_full(self) -> bool:
        if self.is_leaf:
            return len(self.tids) >= self.leaf_capacity
        return len(self.children) >= self.fanout

    # -- codec -----------------------------------------------------------------

    def _encode(self) -> bytes:
        """Build the fixed-size on-disk image (uncached)."""
        buf = bytearray(self.page_size)
        buf[0:COMMON_HEADER_SIZE] = self._common_header()
        # chain(zip) interleaves the parallel arrays entry by entry.
        if self.is_leaf:
            count, next_leaf = len(self.tids), self.next_leaf
            codec = _entries(_LEAF_ENTRY, count)
            flat = chain.from_iterable(zip(self.tids, self.ttimes, self.sns))
        else:
            count, next_leaf = len(self.children), NO_PAGE
            codec = _entries(_CHILD_ENTRY, count)
            flat = chain.from_iterable(zip([0, *self.seps], self.children))
        try:
            _NODE_EXT.pack_into(buf, COMMON_HEADER_SIZE, self.is_leaf, count, next_leaf)
            codec.pack_into(buf, _NODE_HEADER, *flat)
        except struct.error as exc:
            raise PageFormatError(
                f"PTT node {self.page_id} does not fit its image ({count} entries)"
            ) from exc
        return bytes(buf)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "PTTNodePage":
        """Deserialize from an on-disk image."""
        page_id, page_type, flags, lsn = Page.read_common_header(raw)
        if page_type != PageType.PTT:
            raise PageFormatError(f"not a PTT page: type {page_type}")
        is_leaf, count, next_leaf = _NODE_EXT.unpack_from(raw, COMMON_HEADER_SIZE)
        node = cls(page_id, is_leaf=bool(is_leaf), page_size=len(raw))
        node.header_flags = flags
        node.lsn = lsn
        try:
            if is_leaf:
                node.next_leaf = next_leaf
                flat = _entries(_LEAF_ENTRY, count).unpack_from(raw, _NODE_HEADER)
                node.tids = list(flat[0::3])
                node.ttimes = list(flat[1::3])
                node.sns = list(flat[2::3])
            else:
                flat = _entries(_CHILD_ENTRY, count).unpack_from(raw, _NODE_HEADER)
                node.seps = list(flat[2::2])
                node.children = list(flat[1::2])
        except struct.error as exc:
            raise PageFormatError(
                f"PTT node {page_id}: {count} entries overrun the page"
            ) from exc
        return node


register_page_codec(PageType.PTT, PTTNodePage.from_bytes)


class PersistentTimestampTable:
    """B+tree of (TID → Ttime, SN) mappings over the buffer pool."""

    def __init__(self, buffer: BufferPool, root_pid: int | None = None) -> None:
        self.buffer = buffer
        if root_pid is None:
            root = buffer.new_page(lambda pid: PTTNodePage(pid, is_leaf=True))
            self.root_pid = root.page_id
        else:
            self.root_pid = root_pid
        self.lookups = 0          # instrumentation for the Abl-4 bench
        self.pages_touched = 0

    # -- navigation -------------------------------------------------------------

    def _node(self, pid: int) -> PTTNodePage:
        try:
            page = self.buffer.get_page(pid)
        except (BufferPoolError, PageFormatError):
            # PTT structure changes are not logged (entries are replayed
            # logically and idempotently), so a node allocated but never
            # flushed reads back as zeros after a crash.  It is simply an
            # empty leaf: redo re-inserts whatever it held, because any
            # entry that only lived in a lost (dirty) node has its commit
            # LSN at or after the redo scan start point.
            page = PTTNodePage(
                pid, is_leaf=True, page_size=self.buffer.disk.page_size
            )
            self.buffer.replace_page(page)
        if not isinstance(page, PTTNodePage):
            raise PageFormatError(f"page {pid} is not a PTT node")
        self.pages_touched += 1
        return page

    def _find_leaf(self, tid: int) -> PTTNodePage:
        node = self._node(self.root_pid)
        while not node.is_leaf:
            node = self._node(node.children[bisect_right(node.seps, tid)])
        return node

    # -- operations ----------------------------------------------------------------

    def lookup(self, tid: int) -> Timestamp | None:
        """Find the timestamp recorded for ``tid``, or None."""
        self.lookups += 1
        leaf = self._find_leaf(tid)
        i = bisect_left(leaf.tids, tid)
        if i < len(leaf.tids) and leaf.tids[i] == tid:
            return Timestamp(leaf.ttimes[i], leaf.sns[i])
        return None

    def insert(self, tid: int, ts: Timestamp, rec_lsn: int = 0) -> bool:
        """Insert (idempotently) the entry for ``tid``.  Returns True if new."""
        leaf = self._descend_splitting(tid, rec_lsn)
        i = bisect_left(leaf.tids, tid)
        if i < len(leaf.tids) and leaf.tids[i] == tid:
            return False  # idempotent redo
        leaf.tids.insert(i, tid)
        leaf.ttimes.insert(i, ts.ttime)
        leaf.sns.insert(i, ts.sn)
        self.buffer.mark_dirty_page(leaf, rec_lsn)
        return True

    def delete(self, tid: int, rec_lsn: int = 0) -> bool:
        """Remove (idempotently) the entry for ``tid``.  Returns True if found."""
        leaf = self._find_leaf(tid)
        i = bisect_left(leaf.tids, tid)
        if i >= len(leaf.tids) or leaf.tids[i] != tid:
            return False
        del leaf.tids[i]
        del leaf.ttimes[i]
        del leaf.sns[i]
        self.buffer.mark_dirty_page(leaf, rec_lsn)
        return True

    # -- top-down splitting -------------------------------------------------------

    def _descend_splitting(self, tid: int, rec_lsn: int) -> PTTNodePage:
        """Find the leaf for ``tid``, splitting any full node on the way."""
        root = self._node(self.root_pid)
        if root.is_full:
            self._grow_root(rec_lsn)
            root = self._node(self.root_pid)
        node = root
        while not node.is_leaf:
            child = self._node(node.children[bisect_right(node.seps, tid)])
            if child.is_full:
                self._split_child(node, child, rec_lsn)
                child = self._node(node.children[bisect_right(node.seps, tid)])
            node = child
        return node

    def _grow_root(self, rec_lsn: int) -> None:
        """Add a level, keeping the root's page id fixed.

        The old root's content moves to a new page; the root page becomes an
        internal node with that page as its only child.  The next descent
        splits the (full) child normally.
        """
        old_root = self._node(self.root_pid)
        moved = self.buffer.new_page(
            lambda pid: PTTNodePage(
                pid, is_leaf=old_root.is_leaf,
                page_size=self.buffer.disk.page_size,
            )
        )
        moved.tids = list(old_root.tids)
        moved.ttimes = list(old_root.ttimes)
        moved.sns = list(old_root.sns)
        moved.seps = list(old_root.seps)
        moved.children = list(old_root.children)
        moved.next_leaf = old_root.next_leaf
        new_root = PTTNodePage(
            self.root_pid, is_leaf=False, page_size=self.buffer.disk.page_size
        )
        new_root.children = [moved.page_id]
        self.buffer.replace_page(new_root)
        self.buffer.mark_dirty_page(moved, rec_lsn)
        self.buffer.mark_dirty_page(new_root, rec_lsn)

    def _split_child(
        self, parent: PTTNodePage, child: PTTNodePage, rec_lsn: int
    ) -> None:
        """Split a full child, posting the separator to the non-full parent.

        Because TIDs arrive in ascending order, a mid-split would leave every
        retired node half empty; splitting high (90/10) keeps the table
        compact, as an append-mostly B-tree should.
        """
        if child.is_leaf:
            cut = max(1, int(len(child.tids) * _APPEND_SPLIT_FRACTION))
            right = self.buffer.new_page(
                lambda pid: PTTNodePage(
                    pid, is_leaf=True, page_size=self.buffer.disk.page_size
                )
            )
            right.tids = child.tids[cut:]
            right.ttimes = child.ttimes[cut:]
            right.sns = child.sns[cut:]
            right.next_leaf = child.next_leaf
            del child.tids[cut:]
            del child.ttimes[cut:]
            del child.sns[cut:]
            child.next_leaf = right.page_id
            sep = right.tids[0]
        else:
            cut = max(1, int(len(child.seps) * _APPEND_SPLIT_FRACTION))
            if cut >= len(child.seps):
                cut = len(child.seps) - 1
            sep = child.seps[cut]
            right = self.buffer.new_page(
                lambda pid: PTTNodePage(
                    pid, is_leaf=False, page_size=self.buffer.disk.page_size
                )
            )
            right.seps = child.seps[cut + 1 :]
            right.children = child.children[cut + 1 :]
            del child.seps[cut:]
            del child.children[cut + 1 :]
        at = bisect_right(parent.seps, sep)
        parent.seps.insert(at, sep)
        parent.children.insert(at + 1, right.page_id)
        self.buffer.mark_dirty_page(parent, rec_lsn)
        self.buffer.mark_dirty_page(child, rec_lsn)
        self.buffer.mark_dirty_page(right, rec_lsn)

    # -- inspection -----------------------------------------------------------------------

    def _leftmost_leaf(self) -> PTTNodePage:
        node = self._node(self.root_pid)
        while not node.is_leaf:
            node = self._node(node.children[0])
        return node

    def entries(self) -> Iterator[tuple[int, Timestamp]]:
        """All (tid, timestamp) pairs in TID order (scans the leaf chain)."""
        leaf: PTTNodePage | None = self._leftmost_leaf()
        while leaf is not None:
            for tid, ttime, sn in zip(leaf.tids, leaf.ttimes, leaf.sns):
                yield tid, Timestamp(ttime, sn)
            leaf = self._node(leaf.next_leaf) if leaf.next_leaf != NO_PAGE else None

    def max_tid(self) -> int:
        """Largest TID present (0 when empty) — used for the post-crash floor."""
        best = 0
        for tid, _ in self.entries():
            best = max(best, tid)
        return best

    def __len__(self) -> int:
        return sum(1 for _ in self.entries())

    def height(self) -> int:
        h = 1
        node = self._node(self.root_pid)
        while not node.is_leaf:
            h += 1
            node = self._node(node.children[0])
        return h

    def page_ids(self) -> list[int]:
        """Every page id used by the tree (for size accounting in benches)."""
        out: list[int] = []
        stack = [self.root_pid]
        while stack:
            pid = stack.pop()
            out.append(pid)
            node = self._node(pid)
            if not node.is_leaf:
                stack.extend(node.children)
        return out
