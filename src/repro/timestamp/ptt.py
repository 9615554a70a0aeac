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

* **Fixed root page id.**  The root is page ``PTT_ROOT_PAGE_ID`` (1), the
  first page a new database allocates; root growth moves the old root's
  content to a fresh page and turns the root page into an internal node,
  so the id never goes stale and restart knows it before redo.
* **Preemptive top-down splitting.**  Full nodes are split on the way down,
  so a split only ever posts to a parent with guaranteed room — no upward
  cascades.

Durability: the PTT uses the protocol of every other tree.  A split or a
root growth is one :class:`~repro.wal.records.MultiPageImage` (logged
through :func:`~repro.wal.log.log_smo`), a commit record names the leaf that
took its entry and a :class:`~repro.wal.records.PTTDelete` the leaf garbage
collection took one from.  Redo replays each on the page it names under
that page's LSN, so restart never descends the tree, splits a node or takes
a page id.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from typing import Iterator

from repro.clock import Timestamp
from repro.errors import PageFormatError
from repro.storage.buffer import BufferPool
from repro.storage.constants import COMMON_HEADER_SIZE, NO_PAGE, PAGE_SIZE, PageType
from repro.storage.page import Page, register_page_codec
from repro.wal.log import LogManager, log_smo
from repro.wal.records import CommitTxn, PTTDelete, SMOReason

ENTRY_SIZE = 20        # tid(8) + ttime(8) + sn(4)
_CHILD_SIZE = 12       # separator tid(8) + child pid(4)
_NODE_HEADER = COMMON_HEADER_SIZE + 8   # is_leaf(1) + count(2) + next_leaf(4) + pad

_NODE_EXT = struct.Struct(">BHI1x")    # is_leaf, count, next_leaf (0 if internal)

# A node is encoded one precompiled pack per entry, joined, and decoded in
# one C call with a format of one group per entry, compiled per call and
# dropped: each was the faster way when measured (DESIGN.md, "Codecs join
# precompiled packs").
_LEAF_ENTRY = struct.Struct(">QQI")     # tid, ttime, sn
_CHILD_ENTRY = struct.Struct(">QI")     # separator tid (0 for the first), child pid


def _entries(entry: struct.Struct, count: int) -> struct.Struct:
    return struct.Struct(">" + entry.format[1:] * count)


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
        # Entries (leaf) or children (internal) the node holds when full.
        self._capacity = self.leaf_capacity if is_leaf else self.fanout
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
        return len(self.tids if self.is_leaf else self.children) >= self._capacity

    # -- leaf entries (what commit and PTTDelete records redo) -----------------

    def put(self, tid: int, ttime: int, sn: int) -> bool:
        """Add ``tid``'s entry unless it is there; True if added."""
        i = bisect_left(self.tids, tid)
        if i < len(self.tids) and self.tids[i] == tid:
            return False
        self.tids.insert(i, tid)
        self.ttimes.insert(i, ttime)
        self.sns.insert(i, sn)
        self._encode_epoch += 1     # touch(), without the call
        return True

    def remove(self, tid: int) -> bool:
        """Drop ``tid``'s entry if it is there; True if dropped."""
        i = bisect_left(self.tids, tid)
        if i >= len(self.tids) or self.tids[i] != tid:
            return False
        del self.tids[i], self.ttimes[i], self.sns[i]
        self._encode_epoch += 1     # touch(), without the call
        return True

    # -- codec -----------------------------------------------------------------

    def _encode(self) -> bytes:
        """Build the fixed-size on-disk image (uncached)."""
        if self.is_leaf:
            count, next_leaf = len(self.tids), self.next_leaf
            columns = (_LEAF_ENTRY.pack, self.tids, self.ttimes, self.sns)
        else:
            count, next_leaf = len(self.children), NO_PAGE
            columns = (_CHILD_ENTRY.pack, [0, *self.seps], self.children)
        unfit = f"PTT node {self.page_id} does not fit its image ({count} entries)"
        try:
            image = b"".join((
                self._common_header(),
                _NODE_EXT.pack(self.is_leaf, count, next_leaf),
                *map(*columns),
            ))
        except struct.error as exc:
            raise PageFormatError(unfit) from exc
        if len(image) > self.page_size:
            raise PageFormatError(unfit)
        return image.ljust(self.page_size, b"\x00")

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

    def __init__(
        self, buffer: BufferPool, log: LogManager, root_pid: int
    ) -> None:
        self.buffer = buffer
        self.log = log
        self.root_pid = root_pid
        self.lookups = 0          # instrumentation for the Abl-4 bench

    # -- navigation -------------------------------------------------------------

    def _node(self, pid: int) -> PTTNodePage:
        page = self.buffer.get_page(pid)
        if not isinstance(page, PTTNodePage):
            raise PageFormatError(f"page {pid} is not a PTT node")
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

    def apply(self, rec: CommitTxn | PTTDelete) -> bool:
        """Apply a logged entry change to the leaf it names, as redo does;
        True if the leaf changed."""
        leaf = self.buffer.get_page(rec.page_id)
        changed = rec.redo(leaf)
        leaf.lsn = rec.lsn
        self.buffer.mark_dirty_page(leaf, rec.lsn)
        return changed

    def delete(self, tid: int) -> bool:
        """Log and apply the removal of ``tid``'s entry; True if it was there."""
        leaf = self._find_leaf(tid)
        if tid not in leaf.tids:
            return False
        rec = PTTDelete(subject_tid=tid, page_id=leaf.page_id)
        self.log.append(rec)
        return self.apply(rec)

    # -- top-down splitting -------------------------------------------------------

    def _new_node(self, *, is_leaf: bool, pid: int | None = None) -> PTTNodePage:
        return PTTNodePage(
            self.buffer.disk.allocate() if pid is None else pid,
            is_leaf=is_leaf, page_size=self.buffer.disk.page_size,
        )

    def leaf_for_insert(self, tid: int) -> PTTNodePage:
        """The leaf that will take ``tid``'s entry, with room for it: any
        full node on the way down is split first (logged)."""
        node = self._node(self.root_pid)
        if node.is_full:
            self._grow_root(node)
            node = self._node(self.root_pid)
        while not node.is_leaf:
            child = self._node(node.children[bisect_right(node.seps, tid)])
            if child.is_full:
                self._split_child(node, child)
                child = self._node(node.children[bisect_right(node.seps, tid)])
            node = child
        return node

    def _grow_root(self, old_root: PTTNodePage) -> None:
        """Add a level, keeping the root's page id fixed.

        The old root's content moves to a new page; the root page becomes an
        internal node with that page as its only child.  The next descent
        splits the (full) child normally.
        """
        moved = self._new_node(is_leaf=old_root.is_leaf)
        moved.tids, moved.ttimes, moved.sns = (
            old_root.tids, old_root.ttimes, old_root.sns)
        moved.seps, moved.children = old_root.seps, old_root.children
        moved.next_leaf = old_root.next_leaf
        new_root = self._new_node(is_leaf=False, pid=self.root_pid)
        new_root.children = [moved.page_id]
        log_smo(self.log, self.buffer, SMOReason.PTT_NODE, [new_root, moved])

    def _split_child(self, parent: PTTNodePage, child: PTTNodePage) -> None:
        """Split a full child, posting the separator to the non-full parent.

        Because TIDs arrive in ascending order, a mid-split would leave every
        retired node half empty; splitting high (90/10) keeps the table
        compact, as an append-mostly B-tree should.
        """
        right = self._new_node(is_leaf=child.is_leaf)
        if child.is_leaf:
            cut = max(1, int(len(child.tids) * _APPEND_SPLIT_FRACTION))
            right.tids = child.tids[cut:]
            right.ttimes = child.ttimes[cut:]
            right.sns = child.sns[cut:]
            right.next_leaf = child.next_leaf
            del child.tids[cut:], child.ttimes[cut:], child.sns[cut:]
            child.next_leaf = right.page_id
            sep = right.tids[0]
        else:
            cut = min(max(1, int(len(child.seps) * _APPEND_SPLIT_FRACTION)),
                      len(child.seps) - 1)
            sep = child.seps[cut]
            right.seps = child.seps[cut + 1 :]
            right.children = child.children[cut + 1 :]
            del child.seps[cut:], child.children[cut + 1 :]
        at = bisect_right(parent.seps, sep)
        parent.seps.insert(at, sep)
        parent.children.insert(at + 1, right.page_id)
        log_smo(self.log, self.buffer, SMOReason.PTT_NODE, [parent, child, right])

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
