"""B+tree primary index over current data pages.

The leaves of this tree are the engine's *current* data pages; history
pages hang off each leaf through the time-split page chain (Section 3.2)
and are never referenced by the B-tree itself — exactly the structure of
the Immortal DB prototype before its TSB-tree upgrade.

Making room in a full leaf follows the paper's policy (Section 3.3), decided
by what is on the page before anything is stamped, built or allocated
(DESIGN.md "Page splits" has the table): a page of single live versions **key
splits**; any other is stamped and classified at the current time, and **time
splits** if a version has ended or a delete stub can go — then key splits too
if the current versions left exceed the threshold ``T`` — else key splits.  A
conventional table first prunes what no active snapshot can see and then takes
the same path.  A page id is taken only for a page that is then logged.

Structural discipline:

* The **root page id is fixed**: growing the tree moves the old root's
  content to a new page and turns the root page into an index node, so the
  catalog's stored root id never goes stale.
* Internal nodes are **split preemptively on the way down**, so a leaf split
  always posts its separator into a parent with guaranteed room.
* Every structure modification is logged as one atomic redo-only
  :class:`~repro.wal.records.MultiPageImage` carrying the after-images of
  all affected pages, so recovery can never observe half a split.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.clock import SimClock
from repro.errors import AccessMethodError, PageFormatError
from repro.storage.buffer import BufferPool
from repro.storage.constants import COMMON_HEADER_SIZE, PAGE_SIZE, SLOT_SIZE, PageType
from repro.storage.page import DataPage, Page, register_page_codec
from repro.storage.record import RecordVersion
from repro.access.timesplit import (
    DEFAULT_KEY_SPLIT_THRESHOLD,
    SplitPlan,
    key_split_page,
    needs_key_split,
    nothing_to_move,
    plan_time_split,
)
from repro.wal.log import LogManager, log_smo
from repro.wal.records import MultiPageImage, SMOReason

_INDEX_HEADER = COMMON_HEADER_SIZE + 4  # count(2) + pad(2)
_COUNT = struct.Struct(">H2x")
_ENTRY = struct.Struct(">IH")   # child page id, length of the separator after it
_CHILD = struct.Struct(">I")    # the last child, which no separator follows

MAX_KEY_BYTES = 128
"""Upper bound on encoded primary-key size (checked by the table layer)."""

_MAX_SEP_COST = 4 + 2 + MAX_KEY_BYTES
"""Worst-case bytes one separator post can add to an index node."""


class BTreeIndexPage(Page):
    """Internal B+tree node: separators and child page ids.

    ``children[i]`` covers keys in ``[seps[i-1], seps[i])`` with the usual
    open ends; ``len(children) == len(seps) + 1``.
    """

    page_type = PageType.BTREE_INDEX

    def __init__(self, page_id: int, page_size: int = PAGE_SIZE) -> None:
        super().__init__(page_id)
        self.page_size = page_size
        self.seps: list[bytes] = []
        self.children: list[int] = []
        self._used = _INDEX_HEADER

    # ``seps`` and ``children`` change only through the two methods below,
    # which keep ``used_bytes`` current; every descent for insert asks
    # ``is_full`` of each node it passes, so it must not re-sum the node.

    def set_entries(self, seps: list[bytes], children: list[int]) -> None:
        """Replace the node's whole content (splits, root growth, decode)."""
        self.seps = seps
        self.children = children
        self._used = self.counted_bytes()
        self.touch()

    def post(self, at: int, sep: bytes, right_pid: int) -> None:
        """Insert separator ``sep`` at ``at`` with ``right_pid`` right of it."""
        self.seps.insert(at, sep)
        self.children.insert(at + 1, right_pid)
        self._used += 4 + 2 + len(sep)
        self.touch()

    def counted_bytes(self) -> int:
        """``used_bytes`` summed afresh (what the integrity check compares)."""
        return (
            _INDEX_HEADER
            + 4 * len(self.children)
            + sum(2 + len(s) for s in self.seps)
        )

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def is_full(self) -> bool:
        """No guaranteed room for one more separator of any legal size."""
        return self._used + _MAX_SEP_COST > self.page_size

    def child_index_for(self, key: bytes) -> int:
        return bisect_right(self.seps, key)

    # -- codec ------------------------------------------------------------

    def _encode(self) -> bytes:
        """Build the fixed-size on-disk image (uncached)."""
        seps, children = self.seps, self.children
        parts = [self._common_header(), _COUNT.pack(len(children))]
        if children:
            # Entry heads and separators alternate; both are laid in by
            # slice assignment, so no Python loop runs per entry.
            entries = [b""] * (2 * len(seps))
            entries[0::2] = map(_ENTRY.pack, children, map(len, seps))
            entries[1::2] = seps
            parts += entries
            parts.append(_CHILD.pack(children[-1]))
        image = b"".join(parts)
        if len(image) > self.page_size:
            raise PageFormatError(
                f"index node {self.page_id} overflows its image "
                f"({len(image)} bytes of entries in a {self.page_size}-byte page)"
            )
        return image.ljust(self.page_size, b"\x00")

    @classmethod
    def from_bytes(cls, raw: bytes) -> "BTreeIndexPage":
        """Deserialize from an on-disk image."""
        page_id, page_type, flags, lsn = Page.read_common_header(raw)
        if page_type != PageType.BTREE_INDEX:
            raise PageFormatError(f"not a B-tree index page: type {page_type}")
        if type(raw) is not bytes:
            raw = bytes(raw)        # separators are sliced out as bytes
        node = cls(page_id, page_size=len(raw))
        node.header_flags = flags
        node.lsn = lsn
        count = _COUNT.unpack_from(raw, COMMON_HEADER_SIZE)[0]
        seps: list[bytes] = []
        children: list[int] = []
        pos, end = _INDEX_HEADER, len(raw)
        entry = _ENTRY.unpack_from
        overrun = f"index node {page_id}: {count} entries overrun the page"
        try:
            for _ in range(count - 1):
                child, sep_len = entry(raw, pos)
                pos += _ENTRY.size
                seps.append(raw[pos : pos + sep_len])
                pos += sep_len
                # Page 0 is the meta page, never a child: a zero id is the
                # padding after the real entries, read under a garbled count.
                if pos > end or not child:
                    raise PageFormatError(overrun)
                children.append(child)
            if count:
                child = _CHILD.unpack_from(raw, pos)[0]
                if not child:
                    raise PageFormatError(overrun)
                children.append(child)
        except struct.error as exc:
            raise PageFormatError(overrun) from exc
        node.set_entries(seps, children)
        return node


register_page_codec(PageType.BTREE_INDEX, BTreeIndexPage.from_bytes)


@dataclass
class BTreeStats:
    """Split and prune counters for one B-tree."""
    time_splits: int = 0
    key_splits: int = 0
    index_splits: int = 0
    root_growths: int = 0
    prunes: int = 0
    versions_pruned: int = 0


class BTree:
    """The primary access structure for one table."""

    def __init__(
        self,
        buffer: BufferPool,
        log: LogManager,
        clock: SimClock,
        table_id: int,
        *,
        immortal: bool,
        root_pid: int | None = None,
        key_split_threshold: float = DEFAULT_KEY_SPLIT_THRESHOLD,
    ) -> None:
        self.buffer = buffer
        self.log = log
        self.clock = clock
        self.table_id = table_id
        self.immortal = immortal
        self.key_split_threshold = key_split_threshold
        self.stats = BTreeStats()
        # Wired by the engine:
        #   stamp_page(leaf) -> int: lazy-timestamping trigger before a split
        #   prune_page(leaf) -> (DataPage, int): snapshot GC for conventional
        #   history_index.on_time_split(...): TSB index maintenance (optional)
        #   route_cache: as-of route cache to notify on structure changes
        self.stamp_page: Callable[[DataPage], int] | None = None
        self.prune_page: Callable[[DataPage], tuple[DataPage, int]] | None = None
        self.history_index = None
        self.route_cache = None

        if root_pid is None:
            leaf = self.buffer.new_page(
                lambda pid: DataPage(
                    pid,
                    page_size=buffer.disk.page_size,
                    table_id=table_id,
                    immortal=immortal,
                )
            )
            self.root_pid = leaf.page_id
            log_smo(self.log, self.buffer, SMOReason.INDEX_POST, [leaf])
        else:
            self.root_pid = root_pid

    # -- navigation ---------------------------------------------------------

    def search_leaf(self, key: bytes) -> DataPage:
        """The current page that holds (or would hold) ``key``."""
        get_page = self.buffer.get_page
        node = get_page(self.root_pid)
        while type(node) is BTreeIndexPage:
            node = get_page(node.children[bisect_right(node.seps, key)])
        if not isinstance(node, DataPage):
            raise AccessMethodError(
                f"B-tree {self.table_id}: leaf {node.page_id} has wrong type"
            )
        return node

    def leftmost_leaf(self) -> DataPage:
        return self.search_leaf(b"")

    def leaves(self) -> Iterator[DataPage]:
        """All current leaves in key order, via the sibling chain."""
        leaf: DataPage | None = self.leftmost_leaf()
        while leaf is not None:
            yield leaf
            next_pid = leaf.next_leaf_id
            if not next_pid:
                return
            nxt = self.buffer.get_page(next_pid)
            if not isinstance(nxt, DataPage):
                raise AccessMethodError(f"leaf chain hit non-leaf {next_pid}")
            leaf = nxt

    def leaves_with_bounds(
        self, start_key: bytes | None = None
    ) -> Iterator[tuple[DataPage, bytes, bytes | None]]:
        """(leaf, key_low, key_high) in key order, by index traversal.

        After key splits, sibling leaves share history pages; as-of scans
        need each leaf's key bounds to avoid double-counting shared history.

        ``start_key`` prunes the traversal: subtrees whose entire key range
        lies strictly below it are skipped (range scans start at the right
        leaf in logarithmic time instead of walking every leaf).
        """
        root = self.buffer.get_page(self.root_pid)
        yield from self._walk(root, b"", None, start_key)

    def _walk(
        self,
        node: Page,
        low: bytes,
        high: bytes | None,
        start_key: bytes | None = None,
    ) -> Iterator[tuple[DataPage, bytes, bytes | None]]:
        if isinstance(node, DataPage):
            yield node, low, high
            return
        assert isinstance(node, BTreeIndexPage)
        seps, children = node.seps, node.children
        # Children left of the first separator above ``start_key`` hold
        # only keys below it.
        first = 0 if start_key is None else bisect_right(seps, start_key)
        for i in range(first, len(children)):
            yield from self._walk(
                self.buffer.get_page(children[i]),
                seps[i - 1] if i > 0 else low,
                seps[i] if i < len(seps) else high,
                start_key,
            )

    # -- insertion ------------------------------------------------------------

    def leaf_for_insert(self, record: RecordVersion) -> DataPage:
        """Find the leaf for ``record`` and guarantee it has room.

        May perform time splits, snapshot pruning, and key splits.  The
        caller then logs its VersionOp against the returned page id and
        applies the insert (WAL order: log first, then modify).
        """
        if len(record.key) > MAX_KEY_BYTES:
            raise AccessMethodError(
                f"key of {len(record.key)} bytes exceeds the "
                f"{MAX_KEY_BYTES}-byte limit"
            )
        for _ in range(8):
            path = self._descend_splitting(record.key)
            leaf = self._leaf_at(path)
            need = record.size_on_page
            if leaf.slot_of(record.key) is None:
                need += SLOT_SIZE
            if need <= leaf.free_bytes:
                return leaf
            self._make_room(path, leaf, record.key)
        raise AccessMethodError(
            f"table {self.table_id}: could not make room for key "
            f"{record.key!r} after repeated splits"
        )

    def apply_insert(self, leaf: DataPage, record: RecordVersion, lsn: int) -> None:
        """Apply a logged insert to its leaf (sets page LSN, marks dirty)."""
        leaf.insert_version(record)
        leaf.lsn = lsn
        self.buffer.mark_dirty_page(leaf, lsn)

    # -- top-down splitting of index nodes -----------------------------------------

    def _descend_splitting(
        self, key: bytes
    ) -> list[tuple[BTreeIndexPage, int]]:
        """Descend for insert, pre-splitting full index nodes.

        Returns the index path; every node on it has room for one more
        separator, so a subsequent leaf key split cannot cascade.
        """
        get_page = self.buffer.get_page
        node = get_page(self.root_pid)
        if type(node) is BTreeIndexPage and node.is_full:
            self._grow_root_over_index(node)
            node = get_page(self.root_pid)
        path: list[tuple[BTreeIndexPage, int]] = []
        while type(node) is BTreeIndexPage:
            i = bisect_right(node.seps, key)
            child = get_page(node.children[i])
            if type(child) is BTreeIndexPage and child.is_full:
                self._split_index_child(node, child)
                i = bisect_right(node.seps, key)
                child = get_page(node.children[i])
            path.append((node, i))
            node = child
        return path

    def _leaf_at(self, path: list[tuple[BTreeIndexPage, int]]) -> DataPage:
        if path:
            node, i = path[-1]
            leaf = self.buffer.get_page(node.children[i])
        else:
            leaf = self.buffer.get_page(self.root_pid)
        if not isinstance(leaf, DataPage):
            raise AccessMethodError("descent did not reach a data page")
        return leaf

    def _grow_root_over_index(self, root: BTreeIndexPage) -> None:
        """Move a full index root's content aside; root page stays the root."""
        moved = self.buffer.new_page(
            lambda pid: BTreeIndexPage(pid, page_size=self.buffer.disk.page_size)
        )
        moved.set_entries(list(root.seps), list(root.children))
        new_root = BTreeIndexPage(
            self.root_pid, page_size=self.buffer.disk.page_size
        )
        new_root.set_entries([], [moved.page_id])
        self.stats.root_growths += 1
        log_smo(self.log, self.buffer, SMOReason.INDEX_POST, [new_root, moved])

    def _grow_root_over_leaf(self, leaf: DataPage) -> DataPage:
        """The root is a leaf that must split: push it down one level.

        The leaf's content moves to a new page id (redo of older VersionOps
        against the root id is fenced off by the page LSN), and the root
        page becomes an index node with the moved leaf as its only child.
        """
        moved = leaf.sibling(self.buffer.disk.allocate())
        moved.split_ts = leaf.split_ts
        moved.end_ts = leaf.end_ts
        moved.history_page_id = leaf.history_page_id
        moved.next_leaf_id = leaf.next_leaf_id
        moved.append_chains(leaf.chains())
        new_root = BTreeIndexPage(
            self.root_pid, page_size=self.buffer.disk.page_size
        )
        new_root.set_entries([], [moved.page_id])
        if self.route_cache is not None:
            self.route_cache.invalidate(leaf.page_id)
        self.stats.root_growths += 1
        log_smo(self.log, self.buffer, SMOReason.INDEX_POST, [new_root, moved])
        return moved

    def _split_index_child(
        self, parent: BTreeIndexPage, child: BTreeIndexPage
    ) -> None:
        """Mid-split a full index child into the (non-full) parent."""
        mid = len(child.seps) // 2
        promoted = child.seps[mid]
        right = self.buffer.new_page(
            lambda pid: BTreeIndexPage(pid, page_size=self.buffer.disk.page_size)
        )
        right.set_entries(child.seps[mid + 1 :], child.children[mid + 1 :])
        child.set_entries(child.seps[:mid], child.children[: mid + 1])
        parent.post(parent.child_index_for(promoted), promoted, right.page_id)
        self.stats.index_splits += 1
        log_smo(self.log, self.buffer, SMOReason.INDEX_POST, [parent, child, right])

    # -- making room in leaves ---------------------------------------------------------

    def _make_room(
        self,
        path: list[tuple[BTreeIndexPage, int]],
        leaf: DataPage,
        key: bytes,
    ) -> None:
        if not self.immortal and self.prune_page is not None:
            pruned, dropped = self.prune_page(leaf)
            if dropped:
                self.stats.prunes += 1
                self.stats.versions_pruned += dropped
                log_smo(self.log, self.buffer, SMOReason.OTHER, [pruned])
                # Pruning freed space; if plenty, no key split needed now.
                if pruned.free_bytes >= pruned.page_size // 4:
                    return
                leaf = pruned
        # Versions pinned by long-running snapshots can outgrow a page even
        # after pruning; spilling them to a history page helps a single hot
        # record where a key split cannot.
        plan = self._try_time_split(path, leaf)
        if plan is None:
            self._key_split(path, leaf)
        elif self.immortal:
            current = self.search_leaf(key)
            if needs_key_split(current, self.key_split_threshold) \
                    and len(current.slots) > 1:
                path = self._descend_splitting(key)
                self._key_split(path, self._leaf_at(path))

    def _try_time_split(
        self, path: list[tuple[BTreeIndexPage, int]], leaf: DataPage
    ) -> SplitPlan | None:
        """Time split ``leaf`` if that frees space and return the plan it
        built; None — with nothing stamped for the first test, nothing
        allocated for either — if not."""
        if nothing_to_move(leaf):
            return None
        if self.stamp_page is not None:
            self.stamp_page(leaf)
        # No writer commits between the stamping pass and this draw (a commit
        # takes the engine latch, held from the insert's descent on), so a
        # version still TID-marked commits, if ever, above split_ts: case 4.
        split_ts = self.clock.now()
        if split_ts <= leaf.split_ts:
            return None     # the current time does not advance the page's
        plan = plan_time_split(leaf, split_ts)
        if not plan.frees_space:
            return None
        low, high = b"", None       # the leaf's key bounds, off the descent
        for node, i in path:
            if i > 0:
                low = node.seps[i - 1]
            if i < len(node.seps):
                high = node.seps[i]
        self.install_time_split(plan, low, high)
        return plan

    def install_time_split(
        self, plan: SplitPlan, low: bytes, high: bytes | None
    ) -> None:
        """Build and log a planned split of the leaf covering keys ``[low,
        high)`` — the one place a history page id is taken."""
        outcome = plan.build(self.buffer.disk.allocate())
        self.stats.time_splits += 1
        if self.route_cache is not None:
            self.route_cache.on_time_split(outcome)
        affected: list[Page] = [outcome.current, outcome.history]
        if self.history_index is not None:
            affected.extend(
                self.history_index.on_time_split(outcome.history, low, high)
            )
        log_smo(self.log, self.buffer, SMOReason.TIME_SPLIT, affected)

    def _key_split(
        self, path: list[tuple[BTreeIndexPage, int]], leaf: DataPage
    ) -> None:
        if len(leaf.slots) < 2:
            raise AccessMethodError(
                f"page {leaf.page_id} cannot make room: a single record's "
                f"chain exceeds the page (record too large)"
            )
        if not path:
            # The leaf is the root: push it down, keeping the root id fixed.
            leaf = self._grow_root_over_leaf(leaf)
            root = self.buffer.get_page(self.root_pid)
            assert isinstance(root, BTreeIndexPage)
            path = [(root, 0)]
        right_pid = self.buffer.disk.allocate()
        left, right, sep = key_split_page(leaf, right_pid)
        if self.route_cache is not None:
            self.route_cache.invalidate(leaf.page_id)
        self.stats.key_splits += 1
        parent, child_index = path[-1]
        parent.post(child_index, sep, right.page_id)
        affected: list[Page] = [left, right, parent]
        if self.history_index is not None:
            affected.extend(
                self.history_index.on_key_split(
                    self.table_id, left.page_id, right.page_id, sep
                )
            )
        log_smo(self.log, self.buffer, SMOReason.KEY_SPLIT, affected)
