"""TSB-tree: a time-split B-tree index over key × time rectangles.

The paper's prototype reaches historical versions by walking each leaf's
time-split page chain, and names the TSB-tree [20, 21] as the essential
next step: "we will index directly to the appropriate page, avoiding the
cost of searching down the page time split chain" (Section 4.2).  This
module implements that index so the repository can run the indexed-vs-chain
ablation (Abl 2 in DESIGN.md).

Structure: index nodes hold entries, each an axis-aligned rectangle in
(key × time) space plus a child page id.  A data page's rectangle is the
region whose live versions it is guaranteed to contain — the guarantee
established by the time split's case-2 redundancy.  Entries within a node
may overlap only by replication (an entry copied to both sides of a node
split), never by construction, so point search is unambiguous: any
containing entry leads to a page that holds the version sought.

Node splits follow Lomet & Salzberg: a full node is split **by time** when
most of its entries are historical (their time ranges are closed), else
**by key**; entries crossing the boundary are replicated to both sides.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.clock import Timestamp
from repro.errors import AccessMethodError, PageFormatError
from repro.storage.buffer import BufferPool
from repro.storage.constants import COMMON_HEADER_SIZE, PAGE_SIZE, PageType
from repro.storage.page import DataPage, Page, register_page_codec


@dataclass(frozen=True)
class Rect:
    """Half-open rectangle in key × time space.

    ``key_high=None`` means "+infinity"; time bounds are always explicit
    (``Timestamp.MAX`` serves as the open end for current regions).
    """

    key_low: bytes
    key_high: bytes | None
    t_low: Timestamp
    t_high: Timestamp

    def contains_point(self, key: bytes, t: Timestamp) -> bool:
        if key < self.key_low:
            return False
        if self.key_high is not None and key >= self.key_high:
            return False
        return self.t_low <= t < self.t_high

    def contains_rect(self, other: "Rect") -> bool:
        if other.key_low < self.key_low:
            return False
        if self.key_high is not None:
            if other.key_high is None or other.key_high > self.key_high:
                return False
        return self.t_low <= other.t_low and other.t_high <= self.t_high

    def overlaps(self, other: "Rect") -> bool:
        if self.key_high is not None and other.key_low >= self.key_high:
            return False
        if other.key_high is not None and self.key_low >= other.key_high:
            return False
        return self.t_low < other.t_high and other.t_low < self.t_high

    @property
    def is_historical(self) -> bool:
        """A closed time range: the region can no longer grow."""
        return self.t_high < Timestamp.MAX


@dataclass
class TSBEntry:
    rect: Rect
    child_pid: int
    child_is_leaf: bool   # True: child is a history data page

    @property
    def size_on_page(self) -> int:
        key_high_len = 0 if self.rect.key_high is None else len(self.rect.key_high)
        return 2 + len(self.rect.key_low) + 3 + key_high_len + 24 + 4 + 1


_TSB_HEADER_FIXED = COMMON_HEADER_SIZE + 2  # entry count


def _encode_rect(rect: Rect) -> bytes:
    chunks = [len(rect.key_low).to_bytes(2, "big"), rect.key_low]
    if rect.key_high is None:
        chunks.append(b"\x00")
    else:
        chunks.append(b"\x01")
        chunks.append(len(rect.key_high).to_bytes(2, "big"))
        chunks.append(rect.key_high)
    chunks.append(rect.t_low.to_bytes())
    chunks.append(rect.t_high.to_bytes())
    return b"".join(chunks)


def _decode_rect(raw: bytes, pos: int) -> tuple[Rect, int]:
    klo_len = int.from_bytes(raw[pos : pos + 2], "big")
    pos += 2
    key_low = bytes(raw[pos : pos + klo_len])
    pos += klo_len
    has_high = raw[pos]
    pos += 1
    key_high: bytes | None = None
    if has_high:
        khi_len = int.from_bytes(raw[pos : pos + 2], "big")
        pos += 2
        key_high = bytes(raw[pos : pos + khi_len])
        pos += khi_len
    t_low = Timestamp.from_bytes(raw[pos : pos + 12])
    t_high = Timestamp.from_bytes(raw[pos + 12 : pos + 24])
    return Rect(key_low, key_high, t_low, t_high), pos + 24


class TSBIndexPage(Page):
    """One TSB-tree index node: its own rectangle plus child entries."""

    page_type = PageType.TSB_INDEX

    def __init__(
        self,
        page_id: int,
        rect: Rect | None = None,
        page_size: int = PAGE_SIZE,
    ) -> None:
        super().__init__(page_id)
        self.page_size = page_size
        self.rect = rect or Rect(b"", None, Timestamp.MIN, Timestamp.MAX)
        self.entries: list[TSBEntry] = []

    @property
    def used_bytes(self) -> int:
        own = len(_encode_rect(self.rect))
        return (
            _TSB_HEADER_FIXED
            + own
            + sum(e.size_on_page for e in self.entries)
        )

    def fits(self, entry: TSBEntry) -> bool:
        return self.used_bytes + entry.size_on_page <= self.page_size

    # -- codec --------------------------------------------------------------

    def _encode(self) -> bytes:
        """Build the fixed-size on-disk image (uncached)."""
        buf = bytearray(self.page_size)
        buf[0:COMMON_HEADER_SIZE] = self._common_header()
        body = bytearray()
        body += len(self.entries).to_bytes(2, "big")
        body += _encode_rect(self.rect)
        for entry in self.entries:
            body += _encode_rect(entry.rect)
            body += entry.child_pid.to_bytes(4, "big")
            body += b"\x01" if entry.child_is_leaf else b"\x00"
        end = COMMON_HEADER_SIZE + len(body)
        if end > self.page_size:
            raise PageFormatError(f"TSB node {self.page_id} overflows its image")
        buf[COMMON_HEADER_SIZE:end] = body
        return bytes(buf)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "TSBIndexPage":
        """Deserialize from an on-disk image."""
        page_id, page_type, flags, lsn = Page.read_common_header(raw)
        if page_type != PageType.TSB_INDEX:
            raise PageFormatError(f"not a TSB index page: type {page_type}")
        pos = COMMON_HEADER_SIZE
        count = int.from_bytes(raw[pos : pos + 2], "big")
        pos += 2
        rect, pos = _decode_rect(raw, pos)
        node = cls(page_id, rect, page_size=len(raw))
        node.header_flags = flags
        node.lsn = lsn
        for _ in range(count):
            entry_rect, pos = _decode_rect(raw, pos)
            child_pid = int.from_bytes(raw[pos : pos + 4], "big")
            child_is_leaf = bool(raw[pos + 4])
            pos += 5
            node.entries.append(TSBEntry(entry_rect, child_pid, child_is_leaf))
        return node


register_page_codec(PageType.TSB_INDEX, TSBIndexPage.from_bytes)


class TSBHistoryIndex:
    """Index of every history page a table's time splits have produced."""

    def __init__(
        self,
        buffer: BufferPool,
        table_id: int,
        root_pid: int,
    ) -> None:
        self.buffer = buffer
        self.table_id = table_id
        self.root_pid = root_pid
        self.searches = 0
        self.nodes_visited = 0
        # (key, ts) -> page id memo for repeated as-of lookups.  Leaf-entry
        # rectangles are immutable once inserted, so a positive answer can
        # never go stale; the memo is still cleared on every insert (and on
        # crash) for an obviously-sound invalidation story.
        self._search_memo: dict[tuple[bytes, Timestamp], int | None] = {}
        self._memo_limit = 8192

    # -- hooks called by the B-tree during splits --------------------------------

    def on_time_split(
        self,
        history_page: DataPage,
        key_low: bytes,
        key_high: bytes | None,
    ) -> list[Page]:
        """Register a freshly created history page; returns modified nodes."""
        rect = Rect(key_low, key_high, history_page.split_ts, history_page.end_ts)
        return self.insert(rect, history_page.page_id)

    def on_key_split(
        self, table_id: int, left_pid: int, right_pid: int, sep: bytes
    ) -> list[Page]:
        """Key splits touch only current pages; the history index is unchanged."""
        return []

    # -- core operations ---------------------------------------------------------------

    def _node(self, pid: int) -> TSBIndexPage:
        page = self.buffer.get_page(pid)
        if not isinstance(page, TSBIndexPage):
            raise AccessMethodError(f"page {pid} is not a TSB index node")
        return page

    def search(self, key: bytes, t: Timestamp) -> int | None:
        """Page id of the history page covering (key, t), or None."""
        self.searches += 1
        node = self._node(self.root_pid)
        while True:
            self.nodes_visited += 1
            hit: TSBEntry | None = None
            for entry in node.entries:
                if entry.rect.contains_point(key, t):
                    hit = entry
                    break
            if hit is None:
                return None
            if hit.child_is_leaf:
                return hit.child_pid
            node = self._node(hit.child_pid)

    def cached_search(
        self, key: bytes, t: Timestamp
    ) -> tuple[int | None, bool]:
        """Memoized :meth:`search`: (page id or None, answered-from-cache?)."""
        memo_key = (key, t)
        try:
            return self._search_memo[memo_key], True
        except KeyError:
            pass
        pid = self.search(key, t)
        if len(self._search_memo) >= self._memo_limit:
            self._search_memo.clear()
        self._search_memo[memo_key] = pid
        return pid, False

    def clear_cache(self) -> None:
        """Drop the search memo (crash / recovery)."""
        self._search_memo.clear()

    def insert(self, rect: Rect, page_id: int) -> list[Page]:
        """Add a history-page entry; returns every index node modified.

        Full nodes are fixed top-down (grow the root / split the first full
        node met), then the descent restarts — so a split only ever posts to
        a parent that was verified non-full earlier in the same descent.
        """
        self._search_memo.clear()
        modified: list[Page] = []
        entry = TSBEntry(rect, page_id, child_is_leaf=True)
        for _ in range(64):
            outcome = self._descend_for_insert(rect, entry, modified)
            if outcome is None:
                continue  # structure was fixed; restart the descent
            node = outcome
            node.entries.append(entry)
            self.buffer.mark_dirty_page(node)
            if node not in modified:
                modified.append(node)
            return modified
        raise AccessMethodError(
            f"TSB index {self.table_id}: insert did not converge"
        )

    def _descend_for_insert(
        self, rect: Rect, entry: TSBEntry, modified: list[Page]
    ) -> TSBIndexPage | None:
        """Descend to the insert target, fixing the first full node met.

        Returns the target node, or None when a structural fix was applied
        and the descent must restart.
        """
        node = self._node(self.root_pid)
        parent: TSBIndexPage | None = None
        while True:
            if not node.fits(entry):
                if parent is None:
                    self._grow_root(modified)
                else:
                    self._split_child(parent, node, modified)
                return None
            child: TSBIndexPage | None = None
            for e in node.entries:
                if not e.child_is_leaf and e.rect.contains_rect(rect):
                    child = self._node(e.child_pid)
                    break
            if child is None:
                return node
            parent = node
            node = child

    # -- node splits --------------------------------------------------------------------

    def _grow_root(self, modified: list[Page]) -> None:
        """Add a level while keeping the root's page id fixed."""
        root = self._node(self.root_pid)
        moved = self.buffer.new_page(
            lambda pid: TSBIndexPage(
                pid, root.rect, page_size=self.buffer.disk.page_size
            )
        )
        moved.entries = list(root.entries)
        new_root = TSBIndexPage(
            self.root_pid, root.rect, page_size=self.buffer.disk.page_size
        )
        new_root.entries = [TSBEntry(moved.rect, moved.page_id, False)]
        self.buffer.replace_page(new_root)
        self.buffer.mark_dirty_page(moved)
        self.buffer.mark_dirty_page(new_root)
        for page in (new_root, moved):
            if page not in modified:
                modified.append(page)

    def _split_child(
        self,
        parent: TSBIndexPage,
        node: TSBIndexPage,
        modified: list[Page],
    ) -> None:
        """Split ``node`` by time or key, posting the sibling to ``parent``.

        Entries crossing the boundary are replicated to both halves — the
        TSB-tree's index-term redundancy, mirroring the data pages' case-2
        redundancy.
        """
        historical = sum(1 for e in node.entries if e.rect.is_historical)
        boundary_t = None
        if historical * 3 >= len(node.entries) * 2:
            boundary_t = self._time_cut(node)
        if boundary_t is not None:
            low_rect = Rect(node.rect.key_low, node.rect.key_high,
                            node.rect.t_low, boundary_t)
            high_rect = Rect(node.rect.key_low, node.rect.key_high,
                             boundary_t, node.rect.t_high)

            def in_low(r: Rect) -> bool:
                return r.t_low < boundary_t

            def in_high(r: Rect) -> bool:
                return r.t_high > boundary_t
        else:
            boundary_k = self._key_cut(node)
            low_rect = Rect(node.rect.key_low, boundary_k,
                            node.rect.t_low, node.rect.t_high)
            high_rect = Rect(boundary_k, node.rect.key_high,
                             node.rect.t_low, node.rect.t_high)

            def in_low(r: Rect) -> bool:
                return r.key_low < boundary_k

            def in_high(r: Rect) -> bool:
                return r.key_high is None or r.key_high > boundary_k

        low_entries = [e for e in node.entries if in_low(e.rect)]
        high_entries = [e for e in node.entries if in_high(e.rect)]
        if len(low_entries) >= len(node.entries) or \
                len(high_entries) >= len(node.entries):
            raise AccessMethodError(
                f"TSB node {node.page_id}: split produced no progress "
                f"(every entry crosses the boundary)"
            )
        sibling = self.buffer.new_page(
            lambda pid: TSBIndexPage(
                pid, high_rect, page_size=self.buffer.disk.page_size
            )
        )
        sibling.entries = high_entries
        node.rect = low_rect
        node.entries = low_entries
        # Update the parent: shrink the old entry's rect, add the sibling.
        for i, e in enumerate(parent.entries):
            if e.child_pid == node.page_id and not e.child_is_leaf:
                parent.entries[i] = TSBEntry(low_rect, node.page_id, False)
                break
        parent.entries.append(TSBEntry(high_rect, sibling.page_id, False))
        self.buffer.mark_dirty_page(node)
        self.buffer.mark_dirty_page(sibling)
        self.buffer.mark_dirty_page(parent)
        for page in (node, sibling, parent):
            if page not in modified:
                modified.append(page)

    def _time_cut(self, node: TSBIndexPage) -> Timestamp | None:
        """Median closed end-time among historical entries, if it separates."""
        highs = sorted(
            e.rect.t_high for e in node.entries if e.rect.is_historical
        )
        if not highs:
            return None
        cut = highs[len(highs) // 2]
        if cut <= node.rect.t_low or cut >= node.rect.t_high:
            return None
        low = sum(1 for e in node.entries if e.rect.t_high <= cut)
        high = sum(1 for e in node.entries if e.rect.t_low >= cut)
        if low == 0 or high == 0:
            return None  # a side would keep everything: no progress
        return cut

    def _key_cut(self, node: TSBIndexPage) -> bytes:
        lows = sorted({e.rect.key_low for e in node.entries})
        if len(lows) < 2:
            raise AccessMethodError(
                f"TSB node {node.page_id}: cannot key split "
                f"(all entries share one key_low)"
            )
        return lows[len(lows) // 2]

    # -- inspection ----------------------------------------------------------------------

    def all_nodes(self) -> list[TSBIndexPage]:
        out: list[TSBIndexPage] = []
        stack = [self.root_pid]
        seen: set[int] = set()
        while stack:
            pid = stack.pop()
            if pid in seen:
                continue
            seen.add(pid)
            node = self._node(pid)
            out.append(node)
            for entry in node.entries:
                if not entry.child_is_leaf:
                    stack.append(entry.child_pid)
        return out

    def leaf_entry_count(self) -> int:
        return sum(
            1
            for node in self.all_nodes()
            for e in node.entries
            if e.child_is_leaf
        )
