"""Archive manager: migration policy, crash atomicity, and the read seam.

Migration is a **budgeted background pass**, like the PR-4 scrubber: each
:meth:`ArchiveManager.step` archives at most ``pages_per_step`` cold
history pages, so the work rides along with checkpoints (``auto=True``)
without ever stalling the foreground.

A page is a migration candidate when its history is provably closed and
cold:

* it is a history page whose ``end_ts`` lies at or below the temperature
  horizon (``clock.now() - cold_ms``);
* every version is timestamped (lazy stamping finished — archived blocks
  are immutable, nobody will revisit them); the one test that takes the
  page's records, so ``step`` applies it, the scan reads headers only;
* its own history link already points off-tier (0 or an archive ref), so
  chains are peeled **oldest-tail first** and an archived page never
  points at a TSB-tree page; and
* its table has no TSB history index (TSB index terms store raw page
  ids; retargeting them is future work, documented in DESIGN.md).

Per-page migration protocol (crash-atomic; each numbered step has a
failpoint so the crashtest harness kills the process between any two):

1. ``archive.migrate.select`` — re-verify candidacy, flush the page if
   dirty (the archived image must match the durable one);
2. ``archive.migrate.append`` — encode the delta block and append it to
   the store; the position it lands at is its ref;
3. ``archive.migrate.sync`` — **sync the store**.  From here the archive
   copy is durable;
4. ``archive.migrate.relink`` — rewrite every referrer's
   ``history_page_id`` from the raw pid to the ref pid, write-through;
5. ``archive.migrate.free`` — drop the old page's frame, zero-fill its
   disk image, and put the pid on the free list.

Why each intermediate crash state is consistent:

* crash before the sync — the block is an unsynced tail the store
  discards; every on-disk link still names the intact raw page.
* crash between sync and the last relink flush — some referrers name the
  ref (a position inside the store's durable prefix), the rest still name
  the raw page, which is untouched.  Both routes decode the same chain.
* crash after relinks, before/during the free — worst case a zero-filled
  page whose pid never reached a durable catalog: a leaked hole, never a
  dangling link, because relinked referrer images (carrying LSNs ≥ any
  record describing the old link) were flushed before the free, and redo
  only applies records newer than the page image's LSN.

Reads come back through the buffer pool's resolver seam
(``BufferPool.archive_resolver``): a ``history_page_id`` with
:data:`~repro.storage.constants.ARCHIVE_PID_BIT` set never enters the
frame table; the manager materializes the block (ref → position →
decode) through its own small LRU of decoded pages, so ``page_for_time``,
the as-of route cache, history scans and the integrity walker all work
unchanged on either tier.  A block that fails to decode quarantines the
ref — reads degrade through the PR-5 ``Degraded`` path instead of
corrupting results.

Nothing searches the store — a read arrives holding the position it wants
— so there is no table beside it to keep in step with it, and nothing in it
is ever superseded: every byte written is a block some page may link to.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.archive.delta import decode_block, encode_block
from repro.archive.store import ArchiveStore
from repro.clock import TICK_MS, Timestamp
from repro.core.asof import PageView
from repro.errors import PageQuarantinedError
from repro.faults.failpoints import fire
from repro.storage.constants import (
    ARCHIVE_PID_BIT,
    CHECKSUM_OFFSET,
    CHECKSUM_SIZE,
    NO_PAGE,
)
from repro.storage.freelist import PageFreeList
from repro.storage.page import DataPage, decode_page, read_data_header


@dataclass
class ArchiveConfig:
    """Knobs for cold-history tiering (see DESIGN.md "Cold-history tiering")."""

    cold_ms: float = 10_000.0   # history colder than this is migratable
    pages_per_step: int = 8     # migration budget per step (scrubber idiom)
    auto: bool = True           # run a step inside every checkpoint
    max_cached_pages: int = 128  # decoded-page LRU behind the resolver


@dataclass
class ArchiveStats:
    """Cumulative archive counters (surfaced through ``ImmortalDB.stats``)."""

    pages_migrated: int = 0
    pages_freed: int = 0
    block_reads: int = 0
    quarantined: int = 0


class ArchiveManager:
    """Owns the archive store, the decoded-block cache, and the migration pass."""

    def __init__(
        self,
        engine,
        config: ArchiveConfig | None = None,
        *,
        store_path: str | None = None,
    ) -> None:
        self.engine = engine
        self.config = config or ArchiveConfig()
        self.store = ArchiveStore(store_path)
        self.stats = ArchiveStats()
        self.quarantined: set[int] = set()
        self._cache: OrderedDict[int, DataPage] = OrderedDict()
        # Wire the seams: reads resolve through us, frees feed allocation.
        engine.buffer.archive_resolver = self.materialize
        if engine.disk.free_list is None:
            engine.disk.free_list = PageFreeList()
        engine.disk.free_list.replace(engine.catalog.free_pids)

    # -- the read seam -----------------------------------------------------

    def materialize(self, page_id: int) -> DataPage:
        """Resolve an archive-ref page id into a decoded history page.

        Installed as ``BufferPool.archive_resolver``; the returned pages
        are immutable and never enter the frame table — they live in a
        private LRU sized by ``max_cached_pages``.  The block is validated
        here, whole: damage quarantines it now, never at a later read.  Its
        versions are built as asked for, and its chain views refer to the
        block's index, never to the page: an evicted block takes them along.
        """
        if page_id in self.quarantined:
            raise PageQuarantinedError(
                f"archive block for page {page_id:#x} is quarantined",
                page_id=page_id,
            )
        page = self._cache.get(page_id)
        if page is not None:
            self._cache.move_to_end(page_id)
            return page
        fire("archive.read.block")
        try:
            blob = self.store.read_block(page_id & ~ARCHIVE_PID_BIT)
            fire("archive.read.decode")
            page = decode_block(blob, page_id)
        except Exception as exc:
            # SimulatedCrash derives from BaseException and passes through.
            self.quarantined.add(page_id)
            self.stats.quarantined += 1
            raise PageQuarantinedError(
                f"archive block for page {page_id:#x} is unreadable: {exc}",
                page_id=page_id,
            ) from exc
        self.stats.block_reads += 1
        page.view = PageView(page.block.chain_view, set())
        self._cache[page_id] = page
        while len(self._cache) > self.config.max_cached_pages:
            self._cache.popitem(last=False)
        return page

    # -- candidate selection ----------------------------------------------

    def _horizon(self) -> Timestamp:
        ticks_back = int(self.config.cold_ms // TICK_MS)
        return Timestamp(max(0, self.engine.clock.tick - ticks_back), 0)

    def _peek_page(self, pid: int):
        """Read a page without disturbing the buffer pool (scrubber idiom).

        Pulling pages through the pool would flush the foreground's working
        set on every checkpoint.  Cached pages are served from their frame
        (they may be dirty); everything else decodes straight from disk.
        """
        buffer = self.engine.buffer
        if buffer.contains(pid):
            return buffer.get_page(pid)
        return decode_page(self.engine.disk.read_page(pid))

    def _peek_header(self, pid: int):
        """A data page's ``(is_history, end_ts.key, history_page_id,
        next_leaf_id)`` without decoding a record — the paper keeps a page's
        time range and chain pointer in its header (§3.2), so whether it is
        cold is a header question.  Any other page comes back decoded.  A
        cached frame answers from its object, which may be newer than disk.
        """
        buffer = self.engine.buffer
        if buffer.contains(pid):
            page = buffer.get_page(pid)
            if isinstance(page, DataPage):
                return (page.is_history, page.end_ts.key,
                        page.history_page_id, page.next_leaf_id)
            return page
        raw = self.engine.disk.read_page(pid)
        return read_data_header(raw) or decode_page(raw)

    def _iter_leaves(self, btree):
        """Walk a table's current leaves without touching the buffer pool.

        ``BTree.leaves()`` pulls every leaf through the pool, which would
        evict the foreground's working set on each migration step.  This
        walk descends to the leftmost leaf and follows the sibling chain
        through :meth:`_peek_header`; yields (leaf pid, history_page_id).
        """
        from repro.access.btree import BTreeIndexPage

        pid = btree.root_pid
        node = self._peek_header(pid)
        while isinstance(node, BTreeIndexPage):
            pid = node.children[0]
            node = self._peek_header(pid)
        while isinstance(node, tuple):
            yield pid, node[2]
            pid = node[3]
            if not pid:
                return
            node = self._peek_header(pid)

    def _scan(self) -> tuple[list[int], dict[int, list[int]]]:
        """Find cold pages and who points at them, from page headers.

        Returns (candidates ordered oldest-end-time-first, {pid: referrer
        pids}).  Whether every version of a candidate is stamped is not in
        its header: :meth:`step` asks when it loads the page to migrate it.
        The referrer map is rebuilt fresh every step because key splits make
        sibling leaves share history-chain suffixes — every link must be
        rewritten before a page can be freed.
        """
        horizon = self._horizon().key
        referrers: dict[int, list[int]] = {}
        cold: dict[int, int] = {}     # candidate pid -> end_ts as an int
        seen: set[int] = set()
        for table in self.engine.tables.values():
            if not table.schema.immortal or table.history_index is not None:
                continue
            for prev_pid, pid in self._iter_leaves(table.btree):
                while pid != NO_PAGE and not pid & ARCHIVE_PID_BIT:
                    referrers.setdefault(pid, []).append(prev_pid)
                    if pid in seen:
                        break  # shared suffix: deeper links already walked
                    seen.add(pid)
                    header = self._peek_header(pid)
                    if not isinstance(header, tuple):
                        break  # not a data page: nothing to follow
                    is_history, end_key, history_pid, _ = header
                    if (
                        is_history
                        and end_key <= horizon
                        and (history_pid == NO_PAGE
                             or history_pid & ARCHIVE_PID_BIT)
                    ):
                        cold[pid] = end_key
                    prev_pid = pid
                    pid = history_pid
        candidates = sorted(cold, key=lambda pid: (cold[pid], pid))
        return candidates, referrers

    # -- migration ---------------------------------------------------------

    def step(self, budget: int | None = None) -> int:
        """Migrate up to ``budget`` cold pages; returns how many moved."""
        budget = self.config.pages_per_step if budget is None else budget
        if budget <= 0:
            return 0
        candidates, referrers = self._scan()
        buffer = self.engine.buffer
        disk = self.engine.disk
        migrated = 0
        for pid in candidates:
            if migrated == budget:
                break
            page = self._peek_page(pid)
            if page.has_unstamped_records():
                continue    # lazy stamping has not finished with it
            fire("archive.migrate.select")
            if buffer.is_dirty(pid):
                buffer.flush_page(pid)
            blob = encode_block(page)
            fire("archive.migrate.append")
            ref_pid = ARCHIVE_PID_BIT | self.store.append_block(
                blob, page.used_bytes
            )
            fire("archive.migrate.sync")
            self.store.sync()
            # The archive copy is durable; now move every link, then free.
            fire("archive.migrate.relink")
            for rpid in referrers.get(pid, ()):
                if buffer.contains(rpid):
                    referrer = buffer.get_page(rpid)
                    if referrer.history_page_id == pid:
                        referrer.history_page_id = ref_pid
                        buffer.mark_dirty_page(referrer)
                        buffer.flush_page(rpid)
                else:
                    # Uncached referrer: write through directly, frames
                    # untouched (same durability — a full-image write).
                    referrer = decode_page(disk.read_page(rpid))
                    if (
                        isinstance(referrer, DataPage)
                        and referrer.history_page_id == pid
                    ):
                        referrer.history_page_id = ref_pid
                        buffer.write_through(referrer)
            fire("archive.migrate.free")
            buffer.discard_page(pid)
            disk.write_page(pid, bytes(disk.page_size))
            disk.free_list.add(pid)
            self.stats.pages_migrated += 1
            self.stats.pages_freed += 1
            migrated += 1
        if migrated:
            # Cached routes and page views may still name migrated pids.
            if self.engine.route_cache is not None:
                self.engine.route_cache.clear()
            if self.engine.page_views is not None:
                self.engine.page_views.clear()
            self.engine._save_meta()
        return migrated

    def drain(self, max_steps: int = 1000) -> int:
        """Run steps until no candidate remains; returns pages migrated."""
        total = 0
        for _ in range(max_steps):
            moved = self.step()
            if moved == 0:
                break
            total += moved
        return total

    # -- crash / recovery --------------------------------------------------

    def on_crash(self) -> None:
        """Simulated power loss: lose volatile state, keep the durable store."""
        self.store.crash()
        self._cache.clear()
        self.quarantined.clear()

    def before_recovery(self) -> None:
        """Take the free list away from redo.

        Redo allocates too (PTT re-inserts can split), and must not be
        handed an id the list only *believes* is free: the list stays empty
        until :meth:`after_recovery` has checked the durable catalog's
        entries against the post-redo images.
        """
        self.engine.disk.free_list.replace([])

    def after_recovery(self) -> None:
        """Rebuild post-redo state: validate the free list.

        A pid from the durable catalog stays free only if its disk image
        is blank (zero-filled at free time; the CRC field is excluded
        because checksums are stamped at write) and the buffer holds no
        frame for it — anything else means redo resurrected the page or
        the free never completed, and reusing the pid could double-home
        two pages.
        """
        self._cache.clear()
        self.quarantined.clear()
        disk = self.engine.disk
        free_list = disk.free_list
        free_list.replace(self.engine.catalog.free_pids)
        kept: list[int] = []
        for pid in free_list.to_list():
            if pid <= 0 or pid >= disk.page_count:
                continue
            if self.engine.buffer.contains(pid):
                continue
            try:
                raw = disk.read_page(pid)
            except Exception:
                continue
            before = raw[:CHECKSUM_OFFSET]
            after = raw[CHECKSUM_OFFSET + CHECKSUM_SIZE :]
            if not any(before) and not any(after):
                kept.append(pid)
        free_list.replace(kept)

    def close(self) -> None:
        self.store.close()
