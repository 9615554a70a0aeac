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

Migration protocol (crash-atomic; each step has a failpoint so the
crashtest harness kills the process between any two):

1. ``archive.migrate.select`` — per page: re-verify candidacy, flush the
   page if dirty (the archived image must match the durable one);
2. ``archive.migrate.append`` — encode the delta block and append it to
   the store; the position it lands at is its ref;
3. ``archive.migrate.sync`` — **sync the store**.  From here the archive
   copy is durable;
4. ``archive.migrate.relink`` — point every referrer's
   ``history_page_id`` at the ref, in memory;
5. ``archive.migrate.free`` — once per step: log one
   :class:`~repro.wal.records.MultiPageImage` (``PAGE_FREE``) carrying the
   relinked referrers and the freed ids, force the log, write the
   referrers, drop the freed pages' frames and put their ids on the free
   list.

Why each intermediate crash state is consistent:

* crash before the sync — the block is an unsynced tail the store
  discards; every link still names the intact raw page.
* crash before the free record is durable — the relinks were only in
  memory (the write-ahead rule keeps a page whose LSN the log does not
  cover off the disk); the blocks are unreferenced tails of the store.
* crash after it — redo replays the relinks from the record, under each
  referrer's page LSN, whatever of the writes reached the disk, and
  restart's free list takes the freed ids from the same record (see
  :mod:`repro.wal.recovery`).  A freed page keeps its old image: an id is
  reused only by a page whose birth is logged, so redo replays the old
  image and then the new one, in log order.

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
from repro.storage.constants import ARCHIVE_PID_BIT, NO_PAGE
from repro.storage.page import DataPage, decode_page, read_data_header
from repro.wal.log import log_smo
from repro.wal.records import SMOReason


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
        # Reads resolve through us; frees feed the page store's free list.
        engine.buffer.archive_resolver = self.materialize

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
        engine, buffer = self.engine, self.engine.buffer
        moved: list[int] = []
        relinked: list[DataPage] = []
        for pid in candidates:
            if len(moved) == budget:
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
            # The archive copy is durable; now move every link to it.
            fire("archive.migrate.relink")
            for rpid in referrers.get(pid, ()):
                referrer = self._peek_page(rpid)
                if isinstance(referrer, DataPage) \
                        and referrer.history_page_id == pid:
                    referrer.history_page_id = ref_pid
                    relinked.append(referrer)
            moved.append(pid)
        if not moved:
            return 0
        fire("archive.migrate.free")
        # An id is reused only once the record freeing it is durable.
        log_smo(engine.log, buffer, SMOReason.PAGE_FREE, relinked, moved)
        engine.log.force()
        for referrer in relinked:
            buffer.flush_page(referrer.page_id)
        for pid in moved:
            buffer.discard_page(pid)
            engine.disk.free_list.add(pid)
        self.stats.pages_migrated += len(moved)
        self.stats.pages_freed += len(moved)
        # Cached routes and page views may still name migrated pids.
        if engine.route_cache is not None:
            engine.route_cache.clear()
        if engine.page_views is not None:
            engine.page_views.clear()
        return len(moved)

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

    def close(self) -> None:
        self.store.close()
