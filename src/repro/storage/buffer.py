"""Buffer pool: page cache with latching, dirty tracking, and flush hooks.

The buffer pool is where two Immortal DB protocols are anchored:

* **Flush-triggered lazy timestamping** (Section 2.2): "just before a cached
  page is flushed to disk, we check whether the page contains any
  non-timestamped records from committed transactions; if so, we timestamp
  them."  The timestamp manager registers a *pre-flush hook* that runs on
  every page write-back.
* **WAL rule**: before a dirty page reaches disk, the log must be forced up
  to the page's LSN.  The log registers a *log-force hook* for this.

Page latching is bookkeeping rather than blocking — the engine latch
serializes page work — but conflicting acquisitions raise
:exc:`LatchError`, so tests can assert the engine follows the paper's latch
discipline (exclusive latch to stamp a record, shared latch for a plain
read of a stamped one).

Eviction is Johnson & Shasha's 2Q: first-touch pages enter a FIFO
probation queue (A1in) and are evicted from it unless re-referenced *after*
falling into the ghost list (A1out); only re-referenced pages enter the
protected LRU (Am).  A long history scan therefore washes through A1in
without displacing the hot current-page working set — the access pattern
the paper's time-split storage produces.  The victim scan also passes over
a dirty frame the durable log does not cover yet (``durable_lsn``): writing
it would force the log inside the group-commit window, so write-back
follows the durable log instead of driving it.

Write-back is batched (:data:`FLUSH_BATCH`): an eviction of a dirty page
gathers up to ``FLUSH_BATCH - 1`` additional cold dirty pages, runs the
pre-flush hooks for the whole batch, forces the log **once** to the batch's
maximum page LSN (amortizing the fsync the WAL rule otherwise costs every
dirty eviction), and writes the pages in page-id order so adjacent ids
reach the disk sequentially.  ``flush_all`` (checkpoints) batches the same
way.  The WAL rule is preserved — the single force covers every page in
the batch — and lazy timestamping is unchanged: stamping consults
``log.flushed_lsn`` *before* the force, so it stamps nothing a crash could
leave uncommitted.  ``flush_page`` writes one page alone (the boot page,
archive relinks, repair).
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.errors import (
    BufferExhaustedError,
    BufferPoolError,
    LatchError,
    StorageError,
    TransientIOError,
)
from repro.faults.failpoints import fire
from repro.storage.constants import ARCHIVE_PID_BIT
from repro.storage.disk import PageStore
from repro.storage.page import Page, decode_page


@dataclass
class BufferStats:
    """Buffer pool hit/miss/eviction counters."""
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    page_flushes: int = 0
    dirty_evictions: int = 0        # evictions that had to write the victim
    flush_batches: int = 0          # batched write-back groups issued
    flush_coalesced_writes: int = 0  # batch writes adjacent to the previous id
    evict_scan_skips: int = 0       # pinned/latched frames stepped over
    evict_uncovered_skips: int = 0  # dirty frames above the durable log, ditto
    prefetches: int = 0             # pages read ahead of an actual request
    prefetch_hits: int = 0          # misses served from the staging ring


@dataclass
class Frame:
    """One cached page plus its cache metadata."""

    page: Page
    dirty: bool = False
    rec_lsn: int = 0          # LSN when first dirtied since last clean (for DPT)
    pin_count: int = 0
    share_latches: int = 0
    exclusive_latch: bool = False


def _unevictable(frame: Frame) -> bool:
    return bool(frame.pin_count or frame.exclusive_latch or frame.share_latches)


FLUSH_BATCH = 8
"""Dirty pages written under one log force (a victim and its companions)."""


class TwoQPolicy:
    """2Q (Johnson & Shasha, VLDB '94), full version: the pool's victim choice.

    * ``A1in`` — FIFO probation queue for first-touch pages (target size
      ``kin`` = capacity/8: probation churn is cheap, and a small A1in
      leaves the protected queue room for a hot set approaching pool
      size).  Re-accessing a page *while it is in A1in* does not promote
      it: a sequential scan touches each page once more during
      processing, and promoting on that touch would let scans poison the
      protected queue (the flaw 2Q exists to fix).
    * ``A1out`` — ghost list of recently evicted probation pages (ids
      only, no frames; target ``kout`` = capacity/2, the paper's 50%).
      A page faulting in while ghosted has shown re-use *beyond* scan
      distance → admit straight to Am.  The window is deliberately
      narrow: a *periodic* scan (a monitoring sweep that repeats every
      few hundred operations) must find its ghosts already aged out, or
      the second sweep would promote the whole sweep into Am and evict
      the genuinely hot set.
    * ``Am`` — protected LRU of proven-hot pages.  Only Am is touched by
      an access (the pool moves a page in ``hot`` to its end).

    The pool owns the frame table (``pool._frames``); the policy owns only
    the queues.  ``select_victim`` returns an evictable frame or raises
    :exc:`BufferExhaustedError`, and terminates even when every frame is
    unevictable.
    """

    def __init__(self, pool: "BufferPool") -> None:
        self.pool = pool
        self.kin = max(1, pool.capacity // 8)
        self.kout = max(2, pool.capacity // 2)
        self.a1in: OrderedDict[int, None] = OrderedDict()
        self.a1out: OrderedDict[int, None] = OrderedDict()
        self.am: OrderedDict[int, None] = OrderedDict()
        self.hot = self.am

    def on_admit(self, page_id: int) -> None:
        if page_id in self.a1out:
            del self.a1out[page_id]
            self.am[page_id] = None
        else:
            self.a1in[page_id] = None

    def on_remove(self, page_id: int) -> None:
        self.a1in.pop(page_id, None)
        self.am.pop(page_id, None)

    def select_victim(self) -> tuple[int, Frame]:
        # Prefer the probation queue while it exceeds its target share (or
        # the protected queue has nothing to give); fall back to the other
        # queue when every frame in the preferred one is pinned.
        if len(self.a1in) > self.kin or not self.am:
            order = (self.a1in, self.am)
        else:
            order = (self.am, self.a1in)
        pid, frame, queue = self._scan(self.pool.durable_lsn(), *order)
        if queue is self.a1in:      # leaves probation: remember it as a ghost
            self.a1out[pid] = None
            while len(self.a1out) > self.kout:
                self.a1out.popitem(last=False)
        return pid, frame

    def iter_cold(self) -> Iterator[int]:
        """Page ids, coldest first (flush-batch companion selection)."""
        yield from self.a1in
        yield from self.am

    def clear(self) -> None:
        """Forget everything (crash simulation)."""
        self.a1in.clear()
        self.a1out.clear()
        self.am.clear()

    def _scan(
        self, durable: float, *queues: OrderedDict
    ) -> tuple[int, Frame, OrderedDict]:
        """The victim among ``queues``, each walked once from its cold end.

        A frame stepped over goes to its queue's hot end.  Pinned and
        latched frames are (they are in active use), and so is a dirty
        frame at or above ``durable``: with the log durable only below
        that LSN its write-back would force the log, ahead of the group
        commit that is about to cover it for nothing, so it gets another
        lap.  Only when a whole pass finds no frame that can go without a
        force is the first one passed over — the victim there would be
        with no such rule — taken after all.
        """
        frames, stats = self.pool._frames, self.pool.stats
        uncovered = None
        for queue in queues:
            for _ in range(len(queue)):
                pid = next(iter(queue))
                frame = frames.get(pid)
                if frame is None:          # stale entry (defensive)
                    del queue[pid]
                    continue
                if _unevictable(frame):
                    stats.evict_scan_skips += 1
                elif frame.dirty and frame.page.lsn >= durable:
                    stats.evict_uncovered_skips += 1
                    uncovered = uncovered or (pid, frame, queue)
                else:
                    return pid, frame, queue
                queue.move_to_end(pid)
        if uncovered is None:
            raise self._exhausted()
        return uncovered

    def _exhausted(self) -> BufferExhaustedError:
        frames = self.pool._frames
        pinned = sum(1 for f in frames.values() if f.pin_count)
        latched = sum(
            1 for f in frames.values()
            if f.exclusive_latch or f.share_latches
        )
        return BufferExhaustedError(
            f"buffer pool exhausted: every frame is pinned or latched "
            f"(capacity={self.pool.capacity}, pinned={pinned}, "
            f"latched={latched})",
            capacity=self.pool.capacity, pinned=pinned, latched=latched,
        )


class BufferPool:
    """Page cache over a :class:`~repro.storage.disk.PageStore`."""

    def __init__(
        self,
        disk: PageStore,
        capacity: int = 1024,
        *,
        read_ahead: int = 0,
    ) -> None:
        if capacity < 4:
            raise ValueError("buffer pool needs at least 4 frames")
        if read_ahead < 0:
            raise ValueError("read_ahead must be >= 0")
        self.disk = disk
        self.capacity = capacity
        self.read_ahead = read_ahead
        # Read-ahead state.  ``_last_miss_pid`` is the high-water mark of
        # the most recent forward miss run (advanced by prefetch reads);
        # a miss landing a *small* gap ahead of it means a scan is walking
        # allocation order — not necessarily id-by-id, since a versioned
        # bulk load interleaves history pages between leaves, so the demand
        # stream may stride over ids the scan never asks for.  The staging
        # ring holds prefetched images *outside* the frame table: admitting
        # them directly would let a deep window wash its own head out of a
        # small probation queue before the demand reads arrive.  They stay
        # raw (checksum-verified by the read) until a miss asks for one.
        self._last_miss_pid = -2
        self._window = 0        # pages the next prefetch reads; 0: no run
        self._staged: OrderedDict[int, bytes] = OrderedDict()
        self.stats = BufferStats()
        self._frames: OrderedDict[int, Frame] = OrderedDict()
        self._policy = TwoQPolicy(self)
        self._hot = self._policy.hot
        # Hooks. pre_flush_hooks run on the in-memory page right before it is
        # serialized to disk; log_force is called with the page LSN (WAL rule).
        # durable_lsn is a read-only view of how far the log is durable: a
        # page below it is written back without a physical force.  Victim
        # and companion choice consult it, the WAL rule never does; it is
        # read without the log's latch, and a stale (lower) answer only
        # errs towards passing a frame over, or forcing.
        self.pre_flush_hooks: list[Callable[[Page], None]] = []
        self.log_force: Callable[[int], None] | None = None
        self.durable_lsn: Callable[[], float] = lambda: math.inf
        # Media-fault seam: when a miss reads a page that fails verification
        # (bad checksum, undecodable, wrong id), the handler may return a
        # repaired page (admitted as a clean frame) instead of letting the
        # error propagate.  Set by the media-recovery manager.
        self.fault_handler: Callable[[int, Exception], Page] | None = None
        # Cold-history seam: page ids with ARCHIVE_PID_BIT set are archive
        # references, not disk pages.  When an archive manager is attached
        # it resolves them from the archive store; the returned pages never
        # enter the frame table (they are immutable and must never be
        # flushed), so every read path — as-of routing, history scans, the
        # integrity walker — works unchanged on either tier.
        self.archive_resolver: Callable[[int], Page] | None = None
        # Covers direct buffer calls (flushes, scrub probes) from threads
        # outside the engine latch.  get_page and mark_dirty_page take it
        # by hand: a ``with`` on a C lock costs twice as much.
        self.mutex = threading.RLock()

    # -- fetching ---------------------------------------------------------------

    def get_page(self, page_id: int) -> Page:
        """Fetch a page, reading it from disk on a miss."""
        mutex = self.mutex
        mutex.acquire()
        try:
            frame = self._frames.get(page_id)
            if frame is not None:       # archive refs are never framed
                self.stats.hits += 1
                hot = self._hot
                if page_id in hot:
                    hot.move_to_end(page_id)
                return frame.page
            return self._miss(page_id)
        finally:
            mutex.release()

    def _miss(self, page_id: int) -> Page:
        if page_id & ARCHIVE_PID_BIT and self.archive_resolver is not None:
            return self.archive_resolver(page_id)
        self.stats.misses += 1
        raw: bytes | None = self._staged.pop(page_id, None)
        try:
            if raw is not None:
                # Served from the read-ahead staging ring: no disk read, and
                # the decode a wasted prefetch never pays happens only now.
                self.stats.prefetch_hits += 1
                page = decode_page(raw)
                self._admit(Frame(page))
                return page
            raw = self.disk.read_page(page_id)
        except TransientIOError:
            # Transient by contract: the stored image is fine, a repair
            # would be wrong.  The retry policy already ran at the disk
            # seam; let the caller see the exhaustion.
            raise
        except StorageError as exc:
            if self.fault_handler is None:
                raise
            raw, fault = None, exc
        if raw is not None:
            try:
                page = decode_page(raw)
                if page.page_id != page_id:
                    raise BufferPoolError(
                        f"page {page_id} image claims to be page "
                        f"{page.page_id}"
                    )
            except StorageError as exc:
                # An all-zero image is an allocated-but-never-written page,
                # not media damage — callers rely on the plain error (the
                # PTT rebuilds an empty node from exactly this failure).
                if self.fault_handler is None or not any(raw):
                    raise
                raw, fault = None, exc
        if raw is None:
            page = self.fault_handler(page_id, fault)
            # Repairing may have faulted the page in reentrantly (e.g. the
            # PTT refill reads through the buffer); keep that frame — it may
            # already carry newer, dirty state.
            frame = self._frames.get(page_id)
            if frame is not None:
                return frame.page
            self._admit(Frame(page))
            return page
        gap = page_id - self._last_miss_pid
        self._last_miss_pid = page_id
        self._admit(Frame(page))
        if self.read_ahead > 0:
            if 0 < gap <= max(1, self.read_ahead // 4):
                self._window = min(self.read_ahead, 2 * self._window or 1)
                self._prefetch_from(page_id + 1)
            else:
                self._window = 0
        return page

    def _prefetch_from(self, start_pid: int) -> None:
        """Read the next ``_window`` pages of the extent into the ring.

        OS-style adaptive read-ahead: a single random miss never triggers
        it, a second miss a short forward gap after the first does — a scan
        walking allocation order — and the window ramps up 1, 2, 4 …
        ``read_ahead`` pages while the run lasts, so a range scan of two or
        three leaves pays for at most one page past its end.  The window is
        read contiguously (the disk layer prices every read after the first
        as a sequential transfer); pages the pool already holds are skipped
        rather than used to end it — breaking the id run would turn the
        remainder back into seeks.
        """
        limit = min(start_pid + self._window, self.disk.page_count)
        for pid in range(start_pid, limit):
            if pid in self._frames:
                continue
            try:
                raw = self.disk.read_page(pid)
                readable = Page.read_common_header(raw)[0] == pid
            except StorageError:
                readable = False
            if not readable:
                # Damaged, or allocated and never written (all zeros: id 0):
                # stop this window — the failed read still advanced the disk
                # head, so the next demand miss lands adjacent and
                # re-triggers.  Only a demand request takes the repair path.
                break
            self.stats.prefetches += 1
            # The window extends the miss run: the first demand miss past
            # it lands a short gap ahead and re-triggers immediately.
            self._last_miss_pid = pid
            self._staged[pid] = raw
        while len(self._staged) > 2 * self.read_ahead:
            self._staged.popitem(last=False)

    def new_page(self, factory: Callable[[int], Page]) -> Page:
        """Allocate a fresh page id on disk and cache ``factory(page_id)``."""
        with self.mutex:
            page_id = self.disk.allocate()
            page = factory(page_id)
            if page.page_id != page_id:
                raise BufferPoolError("factory ignored the allocated page id")
            frame = Frame(page, dirty=True, rec_lsn=page.lsn)
            self._admit(frame)
            return page

    def replace_page(self, page: Page) -> None:
        """Swap in a rebuilt in-memory image for an existing page id.

        Page splits rebuild the current page object from scratch; the new
        object takes over the old frame (same page id) and is dirty.
        """
        with self.mutex:
            frame = self._frames.get(page.page_id)
            if frame is None:
                if not self.disk.exists(page.page_id):
                    raise BufferPoolError(f"page {page.page_id} does not exist")
                frame = Frame(page)
                self._admit(frame)
            else:
                frame.page = page
            if not frame.dirty:
                frame.rec_lsn = page.lsn
            frame.dirty = True

    def contains(self, page_id: int) -> bool:
        return page_id in self._frames

    # -- dirty / flush -----------------------------------------------------------

    def mark_dirty(self, page_id: int, rec_lsn: int | None = None) -> None:
        with self.mutex:
            self.mark_dirty_page(self._require_frame(page_id).page, rec_lsn)

    def mark_dirty_page(self, page: Page, rec_lsn: int | None = None) -> None:
        """Make ``page`` the cached, dirty image of its page id.

        The caller's object is the authority: it has logged (or, for a TSB
        node whose split the B-tree logs next, decided) the new state, and
        holds the page unpinned, so by now the frame may be gone or hold an
        older object.  A structure modification's rebuilt pages enter the
        pool this way, after their record (``wal.log.log_smo``); a page the
        operation's own admissions evicted comes back the same way.
        "Dirty" means changed: this invalidates the page's cached image for
        what its mutator methods do not cover (attribute writes, stamping).
        """
        pid = page.page_id
        mutex = self.mutex
        mutex.acquire()
        try:
            frame = self._frames.get(pid)
            if frame is None:
                frame = Frame(page)
                self._admit(frame)
            else:
                frame.page = page
            page._encode_epoch += 1         # page.touch(), without the call
            if not frame.dirty:
                frame.dirty = True
                frame.rec_lsn = rec_lsn if rec_lsn is not None else page.lsn
            hot = self._hot
            if pid in hot:
                hot.move_to_end(pid)
        finally:
            mutex.release()

    def is_dirty(self, page_id: int) -> bool:
        frame = self._frames.get(page_id)
        return frame.dirty if frame else False

    def dirty_page_table(self) -> dict[int, int]:
        """{page_id: recLSN} for every dirty cached page (checkpoint input)."""
        return {
            pid: frame.rec_lsn for pid, frame in self._frames.items() if frame.dirty
        }

    def flush_page(self, page_id: int) -> None:
        with self.mutex:
            frame = self._frames.get(page_id)
            if frame is None or not frame.dirty:
                return
            self._write_back(frame)

    def flush_all(self) -> None:
        # Page-id order: consecutive ids reach the disk layer sequentially,
        # earning its sequential-write credit (and, on real hardware, an
        # elevator-friendly write pattern).
        with self.mutex:
            dirty = [
                self._frames[pid]
                for pid in sorted(self._frames)
                if self._frames[pid].dirty
            ]
            for i in range(0, len(dirty), FLUSH_BATCH):
                self._write_batch(dirty[i:i + FLUSH_BATCH])

    def _write_back(self, frame: Frame) -> None:
        fire("buffer.flush.begin")
        for hook in self.pre_flush_hooks:
            hook(frame.page)
        if self.log_force is not None:
            self.log_force(frame.page.lsn)
        fire("buffer.flush.write")
        self.disk.write_page(frame.page.page_id, frame.page.to_bytes())
        fire("buffer.flush.end")
        frame.dirty = False
        frame.rec_lsn = 0
        self.stats.page_flushes += 1

    def _write_batch(self, frames: list[Frame]) -> None:
        """Write several dirty frames with ONE log force, in page-id order.

        Crash-consistency argument: the hooks (lazy stamping) run first and
        consult ``log.flushed_lsn`` *before* the force, so they stamp no
        version whose commit record is still volatile — exactly as
        conservative as ``flush_page``.  The single force to the batch's
        maximum LSN then satisfies the WAL rule for every page in the
        batch.  A crash between two page writes leaves a prefix of the
        batch durable, which redo recovery already handles (the same state
        a crash between two independent flushes leaves today).
        """
        if not frames:
            return
        fire("buffer.flushbatch.submit")
        for frame in frames:
            for hook in self.pre_flush_hooks:
                hook(frame.page)
        if self.log_force is not None:
            self.log_force(max(frame.page.lsn for frame in frames))
        self.stats.flush_batches += 1
        last_pid: int | None = None
        for frame in sorted(frames, key=lambda f: f.page.page_id):
            fire("buffer.flushbatch.write")
            pid = frame.page.page_id
            self.disk.write_page(pid, frame.page.to_bytes())
            if last_pid is not None and pid == last_pid + 1:
                self.stats.flush_coalesced_writes += 1
            last_pid = pid
            frame.dirty = False
            frame.rec_lsn = 0
            self.stats.page_flushes += 1
        fire("buffer.flushbatch.done")

    def _flush_batch_for(self, victim: Frame) -> None:
        """Evicting a dirty victim: piggyback cold dirty pages on its force.

        The companions stay cached — they are merely clean afterwards, so
        their own eviction (imminent, they are cold) costs no write and no
        force.  This extends the PR-2 ``flush_all`` page-id ordering to the
        eviction path.  A victim the durable log already covers takes only
        companions it covers too: the batch's one force stays a no-op.
        """
        batch = [victim]
        victim_pid = victim.page.page_id
        durable = self.durable_lsn()
        if victim.page.lsn >= durable:
            durable = math.inf      # this batch forces anyway: any companion
        for pid in self._policy.iter_cold():
            if len(batch) >= FLUSH_BATCH:
                break
            if pid == victim_pid:
                continue
            frame = self._frames.get(pid)
            if frame is None or not frame.dirty or frame.exclusive_latch \
                    or frame.page.lsn >= durable:
                continue
            batch.append(frame)
        self._write_batch(batch)

    # -- pinning / latching --------------------------------------------------------

    def pin(self, page_id: int) -> None:
        self._require_frame(page_id).pin_count += 1

    def unpin(self, page_id: int) -> None:
        frame = self._require_frame(page_id)
        if frame.pin_count <= 0:
            raise BufferPoolError(f"page {page_id} is not pinned")
        frame.pin_count -= 1

    def latch_shared(self, page_id: int) -> None:
        frame = self._require_frame(page_id)
        if frame.exclusive_latch:
            raise LatchError(f"page {page_id} is exclusively latched")
        frame.share_latches += 1

    def latch_exclusive(self, page_id: int) -> None:
        frame = self._require_frame(page_id)
        if frame.exclusive_latch or frame.share_latches:
            raise LatchError(f"page {page_id} is already latched")
        frame.exclusive_latch = True

    def unlatch(self, page_id: int) -> None:
        frame = self._require_frame(page_id)
        if frame.exclusive_latch:
            frame.exclusive_latch = False
        elif frame.share_latches:
            frame.share_latches -= 1
        else:
            raise LatchError(f"page {page_id} is not latched")

    # -- crash simulation ------------------------------------------------------------

    def discard_all(self) -> None:
        """Drop every cached page *without* flushing (simulates a crash)."""
        self._frames.clear()
        self._policy.clear()

    def discard_page(self, page_id: int) -> None:
        """Drop one cached page *without* flushing.

        Used when archive migration frees a page: the frame's content has
        moved to the archive store, so writing it back would resurrect the
        image the free just reclaimed.
        """
        with self.mutex:
            if page_id in self._frames:
                del self._frames[page_id]
                self._policy.on_remove(page_id)
            self._staged.pop(page_id, None)

    # -- internals ----------------------------------------------------------------------

    def _require_frame(self, page_id: int) -> Frame:
        frame = self._frames.get(page_id)
        if frame is None:
            raise BufferPoolError(f"page {page_id} is not cached")
        return frame

    def _admit(self, frame: Frame) -> None:
        while len(self._frames) >= self.capacity:
            self._evict_one()
        pid = frame.page.page_id
        # Whatever image the ring staged for this id is now superseded: the
        # admitted frame may be dirtied and evicted, and a later miss must
        # re-read disk, not resurrect the speculative copy.
        self._staged.pop(pid, None)
        self._frames[pid] = frame
        self._policy.on_admit(pid)

    def _evict_one(self) -> None:
        pid, frame = self._policy.select_victim()
        fire("buffer.evict")
        if frame.dirty:
            self.stats.dirty_evictions += 1
            self._flush_batch_for(frame)
        del self._frames[pid]
        self._policy.on_remove(pid)
        self.stats.evictions += 1

    def cached_pages(self) -> Iterator[Page]:
        yield from (frame.page for frame in self._frames.values())

    def __len__(self) -> int:
        return len(self._frames)
