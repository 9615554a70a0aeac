"""Tests for the buffer pool: caching, dirty tracking, hooks, latching."""

from __future__ import annotations

import pytest

from repro.errors import BufferExhaustedError, BufferPoolError, LatchError
from repro.storage.buffer import FLUSH_BATCH, BufferPool
from repro.storage.disk import PageStore, stamp_checksum
from repro.storage.page import DataPage
from repro.storage.record import RecordVersion


@pytest.fixture
def disk():
    return PageStore()


@pytest.fixture
def pool(disk):
    return BufferPool(disk, capacity=4)


def new_data_page(pool: BufferPool) -> DataPage:
    return pool.new_page(lambda pid: DataPage(pid))


class TestCaching:
    def test_new_page_is_cached_and_dirty(self, pool):
        page = new_data_page(pool)
        assert pool.contains(page.page_id)
        assert pool.is_dirty(page.page_id)

    def test_get_page_hits_cache(self, pool):
        page = new_data_page(pool)
        again = pool.get_page(page.page_id)
        assert again is page
        assert pool.stats.hits == 1

    def test_miss_reads_from_disk(self, pool, disk):
        page = new_data_page(pool)
        pid = page.page_id
        pool.flush_all()
        pool.discard_all()
        fetched = pool.get_page(pid)
        assert fetched.page_id == pid
        assert pool.stats.misses == 1

    def test_eviction_respects_capacity(self, pool):
        for _ in range(10):
            new_data_page(pool)
        assert len(pool) <= 4
        assert pool.stats.evictions >= 6

    def test_eviction_flushes_dirty_pages(self, pool, disk):
        pages = [new_data_page(pool) for _ in range(4)]
        first = pages[0]
        first.insert_version(RecordVersion.new(b"k", b"v", 1))
        new_data_page(pool)  # evicts `first`
        raw = disk.read_page(first.page_id)
        assert raw == stamp_checksum(first.to_bytes())

    def test_pinned_pages_survive_eviction(self, pool):
        page = new_data_page(pool)
        pool.pin(page.page_id)
        for _ in range(8):
            new_data_page(pool)
        assert pool.contains(page.page_id)
        pool.unpin(page.page_id)

    def test_all_pinned_pool_exhausted(self, disk):
        pool = BufferPool(disk, capacity=4)
        for _ in range(4):
            page = new_data_page(pool)
            pool.pin(page.page_id)
        with pytest.raises(BufferPoolError):
            new_data_page(pool)


class TestDirtyTracking:
    def test_flush_clears_dirty(self, pool):
        page = new_data_page(pool)
        pool.flush_page(page.page_id)
        assert not pool.is_dirty(page.page_id)

    def test_dirty_page_table_reports_rec_lsns(self, pool):
        page = new_data_page(pool)
        pool.flush_page(page.page_id)
        page.lsn = 500
        pool.mark_dirty(page.page_id, 123)
        assert pool.dirty_page_table() == {page.page_id: 123}

    def test_rec_lsn_sticks_to_first_dirtying(self, pool):
        page = new_data_page(pool)
        pool.flush_page(page.page_id)
        pool.mark_dirty(page.page_id, 100)
        pool.mark_dirty(page.page_id, 200)
        assert pool.dirty_page_table()[page.page_id] == 100

    def test_flush_all(self, pool):
        for _ in range(3):
            new_data_page(pool)
        pool.flush_all()
        assert pool.dirty_page_table() == {}


class TestHooks:
    def test_pre_flush_hook_runs_before_serialization(self, pool, disk):
        page = new_data_page(pool)
        page.insert_version(RecordVersion.new(b"k", b"v", 5))

        def hook(p):
            if isinstance(p, DataPage) and p.head(b"k") is not None:
                from repro.clock import Timestamp

                head = p.head(b"k")
                if not head.is_timestamped:
                    head.stamp(Timestamp(777, 0))

        pool.pre_flush_hooks.append(hook)
        pool.flush_page(page.page_id)
        from repro.storage.page import decode_page

        decoded = decode_page(disk.read_page(page.page_id))
        assert decoded.head(b"k").is_timestamped

    def test_wal_rule_forces_log_before_write(self, pool):
        forced = []
        pool.log_force = forced.append
        page = new_data_page(pool)
        page.lsn = 42
        pool.flush_page(page.page_id)
        assert forced == [42]


class TestLatching:
    def test_shared_latches_stack(self, pool):
        page = new_data_page(pool)
        pool.latch_shared(page.page_id)
        pool.latch_shared(page.page_id)
        pool.unlatch(page.page_id)
        pool.unlatch(page.page_id)

    def test_exclusive_conflicts_with_shared(self, pool):
        page = new_data_page(pool)
        pool.latch_shared(page.page_id)
        with pytest.raises(LatchError):
            pool.latch_exclusive(page.page_id)
        pool.unlatch(page.page_id)

    def test_shared_conflicts_with_exclusive(self, pool):
        page = new_data_page(pool)
        pool.latch_exclusive(page.page_id)
        with pytest.raises(LatchError):
            pool.latch_shared(page.page_id)
        pool.unlatch(page.page_id)

    def test_unlatch_without_latch_fails(self, pool):
        page = new_data_page(pool)
        with pytest.raises(LatchError):
            pool.unlatch(page.page_id)

    def test_latched_pages_not_evicted(self, pool):
        page = new_data_page(pool)
        pool.latch_exclusive(page.page_id)
        for _ in range(8):
            new_data_page(pool)
        assert pool.contains(page.page_id)
        pool.unlatch(page.page_id)


class TestReplacePage:
    def test_replace_swaps_object(self, pool):
        page = new_data_page(pool)
        rebuilt = DataPage(page.page_id)
        rebuilt.insert_version(RecordVersion.new(b"z", b"1", 1))
        pool.replace_page(rebuilt)
        assert pool.get_page(page.page_id) is rebuilt
        assert pool.is_dirty(page.page_id)

    def test_replace_unknown_page_fails(self, pool):
        with pytest.raises(BufferPoolError):
            pool.replace_page(DataPage(424242))

    def test_replace_uncached_but_existing_page(self, pool, disk):
        page = new_data_page(pool)
        pid = page.page_id
        pool.flush_all()
        pool.discard_all()
        rebuilt = DataPage(pid)
        pool.replace_page(rebuilt)
        assert pool.get_page(pid) is rebuilt


class TestCrashSimulation:
    def test_discard_loses_unflushed_changes(self, pool, disk):
        page = new_data_page(pool)
        pid = page.page_id
        pool.flush_page(pid)
        page.insert_version(RecordVersion.new(b"k", b"v", 1))
        pool.mark_dirty(pid)
        pool.discard_all()
        fetched = pool.get_page(pid)
        assert fetched.head(b"k") is None


# -- PR 6: eviction policies, batched flushing, read-ahead ---------------------


def fill_disk_pages(disk, count: int, start_key: int = 0) -> list[int]:
    """Write ``count`` standalone data pages straight to disk; return ids."""
    pids = []
    for i in range(count):
        pid = disk.allocate()
        page = DataPage(pid)
        page.insert_version(
            RecordVersion.new(str(start_key + i).encode(), b"v", 1)
        )
        disk.write_page(pid, page.to_bytes())
        pids.append(pid)
    return pids


class TestBufferExhausted:
    def test_exhaustion_is_typed_with_breakdown(self, pool):
        pages = [new_data_page(pool) for _ in range(4)]
        for page in pages[:3]:
            pool.pin(page.page_id)
        pool.latch_exclusive(pages[3].page_id)
        with pytest.raises(BufferExhaustedError) as exc_info:
            new_data_page(pool)
        err = exc_info.value
        assert err.capacity == 4
        assert err.pinned == 3
        assert err.latched == 1
        assert isinstance(err, BufferPoolError)  # callers catching the
        # broad pool error keep working

    def test_unknown_policy_rejected(self):
        # 2Q is the one policy; the engine takes the name at "2q" only
        # (test_engine.py holds "lru" to that too).
        from repro import ImmortalDB

        for unknown in ("arc", "clock"):
            with pytest.raises(ValueError):
                ImmortalDB(eviction=unknown)


class TestTwoQPolicy:
    def test_one_touch_pages_do_not_displace_reaccessed_ones(self, disk):
        # Pool of 8: kin=1, kout=4.  Pages promoted via ghost re-fault land
        # in Am and survive a scan of one-touch pages.
        pool = BufferPool(disk, capacity=8)
        hot = fill_disk_pages(disk, 2)
        scan = fill_disk_pages(disk, 20, start_key=100)
        # First touch: hot pages enter probation, get evicted, ghosted.
        for pid in hot:
            pool.get_page(pid)
        for pid in scan[:8]:
            pool.get_page(pid)
        # Re-fault while ghosted: promoted straight to Am.
        for pid in hot:
            pool.get_page(pid)
        # A long one-touch scan now churns probation only.
        for pid in scan[8:]:
            pool.get_page(pid)
        assert all(pool.contains(pid) for pid in hot)

    def test_reaccess_in_probation_does_not_promote(self, disk):
        pool = BufferPool(disk, capacity=8)
        pids = fill_disk_pages(disk, 12)
        first = pids[0]
        pool.get_page(first)
        pool.get_page(first)  # hit while still in A1in: no promotion
        for pid in pids[1:]:
            pool.get_page(pid)
        # Enough one-touch traffic flushed it out of probation despite the
        # second access — the scan-resistance property 2Q is for.
        assert not pool.contains(first)


class TestBatchedFlush:
    def _dirty_pool(self, disk, *, count=10):
        pool = BufferPool(disk, capacity=16)
        forces = []
        pool.log_force = forces.append
        pages = [new_data_page(pool) for _ in range(count)]
        for i, page in enumerate(pages):
            page.lsn = i + 1
            pool.mark_dirty(page.page_id, i + 1)
        return pool, pages, forces

    def test_flush_all_batches_with_one_force_per_batch(self, disk):
        pool, pages, forces = self._dirty_pool(disk)
        pool.flush_all()
        assert pool.stats.flush_batches == 2           # 10 pages / batch of 8
        assert len(forces) == 2                        # one force per batch
        assert forces[0] == max(p.lsn for p in pages[:FLUSH_BATCH])
        assert not any(pool.is_dirty(p.page_id) for p in pages)

    def test_batch_writes_in_page_id_order_and_counts_coalesced(self, disk):
        pool, pages, _ = self._dirty_pool(disk, count=FLUSH_BATCH)
        order = []
        real_write = disk.write_page
        disk.write_page = lambda pid, raw: (order.append(pid),
                                            real_write(pid, raw))[1]
        pool.flush_all()
        assert order == sorted(order)
        # new_page allocates consecutively, so every write after the first
        # lands adjacent to its predecessor.
        assert pool.stats.flush_coalesced_writes == len(pages) - 1

    def test_dirty_eviction_piggybacks_cold_dirty_companions(self, disk):
        pool = BufferPool(disk, capacity=4)
        pages = [new_data_page(pool) for _ in range(4)]
        assert all(pool.is_dirty(p.page_id) for p in pages)
        new_data_page(pool)  # one eviction...
        assert pool.stats.dirty_evictions == 1
        assert pool.stats.flush_batches == 1
        # ...but the batch wrote the victim AND cold companions, leaving
        # them cached-and-clean: their own eviction later costs nothing.
        assert pool.stats.page_flushes >= 2

    def test_flushbatch_failpoints_fire(self, disk):
        from repro.faults.failpoints import FailpointRegistry, installed

        pool, _, _ = self._dirty_pool(disk)
        reg = FailpointRegistry()
        reg.trace_on()
        with installed(reg):
            pool.flush_all()
        trace = reg.trace or []
        assert "buffer.flushbatch.submit" in trace
        assert "buffer.flushbatch.write" in trace
        assert "buffer.flushbatch.done" in trace
        assert trace.index("buffer.flushbatch.submit") < trace.index(
            "buffer.flushbatch.write"
        )

    def test_flush_page_writes_one_page_under_its_own_force(self, disk):
        # The one unbatched write-back: the boot page, archive relinks and
        # repair write a single page.
        pool, pages, forces = self._dirty_pool(disk)
        pool.flush_page(pages[3].page_id)
        assert pool.stats.flush_batches == 0
        assert forces == [pages[3].lsn]
        assert [p.page_id for p in pages if not pool.is_dirty(p.page_id)] \
            == [pages[3].page_id]


class TestReadAhead:
    def test_negative_read_ahead_rejected(self, disk):
        with pytest.raises(ValueError):
            BufferPool(disk, capacity=8, read_ahead=-1)

    def test_sequential_misses_trigger_prefetch(self, disk):
        pids = fill_disk_pages(disk, 32)
        pool = BufferPool(disk, capacity=8, read_ahead=4)
        pool.get_page(pids[0])
        pool.get_page(pids[1])  # gap 1: scan detected, window staged
        assert pool.stats.prefetches > 0
        before = pool.disk.stats.reads
        pool.get_page(pids[2])  # served from the staging ring
        assert pool.stats.prefetch_hits == 1
        assert pool.disk.stats.reads == before

    def test_window_doubles_while_the_run_lasts(self, disk):
        pids = fill_disk_pages(disk, 40)
        pool = BufferPool(disk, capacity=8, read_ahead=4)
        windows = []
        for pid in pids[:16] + pids[30:32]:
            before = pool.stats.prefetches
            pool.get_page(pid)
            if pool.stats.prefetches > before:
                windows.append(pool.stats.prefetches - before)
        # Demand misses at 1, 3, 6 and 11 extend the run; the jump to 30
        # ends it, and 31 starts over with one page.
        assert windows == [1, 2, 4, 4, 1]
        assert pool.stats.prefetch_hits == 11

    def test_random_misses_never_prefetch(self, disk):
        pids = fill_disk_pages(disk, 32)
        pool = BufferPool(disk, capacity=8, read_ahead=4)
        for pid in (pids[0], pids[20], pids[5], pids[28]):
            pool.get_page(pid)
        assert pool.stats.prefetches == 0

    def test_disabled_by_default(self, disk):
        pids = fill_disk_pages(disk, 8)
        pool = BufferPool(disk, capacity=8)
        for pid in pids:
            pool.get_page(pid)
        assert pool.stats.prefetches == 0
        assert not pool._staged

    def test_admit_supersedes_staged_copy(self, disk):
        # A page admitted (and possibly rewritten) after being staged must
        # not be resurrected from the speculative copy on a later miss.
        pids = fill_disk_pages(disk, 32)
        pool = BufferPool(disk, capacity=8, read_ahead=4)
        pool.get_page(pids[0])
        pool.get_page(pids[1])            # stages pids[2]
        assert pids[2] in pool._staged
        page = pool.get_page(pids[2])     # staged copy becomes THE frame
        assert pids[2] not in pool._staged
        page.insert_version(RecordVersion.new(b"new", b"x", 9))
        pool.mark_dirty(page.page_id)
        pool.flush_page(page.page_id)
        pool.discard_all()
        assert pool.get_page(pids[2]).head(b"new") is not None

    def test_window_stops_at_unreadable_page(self, disk):
        pids = fill_disk_pages(disk, 4)
        hole = disk.allocate()            # allocated, never written
        more = fill_disk_pages(disk, 4, start_key=50)
        pool = BufferPool(disk, capacity=8, read_ahead=8)
        for pid in pids:                  # the second window (two pages)
            pool.get_page(pid)            # hits the hole and stops
        assert hole not in pool._staged
        assert all(pid not in pool._staged for pid in more)
        # The demand path still reads past the hole normally.
        assert pool.get_page(more[0]).page_id == more[0]


class TestMarkDirtyPage:
    def test_readmits_evicted_page_object(self, disk):
        pool = BufferPool(disk, capacity=4)
        page = new_data_page(pool)
        for _ in range(6):
            new_data_page(pool)           # evicts `page`
        assert not pool.contains(page.page_id)
        page.insert_version(RecordVersion.new(b"k2", b"v2", 3))
        pool.mark_dirty_page(page, 3)     # re-admits the mutated object
        assert pool.contains(page.page_id)
        assert pool.get_page(page.page_id) is page
        assert pool.is_dirty(page.page_id)

    def test_installs_a_rebuilt_object_over_the_cached_one(self, disk):
        # How a structure modification's pages enter the pool, after their
        # log record: the rebuilt object replaces the one the frame holds.
        pool = BufferPool(disk, capacity=4)
        old = new_data_page(pool)
        pool.flush_all()
        rebuilt = DataPage(old.page_id)
        rebuilt.lsn = 77
        pool.mark_dirty_page(rebuilt, 77)
        assert pool.get_page(old.page_id) is rebuilt
        assert pool.dirty_page_table() == {old.page_id: 77}

    def test_plain_mark_dirty_still_raises_for_uncached(self, disk):
        pool = BufferPool(disk, capacity=4)
        page = new_data_page(pool)
        for _ in range(6):
            new_data_page(pool)
        with pytest.raises(BufferPoolError):
            pool.mark_dirty(page.page_id)


# -- PR 23: eviction takes log-covered pages first ------------------------------


class StubLog:
    """Durable below ``flushed``; ``force`` records only *physical* forces."""

    def __init__(self, flushed: int) -> None:
        self.flushed = flushed
        self.physical: list[int] = []

    def force(self, lsn: int) -> None:
        if lsn >= self.flushed:
            self.physical.append(lsn)
            self.flushed = lsn + 1


class TestCoveredFirstEviction:
    """2Q passes over a dirty frame whose LSN the log has not made durable:
    its write-back would force the log ahead of the group commit."""

    def _pool(self, disk, *, flushed, capacity=8):
        """A full pool of clean one-touch pages (all in A1in, FIFO order)
        over a stub log, and three more page ids to fault in; every image
        that reaches the disk from here on is checked against the WAL rule
        and its page id recorded."""
        pool = BufferPool(disk, capacity=capacity)
        log = StubLog(flushed)
        pool.log_force = log.force
        pool.durable_lsn = lambda: log.flushed
        pids = fill_disk_pages(disk, capacity + 3)
        pages = [pool.get_page(pid) for pid in pids[:capacity]]
        written = []
        real_write = disk.write_page

        def write_page(pid, raw):
            assert pool._frames[pid].page.lsn < log.flushed, "WAL rule broken"
            written.append(pid)
            real_write(pid, raw)

        disk.write_page = write_page
        return pool, log, pages, pids[capacity:], written

    @staticmethod
    def _dirty(pool, page, lsn):
        page.lsn = lsn
        pool.mark_dirty(page.page_id, lsn)

    def test_clean_and_covered_frames_go_first_without_a_force(self, disk):
        pool, log, pages, spare, written = self._pool(disk, flushed=50)
        self._dirty(pool, pages[0], 100)        # above the durable prefix
        self._dirty(pool, pages[1], 50)         # at the boundary: not durable
        self._dirty(pool, pages[2], 10)         # covered
        self._dirty(pool, pages[5], 101)        # a cold companion, uncovered
        pool.get_page(spare[0])
        # The two uncovered frames at the cold end were passed over for the
        # covered dirty one; its batch took no uncovered companion.
        assert written == [pages[2].page_id]
        assert not pool.contains(pages[2].page_id)
        assert pool.stats.evict_uncovered_skips == 2
        pool.get_page(spare[1])                 # then the clean ones
        pool.get_page(spare[2])
        assert not pool.contains(pages[3].page_id)
        assert not pool.contains(pages[4].page_id)
        assert all(pool.is_dirty(pages[i].page_id) for i in (0, 1, 5))
        assert written == [pages[2].page_id]
        assert log.physical == []
        assert pool.stats.evict_scan_skips == 0

    def test_every_frame_uncovered_still_evicts_and_forces_first(self, disk):
        pool, log, pages, spare, written = self._pool(
            disk, flushed=50, capacity=4
        )
        for i, page in enumerate(pages):
            self._dirty(pool, page, 100 + i)
        pool.get_page(spare[0])
        # The victim is the one eviction took before the rule: the oldest
        # probation page.  write_page above saw the force ahead of it.
        assert not pool.contains(pages[0].page_id)
        assert pages[0].page_id in written
        assert pool.stats.dirty_evictions == 1
        assert log.physical == [103]            # one force for the batch
        assert len(written) == 4

    def test_a_passed_over_frame_is_the_next_victim_once_covered(self, disk):
        pool, log, pages, spare, written = self._pool(
            disk, flushed=50, capacity=4
        )
        self._dirty(pool, pages[0], 100)
        pool.pin(pages[2].page_id)
        pool.latch_shared(pages[3].page_id)
        pool.get_page(spare[0])                 # passes 0 over, takes 1
        assert pool.contains(pages[0].page_id)
        assert not pool.contains(pages[1].page_id)
        assert (pool.stats.evict_uncovered_skips,
                pool.stats.evict_scan_skips) == (1, 0)
        pool.get_page(spare[1])                 # still uncovered: another lap
        assert pool.contains(pages[0].page_id)
        assert not pool.contains(spare[0])
        assert (pool.stats.evict_uncovered_skips,
                pool.stats.evict_scan_skips) == (2, 2)
        log.flushed = 200                       # a group commit forces
        pool.get_page(spare[2])
        assert not pool.contains(pages[0].page_id)
        assert written == [pages[0].page_id]
        assert log.physical == []
        # Pinned and latched frames count where they always did, only.
        assert (pool.stats.evict_uncovered_skips,
                pool.stats.evict_scan_skips) == (2, 4)
