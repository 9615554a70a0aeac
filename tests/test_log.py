"""Tests for the log manager: LSNs, durability, crash truncation."""

from __future__ import annotations

import pytest

from repro.errors import WALError
from repro.storage.buffer import BufferPool
from repro.storage.disk import InMemoryDisk
from repro.storage.page import DataPage
from repro.wal.log import LogManager
from repro.wal.records import BeginTxn, CheckpointEnd, CommitTxn


class TestAppend:
    def test_lsns_are_byte_offsets(self):
        log = LogManager()
        a = log.append(BeginTxn(tid=1))
        b = log.append(BeginTxn(tid=2))
        assert a == LogManager.HEADER_BYTES
        assert b > a
        assert log.end_lsn > b

    def test_no_record_gets_lsn_zero(self):
        log = LogManager()
        assert log.append(BeginTxn(tid=1)) > 0

    def test_next_lsn_predicts_append(self):
        log = LogManager()
        predicted = log.next_lsn
        assert log.append(BeginTxn(tid=1)) == predicted

    def test_stats_track_bytes(self):
        log = LogManager()
        log.append(BeginTxn(tid=1))
        assert log.stats.appends == 1
        assert log.stats.bytes_appended == log.end_lsn - LogManager.HEADER_BYTES


class TestScan:
    def test_records_from_start(self):
        log = LogManager()
        for tid in (1, 2, 3):
            log.append(BeginTxn(tid=tid))
        assert [r.tid for r in log.records_from(0)] == [1, 2, 3]

    def test_records_from_middle(self):
        log = LogManager()
        log.append(BeginTxn(tid=1))
        mid = log.append(BeginTxn(tid=2))
        log.append(BeginTxn(tid=3))
        assert [r.tid for r in log.records_from(mid)] == [2, 3]

    def test_scan_decodes_payloads(self):
        log = LogManager()
        log.append(CommitTxn(tid=5, ttime=77, sn=3, ptt=True))
        rec = next(iter(log.records_from(0)))
        assert isinstance(rec, CommitTxn)
        assert (rec.ttime, rec.sn, rec.ptt) == (77, 3, True)

    def test_record_at_exact_lsn(self):
        log = LogManager()
        lsn = log.append(BeginTxn(tid=9))
        assert log.record_at(lsn).tid == 9

    def test_record_at_bogus_lsn_fails(self):
        log = LogManager()
        log.append(BeginTxn(tid=1))
        with pytest.raises(WALError):
            log.record_at(5)

    def test_scanned_records_carry_their_lsn(self):
        log = LogManager()
        lsns = [log.append(BeginTxn(tid=t)) for t in (1, 2)]
        assert [r.lsn for r in log.records_from(0)] == lsns


class TestDurability:
    def test_force_advances_flushed_lsn(self):
        log = LogManager()
        log.append(BeginTxn(tid=1))
        log.force()
        assert log.flushed_lsn == log.end_lsn

    def test_redundant_force_not_counted(self):
        log = LogManager()
        log.append(BeginTxn(tid=1))
        log.force()
        log.force()
        assert log.stats.forces == 1

    def test_force_up_to_lsn(self):
        log = LogManager()
        a = log.append(BeginTxn(tid=1))
        log.force(a)
        assert log.flushed_lsn >= a

    def test_force_of_the_record_at_the_durable_boundary_forces(self):
        """An LSN is a start offset: ``flushed_lsn == L`` does not hold L."""
        log = LogManager()
        log.append(BeginTxn(tid=1))
        log.force()
        boundary = log.append(BeginTxn(tid=2))
        assert boundary == log.flushed_lsn < log.end_lsn
        log.force(boundary)
        assert log.flushed_lsn > boundary
        assert log.stats.forces == 2
        log.crash()
        assert [r.tid for r in log.records_from(0)] == [1, 2]

    def test_force_of_a_durable_or_absent_record_is_a_noop(self):
        log = LogManager()
        a = log.append(BeginTxn(tid=1))
        b = log.append(BeginTxn(tid=2))
        log.force(b)
        for lsn in (0, a, b, log.end_lsn, log.end_lsn + 99):
            log.force(lsn)      # durable already / no record there
        assert log.stats.forces == 1

    def test_crash_discards_unforced_suffix(self):
        log = LogManager()
        log.append(BeginTxn(tid=1))
        log.force()
        log.append(BeginTxn(tid=2))  # never forced
        log.crash()
        assert [r.tid for r in log.records_from(0)] == [1]

    def test_crash_then_append_continues(self):
        log = LogManager()
        log.append(BeginTxn(tid=1))
        log.force()
        log.append(BeginTxn(tid=2))
        log.crash()
        log.append(BeginTxn(tid=3))
        assert [r.tid for r in log.records_from(0)] == [1, 3]

    def test_crash_with_nothing_forced_empties_log(self):
        log = LogManager()
        log.append(BeginTxn(tid=1))
        log.crash()
        assert len(log) == 0


class TestMasterRecord:
    def test_master_requires_durable_checkpoint(self):
        log = LogManager()
        lsn = log.append(CheckpointEnd(begin_lsn=0))
        with pytest.raises(WALError):
            log.set_master_checkpoint(lsn)
        log.force()
        log.set_master_checkpoint(lsn)
        assert log.master_checkpoint_lsn == lsn


class TestWriteAheadRule:
    """No page reaches the disk before the record its LSN names is durable."""

    @pytest.mark.parametrize("flush_batch", [0, 4])
    def test_page_at_the_durable_boundary_forces_before_its_write(
        self, flush_batch
    ):
        log, disk = LogManager(), InMemoryDisk()
        pool = BufferPool(disk, capacity=8, flush_batch=flush_batch)
        pool.log_force = log.force
        page = pool.new_page(lambda pid: DataPage(pid, table_id=1))
        log.append(BeginTxn(tid=1))
        log.force()
        # The page's last record is the first one past the durable prefix.
        page.lsn = log.append(BeginTxn(tid=2))
        assert page.lsn == log.flushed_lsn
        pool.mark_dirty(page.page_id, page.lsn)
        durable_at_write = []
        real_write = disk.write_page

        def write_page(pid, raw):
            durable_at_write.append(log.flushed_lsn > page.lsn)
            real_write(pid, raw)

        disk.write_page = write_page
        if flush_batch:
            pool.flush_all()                # the batched path (_write_batch)
            assert pool.stats.flush_batches == 1
        else:
            pool.flush_page(page.page_id)   # the per-page path (_write_back)
        assert durable_at_write == [True]

    @pytest.mark.parametrize("flush_batch", [0, 4])
    def test_2q_evicting_pages_at_the_durable_boundary_forces_first(
        self, flush_batch
    ):
        # Every frame is dirty at or past the durable prefix, so covered-first
        # victim selection finds nothing and falls back: whichever images
        # the eviction writes, each one's record is durable by then.
        log, disk = LogManager(), InMemoryDisk()
        pool = BufferPool(disk, capacity=4, eviction="2q", flush_batch=flush_batch)
        pool.log_force = log.force
        pool.durable_lsn = lambda: log.flushed_lsn
        log.append(BeginTxn(tid=1))
        log.force()
        pages = [pool.new_page(lambda pid: DataPage(pid, table_id=1))
                 for _ in range(4)]
        for tid, page in enumerate(pages, start=2):
            page.lsn = log.append(BeginTxn(tid=tid))
            pool.mark_dirty(page.page_id, page.lsn)
        assert pages[0].lsn == log.flushed_lsn
        durable_at_write = []
        real_write = disk.write_page

        def write_page(pid, raw):
            durable_at_write.append(log.flushed_lsn > pages[pid - 1].lsn)
            real_write(pid, raw)

        disk.write_page = write_page
        forces = log.stats.forces
        pool.new_page(lambda pid: DataPage(pid, table_id=1))   # evicts
        assert durable_at_write == [True] * (4 if flush_batch else 1)
        assert log.stats.forces == forces + 1
        assert pool.stats.evict_uncovered_skips == 4
