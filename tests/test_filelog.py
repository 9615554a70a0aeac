"""Tests for the file-backed log and cross-process durability."""

from __future__ import annotations

import os

import pytest

from repro import ColumnType, ImmortalDB
from repro.errors import WALError
from repro.faults.failpoints import (
    FailpointRegistry,
    SimulatedCrash,
    installed,
)
from repro.faults.models import tear_log_tail
from repro.storage.framing import scan
from repro.wal import filelog
from repro.wal.filelog import EXTENT_BYTES, FileLogManager
from repro.wal.records import BeginTxn, CommitTxn, LogRecord
from tests.test_framing import damaged_images


COLS = [("k", ColumnType.INT), ("v", ColumnType.TEXT)]

HEADER = FileLogManager.HEADER_BYTES


def _tail_record() -> CommitTxn:
    """The final record the sweeps tear.  Its last byte is not zero, so a
    suffix of it that never landed (reads as zeros) always damages it."""
    return CommitTxn(tid=2, ttime=9, sn=2, ptt=True)


# The final frame the sweep tears: framing (length + crc32) + record bytes.
_TAIL_FRAME = FileLogManager.FRAME_BYTES + len(_tail_record().to_bytes())


def frames_on_disk(path) -> tuple[list[int], list[bytes], int, bytes]:
    """(offsets, record bytes, end of log, whole image) of a log file."""
    with open(path, "rb") as fh:
        data = fh.read()
    return (*scan(data, HEADER), data)


def assert_offsets_are_lsns(path, tids: list[int]) -> None:
    """Reopen: the records are ``tids``, each at the offset its LSN names,
    and nothing but zeros follows the end of the log."""
    log = FileLogManager(path)
    try:
        records = list(log.records_from(0))
        assert [r.tid for r in records] == tids
        offsets, raws, end, data = frames_on_disk(path)
        assert [r.lsn for r in records] == offsets
        assert [LogRecord.decode(raw).tid for raw in raws] == tids
        assert end == log.end_lsn
        assert not any(data[end:])
    finally:
        log.close()


class TestFileLogManager:
    def test_records_survive_reopen(self, tmp_path):
        path = tmp_path / "wal.log"
        log = FileLogManager(path)
        log.append(BeginTxn(tid=1))
        log.append(CommitTxn(tid=1, ttime=9, sn=2, ptt=True))
        log.force()
        log.close()

        reopened = FileLogManager(path)
        records = list(reopened.records_from(0))
        assert [type(r).__name__ for r in records] == ["BeginTxn", "CommitTxn"]
        assert records[1].ttime == 9
        reopened.close()

    def test_unforced_records_never_reach_disk(self, tmp_path):
        path = tmp_path / "wal.log"
        log = FileLogManager(path)
        log.append(BeginTxn(tid=1))
        log.force()
        log.append(BeginTxn(tid=2))   # never forced
        # Simulate the process dying: reopen the file fresh.
        reopened = FileLogManager(path)
        assert [r.tid for r in reopened.records_from(0)] == [1]
        reopened.close()
        log.close()

    def test_appends_continue_after_reopen(self, tmp_path):
        path = tmp_path / "wal.log"
        log = FileLogManager(path)
        log.append(BeginTxn(tid=1))
        log.force()
        log.close()
        reopened = FileLogManager(path)
        reopened.append(BeginTxn(tid=2))
        reopened.force()
        reopened.close()
        final = FileLogManager(path)
        assert [r.tid for r in final.records_from(0)] == [1, 2]
        final.close()

    def test_torn_tail_truncated(self, tmp_path):
        path = tmp_path / "wal.log"
        log = FileLogManager(path)
        log.append(BeginTxn(tid=1))
        log.force()
        end = log.end_lsn
        log.close()
        # Simulate a torn final write: half a frame of garbage.
        with open(path, "r+b") as fh:
            fh.seek(end)
            fh.write(b"\x00\x00\x00\x30\x01\x02")
        reopened = FileLogManager(path)
        assert [r.tid for r in reopened.records_from(0)] == [1]
        reopened.append(BeginTxn(tid=2))
        reopened.force()
        reopened.close()
        final = FileLogManager(path)
        assert [r.tid for r in final.records_from(0)] == [1, 2]
        final.close()

    def _two_record_log(self, path) -> None:
        log = FileLogManager(path)
        log.append(BeginTxn(tid=1))
        log.append(_tail_record())
        log.force()
        log.close()

    def _assert_tail_dropped_and_log_usable(self, path) -> None:
        """The torn frame is discarded; the survivor and appends both work."""
        reopened = FileLogManager(path)
        assert [r.tid for r in reopened.records_from(0)] == [1]
        reopened.append(BeginTxn(tid=3))
        reopened.force()
        reopened.close()
        assert_offsets_are_lsns(path, [1, 3])

    @pytest.mark.parametrize("cut", range(1, _TAIL_FRAME + 1))
    def test_torn_tail_truncation_sweep(self, tmp_path, cut):
        """A partial final write of *any* length is detected and dropped.

        The cut is measured from the end of the log: the file itself is
        preallocated and ends an extent later.
        """
        path = tmp_path / "wal.log"
        self._two_record_log(path)
        tear_log_tail(path, drop_bytes=cut)
        self._assert_tail_dropped_and_log_usable(path)

    @pytest.mark.parametrize("offset", range(1, _TAIL_FRAME + 1))
    def test_garbled_tail_sweep(self, tmp_path, offset):
        """A single bit flipped at any byte of the final frame is caught.

        The flip may land in the length field (frame geometry breaks), the
        CRC field, or the record bytes (CRC32 detects every single-bit
        error) — all must cut the log back to the last good frame.
        """
        path = tmp_path / "wal.log"
        self._two_record_log(path)
        tear_log_tail(path, garble_at=-offset)
        self._assert_tail_dropped_and_log_usable(path)

    def test_master_checkpoint_persists(self, tmp_path):
        path = tmp_path / "wal.log"
        log = FileLogManager(path)
        from repro.wal.records import CheckpointEnd

        lsn = log.append(CheckpointEnd(begin_lsn=16))
        log.force()
        log.set_master_checkpoint(lsn)
        log.close()
        reopened = FileLogManager(path)
        assert reopened.master_checkpoint_lsn == lsn
        reopened.close()

    def test_crash_discards_pending(self, tmp_path):
        path = tmp_path / "wal.log"
        log = FileLogManager(path)
        log.append(BeginTxn(tid=1))
        log.force()
        log.append(BeginTxn(tid=2))
        log.crash()
        log.append(BeginTxn(tid=3))
        log.force()
        assert [r.tid for r in log.records_from(0)] == [1, 3]
        log.close()


def _forced(path, *batches: list[int]) -> FileLogManager:
    """A log with one force per batch of ``BeginTxn`` tids."""
    log = FileLogManager(path)
    for batch in batches:
        for tid in batch:
            log.append(BeginTxn(tid=tid))
        log.force()
    return log


class TestDevicePath:
    """Preallocated extents, positional writes, the zero-tail invariant."""

    def test_a_new_log_is_one_zero_filled_extent(self, tmp_path):
        path = tmp_path / "wal.log"
        log = _forced(path, [1, 2])
        assert os.path.getsize(path) == EXTENT_BYTES
        log.close()
        assert os.path.getsize(path) == EXTENT_BYTES     # close keeps the tail
        assert_offsets_are_lsns(path, [1, 2])

    def test_a_force_never_grows_the_file_inside_an_extent(self, tmp_path):
        path = tmp_path / "wal.log"
        log = _forced(path, [1])
        for tid in range(2, 40):
            log.append(BeginTxn(tid=tid))
            log.force()
            assert os.path.getsize(path) == EXTENT_BYTES
        log.close()

    def test_force_crossing_an_extent_boundary(self, tmp_path):
        path = tmp_path / "wal.log"
        frame = FileLogManager.FRAME_BYTES + len(BeginTxn(tid=1).to_bytes())
        fill = (EXTENT_BYTES - HEADER) // frame - 2
        log = _forced(path, list(range(1, fill + 1)))
        assert os.path.getsize(path) == EXTENT_BYTES
        # This force starts inside the first extent and ends in the second.
        straddle = list(range(fill + 1, fill + 9))
        for tid in straddle:
            log.append(BeginTxn(tid=tid))
        assert log.flushed_lsn < EXTENT_BYTES < log.end_lsn
        log.force()
        assert os.path.getsize(path) == 2 * EXTENT_BYTES
        # And one force two extents long reserves all it needs at once.
        jumbo = list(range(fill + 9, fill + 9 + 2 * EXTENT_BYTES // frame + 5))
        for tid in jumbo:
            log.append(BeginTxn(tid=tid))
        log.force()
        assert os.path.getsize(path) == 4 * EXTENT_BYTES
        log.close()
        assert_offsets_are_lsns(path, list(range(1, jumbo[-1] + 1)))

    def test_pre_extent_log_still_opens(self, tmp_path):
        """A log written before preallocation ends at its end of log."""
        path = tmp_path / "wal.log"
        log = _forced(path, [1, 2])
        end = log.end_lsn
        log.close()
        os.truncate(path, end)
        reopened = FileLogManager(path)
        assert [r.tid for r in reopened.records_from(0)] == [1, 2]
        reopened.append(BeginTxn(tid=3))
        reopened.force()
        assert os.path.getsize(path) == end + EXTENT_BYTES
        reopened.close()
        assert_offsets_are_lsns(path, [1, 2, 3])

    def test_pre_extent_log_with_a_torn_tail(self, tmp_path):
        path = tmp_path / "wal.log"
        log = _forced(path, [1, 2])
        end = log.end_lsn
        log.close()
        os.truncate(path, end - 3)      # the old format's torn final write
        reopened = FileLogManager(path)
        assert [r.tid for r in reopened.records_from(0)] == [1]
        reopened.append(BeginTxn(tid=3))
        reopened.force()
        reopened.close()
        assert_offsets_are_lsns(path, [1, 3])

    def test_file_shorter_than_the_header_is_refused(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(b"\x00" * (HEADER - 1))
        with pytest.raises(WALError):
            FileLogManager(path)

    def test_stale_frames_behind_a_torn_one_never_come_back(self, tmp_path):
        """One force wrote frames 2, 3, 4; 3 and 4 landed, 2 did not.

        Reopening ends the log before 2.  A later record exactly as long as
        2 ends where the stale frame 3 starts: were the tail not zeroed at
        load, the next reopen would read 3 and 4 back as if acknowledged.
        """
        path = tmp_path / "wal.log"
        log = _forced(path, [1], [2, 3, 4])
        torn_at = log._lsns[1]
        log.close()
        tear_log_tail(path, garble_at=torn_at + FileLogManager.FRAME_BYTES)
        offsets, raws, end, data = frames_on_disk(path)
        assert end == torn_at               # the scan stops at frame 2 ...
        assert scan(data, log._lsns[2])[0] == log._lsns[2:]   # ... 3, 4 valid

        reopened = FileLogManager(path)
        assert [r.tid for r in reopened.records_from(0)] == [1]
        assert not any(frames_on_disk(path)[3][torn_at:])   # zeroed at load
        reopened.append(BeginTxn(tid=5))    # same length as the torn frame
        reopened.force()
        assert reopened.end_lsn == log._lsns[2]
        reopened.close()
        assert_offsets_are_lsns(path, [1, 5])

    def test_failed_write_is_retried_in_place(self, tmp_path):
        path = tmp_path / "wal.log"
        log = _forced(path, [1])
        log.append(BeginTxn(tid=2))
        registry = FailpointRegistry()

        def fail(event) -> None:
            raise OSError("injected: device write failed")

        registry.on("filelog.write", fail, once=True)
        with installed(registry):
            with pytest.raises(OSError):
                log.force()
            assert log.flushed_lsn < log.end_lsn
            log.append(BeginTxn(tid=3))
            log.force()
        assert log.flushed_lsn == log.end_lsn
        log.close()
        assert_offsets_are_lsns(path, [1, 2, 3])

    def test_partial_write_is_overwritten_by_the_retry(self, tmp_path, monkeypatch):
        """Half the frames reach the file, then the write fails.  The retry
        must put the same frames at the same offsets, not behind the half."""
        path = tmp_path / "wal.log"
        log = _forced(path, [1])
        for tid in (2, 3, 4):
            log.append(BeginTxn(tid=tid))
        real_pwrite = os.pwrite
        state = {"failed": False}

        def flaky(fd, data, offset):
            if not state["failed"] and any(data):
                state["failed"] = True
                real_pwrite(fd, bytes(data[: len(data) // 2]), offset)
                raise OSError("injected: write failed part-way")
            return real_pwrite(fd, data, offset)

        monkeypatch.setattr(filelog.os, "pwrite", flaky)
        with pytest.raises(OSError):
            log.force()
        assert state["failed"] and log.flushed_lsn < log.end_lsn
        log.append(BeginTxn(tid=5))
        log.force()
        log.close()
        assert_offsets_are_lsns(path, [1, 2, 3, 4, 5])

    def test_short_writes_are_completed(self, tmp_path, monkeypatch):
        real_pwrite = os.pwrite
        monkeypatch.setattr(
            filelog.os, "pwrite",
            lambda fd, data, offset: real_pwrite(fd, bytes(data[:7]), offset),
        )
        path = tmp_path / "wal.log"
        _forced(path, [1, 2], [3]).close()
        monkeypatch.undo()
        assert_offsets_are_lsns(path, [1, 2, 3])

    def test_partial_write_then_crash_leaves_a_zero_tail(self, tmp_path, monkeypatch):
        path = tmp_path / "wal.log"
        log = _forced(path, [1])
        for tid in (2, 3, 4):
            log.append(BeginTxn(tid=tid))
        real_pwrite = os.pwrite

        def half_then_fail(fd, data, offset):
            real_pwrite(fd, bytes(data[: len(data) // 2]), offset)
            raise OSError("injected: write failed part-way")

        with monkeypatch.context() as patch:
            patch.setattr(filelog.os, "pwrite", half_then_fail)
            with pytest.raises(OSError):
                log.force()
        log.crash()
        assert not any(frames_on_disk(path)[3][log.end_lsn:])
        log.append(BeginTxn(tid=6))
        log.force()
        log.close()
        assert_offsets_are_lsns(path, [1, 6])

    @pytest.mark.parametrize("point", ["filelog.write", "filelog.fsync"])
    def test_crash_mid_force_keeps_offsets_equal_to_lsns(self, tmp_path, point):
        path = tmp_path / "wal.log"
        log = _forced(path, [1, 2])
        for tid in (3, 4, 5):
            log.append(BeginTxn(tid=tid))
        registry = FailpointRegistry()
        registry.crash_on(point)
        with installed(registry):
            with pytest.raises(SimulatedCrash):
                log.force()
        log.crash()
        assert log.end_lsn == log.flushed_lsn
        assert not any(frames_on_disk(path)[3][log.end_lsn:])
        log.append(BeginTxn(tid=6))     # shorter than what the dead force wrote
        log.force()
        log.close()
        assert_offsets_are_lsns(path, [1, 2, 6])


class TestLastTwoForcesSweep:
    """Damage at every byte offset of the last two forces.

    No ``crashtest`` sweep runs on a file-backed log's *bytes*: failpoints
    crash between calls, not inside a device write.  Here the image a real
    crash could leave is built directly: a force torn at byte ``cut`` (the
    rest never landed and reads as zeros), or one byte of it garbled with
    every later frame intact (the stale-tail case at every offset).
    """

    BATCHES = ([1, 2], [3, 4, 5], [6, 7, 8])

    @pytest.fixture(scope="class")
    def base(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("sweep") / "wal.log"
        log = FileLogManager(path)
        starts = []
        for batch in self.BATCHES:
            starts.append(log.end_lsn)
            for tid in batch:
                # Non-zero trailing bytes: a missing suffix always shows.
                log.append(CommitTxn(tid=tid, ttime=tid, sn=tid, ptt=True))
            log.force()
        end = log.end_lsn
        log.close()
        offsets, raws, scanned_end, data = frames_on_disk(path)
        assert scanned_end == end
        return data, offsets + [end], starts[1], end

    @staticmethod
    def _surviving(data: bytes, image: bytes, bounds: list[int]) -> int:
        """Leading frames the damage left byte-for-byte alone."""
        count = 0
        for a, b in zip(bounds, bounds[1:]):
            if image[a:b] != data[a:b]:
                break
            count += 1
        return count

    def _check(self, tmp_path, data, image, bounds, label) -> None:
        path = tmp_path / "wal.log"
        path.write_bytes(image)
        tids = [t for batch in self.BATCHES for t in batch]
        expect = tids[: self._surviving(data, image, bounds)]
        log = FileLogManager(path)
        assert [r.tid for r in log.records_from(0)] == expect, label
        log.append(BeginTxn(tid=99))
        log.force()
        log.close()
        assert_offsets_are_lsns(path, expect + [99])

    def test_torn_at_every_offset(self, tmp_path, base):
        data, bounds, start, end = base
        for cut in range(start, end):
            image = data[:cut] + bytes(len(data) - cut)
            self._check(tmp_path, data, image, bounds, f"torn at {cut}")

    def test_garbled_at_every_offset(self, tmp_path, base):
        data, bounds, start, end = base
        for at in range(start, end):
            image = bytearray(data)
            image[at] ^= 0x40
            self._check(tmp_path, data, bytes(image), bounds, f"garbled at {at}")

    def test_damaged_frame_table(self, tmp_path, base):
        """The table every reader of the frame format is held to."""
        data, bounds, _, _ = base
        for label, damaged, good in damaged_images(scan(data, HEADER)[1]):
            image = data[:HEADER] + damaged
            image += bytes(len(data) - len(image))      # the zero tail
            assert self._surviving(data, image, bounds) == good, label
            self._check(tmp_path, data, image, bounds, label)


class TestCrossProcessDurability:
    """The engine-level payoff: kill -9 between force and close."""

    def _simulate_hard_kill(self, db: ImmortalDB) -> None:
        """Drop the engine without close(): only forced state remains."""
        # Unforced log records live only in memory (frames are built at
        # force time), so they die with the process.
        db.log._file.close()
        # Cached dirty pages die with the process too (nothing to do: the
        # next open reads the disk file).

    def test_committed_work_survives_hard_kill(self, tmp_path):
        path = str(tmp_path / "db.pages")
        db = ImmortalDB(path, buffer_pages=32)
        table = db.create_table("t", COLS, key="k", immortal=True)
        with db.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "durable"})
        mark = db.now()
        db.advance_time(1000)
        with db.transaction() as txn:
            table.update(txn, 1, {"v": "also durable"})
        self._simulate_hard_kill(db)

        db2 = ImmortalDB(path, buffer_pages=32)
        table2 = db2.table("t")
        with db2.transaction() as txn:
            assert table2.read(txn, 1)["v"] == "also durable"
        assert table2.read_as_of(mark, 1)["v"] == "durable"
        db2.close()

    def test_open_transaction_rolled_back_across_processes(self, tmp_path):
        path = str(tmp_path / "db.pages")
        db = ImmortalDB(path, buffer_pages=32)
        table = db.create_table("t", COLS, key="k", immortal=True)
        with db.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "committed"})
        loser = db.begin()
        table.update(loser, 1, {"v": "in-flight"})
        db.log.force()
        db.buffer.flush_all()
        self._simulate_hard_kill(db)

        db2 = ImmortalDB(path, buffer_pages=32)
        with db2.transaction() as txn:
            assert db2.table("t").read(txn, 1)["v"] == "committed"
        db2.close()

    def test_tids_never_repeat_across_opens(self, tmp_path):
        path = str(tmp_path / "db.pages")
        db = ImmortalDB(path, buffer_pages=32)
        table = db.create_table("t", COLS, key="k", immortal=True)
        with db.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "a"})
        first_tid = txn.tid
        db.close()

        db2 = ImmortalDB(path, buffer_pages=32)
        txn = db2.begin()
        assert txn.tid > first_tid
        db2.table("t").update(txn, 1, {"v": "b"})
        db2.commit(txn)
        # The new commit's PTT entry is its own, not a collision.
        assert db2.ptt.lookup(txn.tid) == txn.commit_ts
        db2.close()

    def test_repeated_kill_reopen_cycles(self, tmp_path):
        path = str(tmp_path / "db.pages")
        expected: dict[int, str] = {}
        for generation in range(5):
            db = ImmortalDB(path, buffer_pages=32)
            if generation == 0:
                table = db.create_table("t", COLS, key="k", immortal=True)
            else:
                table = db.table("t")
                with db.transaction() as txn:
                    got = {r["k"]: r["v"] for r in table.scan(txn)}
                assert got == expected
            with db.transaction() as txn:
                key = generation % 3
                if key in expected:
                    table.update(txn, key, {"v": f"g{generation}"})
                else:
                    table.insert(txn, {"k": key, "v": f"g{generation}"})
                expected[key] = f"g{generation}"
            self._simulate_hard_kill(db)
        db = ImmortalDB(path, buffer_pages=32)
        with db.transaction() as txn:
            got = {r["k"]: r["v"] for r in db.table("t").scan(txn)}
        assert got == expected
        db.close()
