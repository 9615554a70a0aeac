"""Tests for the file-backed log and cross-process durability."""

from __future__ import annotations

import os
import random
import sys
import threading
import tracemalloc

import pytest

from repro import ColumnType, ImmortalDB
from repro.errors import LogFormatError, WALError
from repro.faults.failpoints import (
    FailpointRegistry,
    SimulatedCrash,
    installed,
)
from repro.faults.models import FaultyDevice
from repro.storage.device import FileDevice
from repro.storage.framing import scan
from repro.wal import filelog
from repro.wal.filelog import EXTENT_BYTES, FileLogManager
from repro.wal.log import LogManager
from repro.wal.records import BeginTxn, CommitTxn, LogRecord, VersionOp
from tests.test_framing import damaged_images


COLS = [("k", ColumnType.INT), ("v", ColumnType.TEXT)]

HEADER = FileLogManager.HEADER_BYTES


def _tail_record() -> CommitTxn:
    """The final record the sweeps tear.  Its last byte is not zero, so a
    suffix of it that never landed (reads as zeros) always damages it."""
    return CommitTxn(tid=2, ttime=9, sn=2, page_id=1)


# The final frame the sweep tears: framing (length + crc32) + record bytes.
_TAIL_FRAME = FileLogManager.FRAME_BYTES + len(_tail_record().to_bytes())


def tear_log_tail(
    path: str | os.PathLike,
    *,
    drop_bytes: int = 0,
    garble_at: int | None = None,
) -> int:
    """Mangle the tail of a log file like an OS crash mid-write would (the
    framing CRC must catch it on the next open).

    The log file is preallocated, so its tail is measured from the *end of
    the log* (the end of its last valid frame), not from the file's size.
    ``drop_bytes`` zeroes that many bytes before the end of the log (a final
    write of which only a prefix landed); ``garble_at`` flips one bit at
    that file offset (negative offsets count from the end of the log).
    Returns the offset the intact bytes now end at.
    """
    device = FileDevice(path)
    try:
        data = device.read(device.size, 0)
        end = scan(data, FileLogManager.HEADER_BYTES)[2]
        if drop_bytes:
            keep = max(0, end - drop_bytes)
            device.write(bytes(end - keep), keep)
            end = keep
        if garble_at is not None:
            offset = garble_at if garble_at >= 0 else end + garble_at
            if not 0 <= offset < len(data):
                raise ValueError(f"garble offset {garble_at} outside file")
            device.write(bytes([data[offset] ^ 0x01]), offset)
        device.sync()
    finally:
        device.close()
    return end


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
        log.append(CommitTxn(tid=1, ttime=9, sn=2, page_id=1))
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
        log = FileLogManager(path)
        lsns = []
        for batch in ([1], [2, 3, 4]):
            lsns += [log.append(BeginTxn(tid=tid)) for tid in batch]
            log.force()
        torn_at = lsns[1]
        log.close()
        tear_log_tail(path, garble_at=torn_at + FileLogManager.FRAME_BYTES)
        offsets, raws, end, data = frames_on_disk(path)
        assert end == torn_at               # the scan stops at frame 2 ...
        assert scan(data, lsns[2])[0] == lsns[2:]   # ... 3, 4 valid

        reopened = FileLogManager(path)
        assert [r.tid for r in reopened.records_from(0)] == [1]
        assert not any(frames_on_disk(path)[3][torn_at:])   # zeroed at load
        reopened.append(BeginTxn(tid=5))    # same length as the torn frame
        reopened.force()
        assert reopened.end_lsn == lsns[2]
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
        # The file keeps the frames the half write landed whole; the torn
        # one behind them is zeroed as the log reloads.
        kept = [r.tid for r in log.records_from(0)]
        assert kept in ([1], [1, 2], [1, 2, 3])
        assert not any(frames_on_disk(path)[3][log.end_lsn:])
        log.append(BeginTxn(tid=6))
        log.force()
        log.close()
        assert_offsets_are_lsns(path, [*kept, 6])

    @pytest.mark.parametrize("point,power_loss,tids", [
        pytest.param("filelog.write", False, [1, 2, 6], id="filelog.write"),
        # A killed process: the frames are in the file, unsynced or not.
        pytest.param("filelog.fsync", False, [1, 2, 3, 4, 5, 6],
                     id="filelog.fsync"),
        # The power went before the sync, and the write with it.
        pytest.param("filelog.fsync", True, [1, 2, 6],
                     id="filelog.fsync-power-loss"),
    ])
    def test_crash_mid_force_keeps_offsets_equal_to_lsns(
        self, tmp_path, point, power_loss, tids,
    ):
        path = tmp_path / "wal.log"
        device = FaultyDevice(FileDevice(path))
        log = FileLogManager(device, FileDevice(f"{path}.master"))
        for tid in (1, 2):
            log.append(BeginTxn(tid=tid))
        log.force()
        for tid in (3, 4, 5):
            log.append(BeginTxn(tid=tid))
        registry = FailpointRegistry()
        registry.crash_on(point)
        with installed(registry):
            with pytest.raises(SimulatedCrash):
                log.force()
        if power_loss:
            device.lose_power()
        log.crash()
        assert log.end_lsn == log.flushed_lsn
        assert not any(frames_on_disk(path)[3][log.end_lsn:])
        log.append(BeginTxn(tid=6))     # shorter than what the dead force wrote
        log.force()
        log.close()
        assert_offsets_are_lsns(path, tids)


class TestLastTwoForcesSweep:
    """Damage at every byte offset of the last two forces.

    ``crashtest --file`` crashes a file-backed log, but its failpoints crash
    between calls, never inside a device write.  Here the image a real
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
                log.append(CommitTxn(tid=tid, ttime=tid, sn=tid, page_id=1))
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
        db.log.device.close()
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


class _WideLog(LogManager):
    """The in-memory log with the file's frame width, so LSNs line up."""

    FRAME_BYTES = FileLogManager.FRAME_BYTES


def _assert_same_answers(got: LogManager, want: LogManager, every_lsn: bool):
    """``got`` answers every reader's question exactly as ``want`` does."""

    def records_from(log, lsn):
        return [(r.lsn, r) for r in log.records_from(lsn)]

    assert (len(got), got.end_lsn, got.flushed_lsn) \
        == (len(want), want.end_lsn, want.flushed_lsn)
    records = records_from(want, 0)
    assert records_from(got, 0) == records
    assert list(got.durable_frames(0)) == list(want.durable_frames(0))
    if every_lsn:
        for lsn, record in records:
            assert records_from(got, lsn) == records_from(want, lsn)
            assert got.record_at(lsn) == record
            assert got.record_at(lsn).lsn == lsn
            assert list(got.durable_frames(lsn)) \
                == list(want.durable_frames(lsn))


class TestTheFileIsTheLog:
    """A written record is read back from the file, and only from there."""

    @pytest.mark.parametrize("seed", range(3))
    def test_file_and_memory_logs_answer_alike(self, tmp_path, seed):
        """Seeded appends, forces, crashes and reopens, fed to both logs.

        Record sizes run from an empty payload to one frame longer than the
        file reader's chunk, so frames straddle chunk boundaries.
        """
        rng = random.Random(seed)
        path = tmp_path / "wal.log"
        got, want = FileLogManager(path), _WideLog()
        for step in range(240):
            roll = rng.random()
            if roll < 0.6:
                size = 70 * 1024 if rng.random() < 0.02 \
                    else rng.choice((0, 40, 700, 5000))
                record = VersionOp(
                    tid=step, key=b"k%d" % step, payload=rng.randbytes(size)
                )
                assert got.append(record) == want.append(record)
            elif roll < 0.72:
                got.force()
                want.force()
            elif roll < 0.77 and len(want):
                upto = rng.choice([r.lsn for r in want.records_from(0)])
                got.force(upto)
                want.force(upto)
            elif roll < 0.82 and got.end_lsn > got.flushed_lsn:
                # Killed inside a force: what was written survives.
                registry = FailpointRegistry()
                point = rng.choice(("filelog.write", "filelog.fsync", "log.force"))
                registry.crash_on(point)
                with installed(registry), pytest.raises(SimulatedCrash):
                    got.force()
                got.crash()
                if point != "filelog.write":
                    want.force()    # the file has the frames: they load
                want.crash()
            elif roll < 0.88:
                got.crash()
                want.crash()
            elif roll < 0.94:
                # Killed between forces: the unforced tail never reached
                # the file.
                got.device.close()
                got = FileLogManager(path)
                want.crash()
            else:
                got.close()
                got = FileLogManager(path)
                want.force()
            _assert_same_answers(got, want, every_lsn=step % 60 == 59)
        got.close()

    @pytest.mark.parametrize("where,offset", [
        ("length", 0), ("length", 3), ("crc", 5), ("payload", 11),
    ])
    def test_a_damaged_frame_is_named_not_decoded(self, tmp_path, where, offset):
        path = tmp_path / "wal.log"
        log = FileLogManager(path)
        lsns = [
            log.append(VersionOp(tid=tid, key=b"k", payload=b"v" * 40))
            for tid in (1, 2, 3)
        ]
        log.force()
        with open(path, "r+b") as fh:       # behind the open log's back
            fh.seek(lsns[1] + offset)
            byte = fh.read(1)[0]
            fh.seek(lsns[1] + offset)
            fh.write(bytes([byte ^ 0x01]))
        assert log.record_at(lsns[0]).tid == 1
        named = f"damaged log frame at LSN {lsns[1]}$"
        with pytest.raises(LogFormatError, match=named):
            log.record_at(lsns[1])
        with pytest.raises(LogFormatError, match=named):
            list(log.records_from(0))
        with pytest.raises(LogFormatError, match=named):
            list(log.durable_frames(lsns[0]))
        log.close()

    @pytest.mark.parametrize("point", ["filelog.write", "filelog.fsync"])
    def test_a_reader_inside_a_force_finds_each_record_once(
        self, tmp_path, point
    ):
        """Before the write the records are the tail's; after it, the
        file's — never both, never neither."""
        log = _forced(tmp_path / "wal.log", [1, 2])
        for tid in (3, 4):
            log.append(BeginTxn(tid=tid))
        seen = []
        registry = FailpointRegistry()
        registry.on(point, lambda event: seen.append(
            [r.tid for r in log.records_from(0)]
        ))
        with installed(registry):
            log.force()
        assert seen == [[1, 2, 3, 4]]
        assert len(log) == 4
        log.close()

    def test_readers_race_appends_and_forces(self, tmp_path):
        """Four writers append and force while a reader scans, switching
        threads every few microseconds: each scan is gap-free and holds
        every record once, wherever the hand-over had got to."""
        log = FileLogManager(tmp_path / "wal.log")
        log.mutex, log.force_order = threading.RLock(), threading.Lock()
        done, problems = threading.Event(), []

        def writer(w: int) -> None:
            for i in range(250):
                log.append(VersionOp(tid=w * 1000 + i, payload=bytes(i % 90)))
                if i % 7 == 0:
                    log.force()

        def reader() -> None:
            try:
                while not done.is_set():
                    expect = HEADER
                    for record in log.records_from(0):
                        if record.lsn != expect:
                            problems.append((record.lsn, expect))
                        expect = record.lsn + log.FRAME_BYTES \
                            + len(record.to_bytes())
            except Exception as exc:    # noqa: BLE001 - reported below
                problems.append(exc)

        writers = [threading.Thread(target=writer, args=(w,)) for w in range(4)]
        scanner = threading.Thread(target=reader)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(5e-6)
        try:
            for thread in (*writers, scanner):
                thread.start()
            for thread in writers:
                thread.join(timeout=60)
        finally:
            done.set()
            scanner.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in (*writers, scanner))
        assert problems == []
        log.force()
        assert len(log) == 1000
        assert sorted(r.tid for r in log.records_from(0)) == sorted(
            w * 1000 + i for w in range(4) for i in range(250)
        )
        log.close()

    def test_abort_rolls_back_from_the_file(self, tmp_path, monkeypatch):
        """A group-commit force carried the loser's records into the file;
        its rollback walks the backchain there."""
        db = ImmortalDB(str(tmp_path / "db.pages"), group_commit_window=8)
        table = db.create_table("t", COLS, key="k", immortal=True)
        with db.transaction() as txn:
            for k in range(4):
                table.insert(txn, {"k": k, "v": "old"})
        loser = db.begin()
        for k in range(4):
            table.update(loser, k, {"v": "new"})
        with db.transaction() as txn:
            table.insert(txn, {"k": 9, "v": "other"})
        db.flush_commits()
        assert loser.last_lsn < db.log.flushed_lsn
        assert not db.log._lsns              # the tail holds nothing
        reads = []
        real_read = FileLogManager._read_device

        def read_device(log, lsn, upto):
            reads.append(lsn)
            return real_read(log, lsn, upto)

        monkeypatch.setattr(FileLogManager, "_read_device", read_device)
        db.abort(loser)
        assert loser.last_lsn in reads
        with db.transaction() as txn:
            assert [table.read(txn, k)["v"] for k in range(4)] == ["old"] * 4
            assert table.read(txn, 9)["v"] == "other"
        db.close()


_WAL_SOURCES = tracemalloc.Filter(True, os.path.join("*", "repro", "wal", "*"))


@pytest.fixture(scope="module")
def eight_mib_log(tmp_path_factory):
    """(path, records, bytes traced to ``repro/wal``) after 8 MiB of
    forced appends, the log still open."""
    path = tmp_path_factory.mktemp("big") / "wal.log"
    payload = bytes(1000)
    tracemalloc.start()
    try:
        log = FileLogManager(path)
        tid = 0
        while log.end_lsn < 8 << 20:
            for _ in range(64):
                tid += 1
                log.append(VersionOp(tid=tid, key=b"k", payload=payload))
            log.force()
        snapshot = tracemalloc.take_snapshot().filter_traces([_WAL_SOURCES])
    finally:
        tracemalloc.stop()
    log.close()
    return path, tid, sum(s.size for s in snapshot.statistics("filename"))


class TestMemoryBound:
    """What a file-backed log holds does not grow with the log."""

    def test_written_records_leave_nothing_resident(self, eight_mib_log):
        _, _, resident = eight_mib_log
        assert resident < 256 * 1024

    def test_reopening_holds_a_chunk_not_the_file(self, eight_mib_log):
        path, records, _ = eight_mib_log
        tracemalloc.start()
        try:
            log = FileLogManager(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(log) == records
        log.close()
        assert peak < 1 << 20

    @staticmethod
    def _traced_after_eight_mib(path, media_recovery: bool) -> int:
        """Bytes still traced once an engine on ``path`` has logged 8 MiB
        of ~1 KB versioned updates, the engine still open.  Checkpoints
        never flush, so the page backup is never refreshed."""
        tracemalloc.start()
        try:
            db = ImmortalDB(
                path, buffer_pages=64, media_recovery=media_recovery
            )
            table = db.create_table("t", COLS, key="k", immortal=True)
            with db.transaction() as txn:
                for k in range(200):
                    table.insert(txn, {"k": k, "v": "x"})
            n = 0
            while db.log.end_lsn < 8 << 20:
                n += 1
                db.advance_time(10)
                with db.transaction() as txn:
                    for j in range(29):
                        table.update(txn, (n * 29 + j) % 200,
                                     {"v": f"{n}-{j}" + "y" * 1000})
                db.checkpoint(flush=False)
            traced = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        db.close()
        return traced

    def test_media_recovery_holds_no_copy_of_the_log(self, tmp_path):
        # Restore reads a page's records back from the log file: what
        # media recovery keeps per record is an LSN, not its bytes.
        on = self._traced_after_eight_mib(tmp_path / "on.pages", True)
        off = self._traced_after_eight_mib(tmp_path / "off.pages", False)
        assert on - off < 1 << 20
