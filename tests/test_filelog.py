"""Tests for the file-backed log and cross-process durability."""

from __future__ import annotations

import os

import pytest

from repro import ColumnType, ImmortalDB
from repro.faults.models import tear_log_tail
from repro.wal.filelog import FileLogManager
from repro.wal.records import BeginTxn, CommitTxn


COLS = [("k", ColumnType.INT), ("v", ColumnType.TEXT)]

# The final frame the sweep tears: framing (length + crc32) + record bytes.
_TAIL_FRAME = FileLogManager.FRAME_BYTES + len(BeginTxn(tid=2).to_bytes())


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
        log.close()
        # Simulate a torn final write: half a frame of garbage.
        with open(path, "ab") as fh:
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
        log.append(BeginTxn(tid=2))
        log.force()
        log.close()

    def _assert_tail_dropped_and_log_usable(self, path) -> None:
        """The torn frame is discarded; the survivor and appends both work."""
        reopened = FileLogManager(path)
        assert [r.tid for r in reopened.records_from(0)] == [1]
        reopened.append(BeginTxn(tid=3))
        reopened.force()
        reopened.close()
        final = FileLogManager(path)
        assert [r.tid for r in final.records_from(0)] == [1, 3]
        final.close()

    @pytest.mark.parametrize("cut", range(1, _TAIL_FRAME + 1))
    def test_torn_tail_truncation_sweep(self, tmp_path, cut):
        """A partial final write of *any* length is detected and dropped."""
        path = tmp_path / "wal.log"
        self._two_record_log(path)
        tear_log_tail(path, drop_bytes=cut)
        self._assert_tail_dropped_and_log_usable(path)

    @pytest.mark.parametrize("offset", range(1, _TAIL_FRAME + 1))
    def test_garbled_tail_sweep(self, tmp_path, offset):
        """A single bit flipped at any byte of the final frame is caught.

        The flip may land in the length field (frame geometry breaks), the
        CRC field, or the record bytes (CRC32 detects every single-bit
        error) — all must truncate to the last good frame.
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
