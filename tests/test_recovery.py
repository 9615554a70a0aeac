"""Crash-recovery tests: redo, undo, unlogged timestamping, PTT survival."""

from __future__ import annotations

import random

import pytest

from repro import PROFILES, ColumnType, ImmortalDB, TxnMode
from repro.core.integrity import page_accounting, verify_integrity
from repro.wal.checkpoint import CheckpointManager


@pytest.fixture
def db():
    return ImmortalDB(buffer_pages=64)


COLS = [("k", ColumnType.INT), ("v", ColumnType.TEXT)]


@pytest.fixture
def table(db):
    return db.create_table("t", COLS, key="k", immortal=True)


class TestRedo:
    def test_committed_data_survives_crash(self, db, table):
        with db.transaction() as txn:
            for k in range(20):
                table.insert(txn, {"k": k, "v": f"v{k}"})
        db.crash_and_recover()
        table = db.table("t")
        with db.transaction() as txn:
            rows = table.scan(txn)
        assert len(rows) == 20
        assert rows[7]["v"] == "v7"

    def test_history_survives_crash(self, db, table):
        with db.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "old"})
        past = db.now()
        db.advance_time(1000)
        with db.transaction() as txn:
            table.update(txn, 1, {"v": "new"})
        db.crash_and_recover()
        assert db.table("t").read_as_of(past, 1)["v"] == "old"

    def test_redo_after_partial_flush(self, db, table):
        with db.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "flushed"})
        db.buffer.flush_all()
        with db.transaction() as txn:
            table.update(txn, 1, {"v": "only-in-log"})
        report = db.crash_and_recover()
        assert report.redo_applied >= 1
        with db.transaction() as txn:
            assert db.table("t").read(txn, 1)["v"] == "only-in-log"

    def test_time_splits_survive_crash(self, db, table):
        for i in range(400):
            with db.transaction() as txn:
                table.update(txn, 1, {"v": "x" * 80}) if i else \
                    table.insert(txn, {"k": 1, "v": "x" * 80})
        assert db.table("t").btree.stats.time_splits >= 1
        past_mid = db.now()
        db.advance_time(1000)
        with db.transaction() as txn:
            table.update(txn, 1, {"v": "final"})
        db.crash_and_recover()
        table = db.table("t")
        assert table.read_as_of(past_mid, 1)["v"] == "x" * 80
        with db.transaction() as txn:
            assert table.read(txn, 1)["v"] == "final"

    def test_recovery_is_idempotent(self, db, table):
        with db.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "a"})
        db.crash_and_recover()
        db.crash_and_recover()
        db.crash_and_recover()
        with db.transaction() as txn:
            assert db.table("t").read(txn, 1)["v"] == "a"
        assert len(db.table("t").history(1)) == 1


class TestUndo:
    def test_uncommitted_transaction_rolled_back(self, db, table):
        with db.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "committed"})
        loser = db.begin()
        table.update(loser, 1, {"v": "uncommitted"})
        table.insert(loser, {"k": 2, "v": "uncommitted"})
        # Force pages so the loser's versions are on disk.
        db.buffer.flush_all()
        report = db.crash_and_recover()
        assert loser.tid in report.losers
        assert report.undo_actions == 2
        table = db.table("t")
        with db.transaction() as txn:
            assert table.read(txn, 1)["v"] == "committed"
            assert table.read(txn, 2) is None

    def test_loser_without_flushed_pages_also_undone(self, db, table):
        loser = db.begin()
        table.insert(loser, {"k": 9, "v": "ghost"})
        # Log records are volatile until forced; force so analysis sees them.
        db.log.force()
        db.crash_and_recover()
        with db.transaction() as txn:
            assert db.table("t").read(txn, 9) is None

    def test_unforced_loser_vanishes_with_the_log(self, db, table):
        loser = db.begin()
        table.insert(loser, {"k": 9, "v": "ghost"})
        report = db.crash_and_recover()
        assert report.losers == []
        with db.transaction() as txn:
            assert db.table("t").read(txn, 9) is None

    def test_crash_during_recovery_undo_is_safe(self, db, table):
        """CLRs make undo restartable: crash again right after recovery."""
        with db.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "base"})
        loser = db.begin()
        table.update(loser, 1, {"v": "loser"})
        db.buffer.flush_all()
        db.crash_and_recover()
        db.crash_and_recover()  # second crash replays CLRs
        with db.transaction() as txn:
            assert db.table("t").read(txn, 1)["v"] == "base"


class TestUnloggedTimestamping:
    def test_lazy_timestamping_finishes_after_crash(self, db, table):
        """Redo recreates TID-marked versions; the PTT finishes the job."""
        with db.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "a"})
        commit_ts = txn.commit_ts
        db.crash_and_recover()
        table = db.table("t")
        key = table.codec.encode_key(1)
        leaf = table.btree.search_leaf(key)
        head = leaf.head(key)
        # Version was recreated TID-marked by redo...
        with db.transaction() as txn:
            table.read(txn, 1)  # read trigger stamps it
        assert leaf.head(key).is_timestamped
        # ... with exactly the original commit timestamp, via the PTT.
        assert leaf.head(key).timestamp == commit_ts

    def test_ptt_entries_survive_crash(self, db, table):
        with db.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "a"})
        tid = txn.tid
        db.crash_and_recover()
        assert db.ptt.lookup(tid) is not None

    def test_gcd_ptt_entries_stay_gone_after_crash(self, db, table):
        with db.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "a"})
        tid = txn.tid
        with db.transaction() as txn:
            table.update(txn, 1, {"v": "b"})   # stamps the insert
        with db.transaction() as txn:
            table.read(txn, 1)                  # stamps the update
        db.checkpoint(flush=True)
        db.checkpoint(flush=True)
        assert db.ptt.lookup(tid) is None       # collected
        db.crash_and_recover()
        assert db.ptt.lookup(tid) is None       # PTTDelete was replayed

    def test_crash_strands_unfinished_ptt_entries(self, db, table):
        """Volatile RefCounts are lost; the PTT entry is stranded (accepted)."""
        with db.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "a"})
        tid = txn.tid
        db.crash_and_recover()
        # Stamp everything, checkpoint twice: still not collectable, because
        # the post-crash VTT entry has an undefined RefCount.
        with db.transaction() as txn:
            table = db.table("t")
            table.read(txn, 1)
        db.checkpoint(flush=True)
        db.checkpoint(flush=True)
        assert db.ptt.lookup(tid) is not None


class TestCheckpoints:
    def test_recovery_starts_from_checkpoint(self, db, table):
        for k in range(10):
            with db.transaction() as txn:
                table.insert(txn, {"k": k, "v": "x"})
        db.checkpoint(flush=True)
        with db.transaction() as txn:
            table.insert(txn, {"k": 100, "v": "after-ckpt"})
        report = db.crash_and_recover()
        assert report.checkpoint_lsn > 0
        assert report.redo_scan_start >= db.checkpoints.redo_scan_start() or True
        with db.transaction() as txn:
            assert db.table("t").read(txn, 100)["v"] == "after-ckpt"

    def test_fuzzy_checkpoint_without_flush(self, db, table):
        with db.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "dirty"})
        db.checkpoint(flush=False)  # DPT is non-empty
        with db.transaction() as txn:
            table.update(txn, 1, {"v": "newer"})
        db.crash_and_recover()
        with db.transaction() as txn:
            assert db.table("t").read(txn, 1)["v"] == "newer"

    def test_active_txn_in_checkpoint_undone(self, db, table):
        loser = db.begin()
        table.insert(loser, {"k": 1, "v": "loser"})
        db.checkpoint(flush=True)   # ATT includes the loser
        report = db.crash_and_recover()
        assert loser.tid in report.losers
        with db.transaction() as txn:
            assert db.table("t").read(txn, 1) is None


class TestConventionalTables:
    def test_in_place_updates_redo_and_undo(self, db):
        plain = db.create_table("p", COLS, key="k")
        with db.transaction() as txn:
            plain.insert(txn, {"k": 1, "v": "base"})
        with db.transaction() as txn:
            plain.update(txn, 1, {"v": "committed-update"})
        loser = db.begin()
        plain.update(loser, 1, {"v": "loser-update"})
        db.buffer.flush_all()
        db.crash_and_recover()
        plain = db.table("p")
        with db.transaction() as txn:
            assert plain.read(txn, 1)["v"] == "committed-update"

    def test_conventional_commits_survive_without_ptt(self, db):
        plain = db.create_table("p", COLS, key="k")
        with db.transaction() as txn:
            plain.insert(txn, {"k": 1, "v": "kept"})
        db.crash_and_recover()
        plain = db.table("p")
        with db.transaction() as txn:
            assert plain.read(txn, 1)["v"] == "kept"
        # No PTT entries were ever created for the conventional table.
        assert db.tsmgr.stats.ptt_inserts == 0


class TestTidFloor:
    """A reopened database never hands out a TID the log already names:
    analysis and redo report the largest they read, and the checkpoint's
    floor covers the TIDs before it."""

    @staticmethod
    def _killed_and_reopened(db: ImmortalDB, path: str) -> ImmortalDB:
        db.log._file.close()        # no close(): only the forced log is left
        db.disk.close()             # (its pages are in the file already)
        return ImmortalDB(path, buffer_pages=64)

    def test_a_loser_after_the_checkpoint(self, tmp_path):
        path = str(tmp_path / "db.pages")
        db = ImmortalDB(path, buffer_pages=64)
        table = db.create_table("t", COLS, key="k", immortal=True)
        with db.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "a"})
        db.checkpoint(flush=True)
        loser = db.begin()
        table.update(loser, 1, {"v": "lost"})
        db.log.force()
        reopened = self._killed_and_reopened(db, path)
        assert reopened.begin().tid > loser.tid
        reopened.close()

    def test_a_checkpoint_without_a_floor_reads_the_whole_log(
        self, tmp_path, monkeypatch
    ):
        """A checkpoint written before it carried ``max_tid`` decodes it as
        0; the TIDs before it are then only in the log."""
        path = str(tmp_path / "db.pages")
        db = ImmortalDB(path, buffer_pages=64)
        table = db.create_table("t", COLS, key="k", immortal=True)
        with db.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "a"})
        aborted = db.begin()
        table.update(aborted, 1, {"v": "b"})
        db.abort(aborted)               # in no PTT, before the checkpoint
        db.checkpoint(flush=True)
        monkeypatch.setattr(
            CheckpointManager, "checkpointed_max_tid", lambda self: 0
        )
        reopened = self._killed_and_reopened(db, path)
        assert reopened.begin().tid > aborted.tid
        reopened.close()


@pytest.mark.parametrize("seed", range(16))
def test_restart_after_archive_recycles_ids(tmp_path, seed):
    """A small pool, archive steps between non-flushing checkpoints, an
    un-checkpointed tail: the database must reopen, whole and with every
    page id accounted for.

    The archive frees history pages' ids and PTT splits take them.  Redo
    replays each id's old history image, then the PTT image that reused
    it, in log order, under the page LSN; it used to re-insert PTT entries
    by descending whatever tree reached the disk, and failed with "page N
    is not a PTT node" on seeds 0, 1, 2 and 8.
    """
    rng = random.Random(seed)
    db = ImmortalDB(
        str(tmp_path / "db.pages"), buffer_pages=64,
        archive=dict(cold_ms=5000, pages_per_step=32), **PROFILES["tuned"],
    )
    table = db.create_table("t", COLS, key="k", immortal=True)
    for base in range(0, 600, 100):
        with db.transaction() as txn:
            for k in range(base, base + 100):
                table.insert(txn, {"k": k, "v": "x" * rng.choice((32, 256))})

    def update():
        db.advance_time(40)
        with db.transaction() as txn:
            table.update(
                txn, rng.randrange(600),
                {"v": "y" * rng.choice((32, 256, 1024))},
            )

    for _ in range(6):
        for _ in range(200):
            update()
        db.checkpoint()
    assert db.archive.stats.pages_migrated > 0
    for _ in range(300):
        update()
    db.flush_commits()
    db.crash()
    db.recover()
    assert verify_integrity(db) == []
    assert page_accounting(db).orphans == []
    db.close()
