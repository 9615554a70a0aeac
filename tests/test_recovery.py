"""Crash-recovery tests: redo, undo, unlogged timestamping, PTT survival."""

from __future__ import annotations

import random

import pytest

from repro import PROFILES, ColumnType, ImmortalDB, TxnMode
from repro.core.integrity import verify_integrity


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


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: the archive frees a history page's id, a PTT "
    "split takes it without a log record (PTT structure modifications are "
    "not logged), and redo replays the old history page's image over the "
    "PTT node — PageFormatError: page N is not a PTT node",
)
@pytest.mark.parametrize("seed", [0, 1, 2, 8])
def test_restart_after_archive_recycles_ids(tmp_path, seed):
    """A small pool, archive steps between non-flushing checkpoints, an
    un-checkpointed tail: the database must reopen.

    Which seeds expose the hole follows the eviction order, not the hole:
    of seeds 0-15, ten failed (0, 1, 2, 4, 5, 7, 8, 9, 11, 14) until PR 23
    made eviction take log-covered pages first, five (0, 1, 2, 8, 9)
    since.  Fewer exposed seeds is not a fix — nothing about who owns a
    recycled id changed — so an ``XPASS(strict)`` here after a change to
    write-back order means: re-derive four failing seeds, not: delete the
    marker.  Delete it when the recipe passes on all sixteen.
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
    db.close()
