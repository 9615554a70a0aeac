"""Group commit: batching, durable acks, crash semantics, stamping gate.

The engine's ``group_commit_window`` batches commit-time log forces: commits
enqueue their (already appended) commit records and a single force durably
acknowledges the whole batch.  These tests pin down the contract:

* forces drop by ~the window factor while every commit still gets acked,
* a crash between enqueue and force rolls the un-acked batch back cleanly,
* lazy stamping refuses to stamp versions whose commit record is not yet
  durable (stamping is never logged, so a stamped version reaching disk
  ahead of its commit record would survive a crash that rolls it back),
* the fault-injection harness stays clean with group commit enabled,
  including at the new ``txn.groupcommit.*`` failpoints,
* a force is staged (begin, sync, finish) and only *sync* — the device
  write — runs outside the engine latch, without ever acking early.
"""

from __future__ import annotations

import threading

import pytest

from repro import ColumnType, ImmortalDB
from repro.cluster import ShardRouter
from repro.faults.crashtest import CrashTestConfig, enumerate_crossings, explore
from repro.faults.failpoints import FailpointRegistry, SimulatedCrash, installed
from repro.workers.pool import WorkerPool

COLS = [("k", ColumnType.INT), ("v", ColumnType.TEXT)]


def make_db(window: int) -> ImmortalDB:
    return ImmortalDB(buffer_pages=64, group_commit_window=window)


def make_table(db: ImmortalDB):
    return db.create_table("t", COLS, key="k", immortal=True)


def insert_one(db, table, k: int) -> None:
    with db.transaction() as txn:
        table.insert(txn, {"k": k, "v": f"v{k}"})


class TestBatching:
    def test_full_window_forces_once(self):
        db = make_db(4)
        table = make_table(db)
        before = db.log.stats.forces
        for k in range(8):
            insert_one(db, table, k)
        assert db.log.stats.forces - before == 2
        assert db.txn_mgr.group_commit_acks == 8
        assert db.txn_mgr.unacked_commits == 0

    def test_partial_batch_waits_for_flush(self):
        db = make_db(4)
        table = make_table(db)
        before = db.log.stats.forces
        insert_one(db, table, 1)
        insert_one(db, table, 2)
        assert db.log.stats.forces == before
        assert db.txn_mgr.unacked_commits == 2
        assert db.txn_mgr.group_commit_acks == 0
        db.flush_commits()
        assert db.log.stats.forces == before + 1
        assert db.txn_mgr.unacked_commits == 0
        assert db.txn_mgr.group_commit_acks == 2

    def test_window_one_forces_every_commit(self):
        db = make_db(1)
        table = make_table(db)
        before = db.log.stats.forces
        for k in range(3):
            insert_one(db, table, k)
        assert db.log.stats.forces - before == 3
        assert db.txn_mgr.unacked_commits == 0

    def test_flush_commits_is_a_noop_when_drained(self):
        db = make_db(4)
        make_table(db)
        before = db.log.stats.forces
        db.flush_commits()
        assert db.log.stats.forces == before

    def test_a_force_between_append_and_enqueue_is_still_acked(self):
        """A write-back inside commit processing (the PTT insert evicting a
        dirty page) forces the log over the commit record before its
        transaction is queued for an ack; ``flush_commits`` then finds
        nothing left to force and used to ack nothing — a worker-pool
        future waiting on that ack would wait for the next write."""
        db = make_db(4)
        table = make_table(db)
        acked = []
        db.txn_mgr.durable_commit_hook = acked.append
        registry = FailpointRegistry()
        registry.on(
            "txn.groupcommit.enqueue", lambda event: db.log.force(), once=True
        )
        with installed(registry):
            insert_one(db, table, 1)
        assert db.txn_mgr.unacked_commits == 1
        forces = db.log.stats.forces
        db.flush_commits()
        assert db.log.stats.forces == forces      # nothing left to force
        assert db.txn_mgr.unacked_commits == 0
        assert len(acked) == 1

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            make_db(0)

    def test_commit_returns_timestamp_before_force(self):
        """Late choice is unchanged: the timestamp exists at enqueue time."""
        db = make_db(8)
        table = make_table(db)
        txn = db.begin()
        table.insert(txn, {"k": 1, "v": "a"})
        ts = db.commit(txn)
        assert ts is not None
        assert db.txn_mgr.unacked_commits == 1

    def test_durable_hook_fires_in_commit_order(self):
        db = make_db(4)
        table = make_table(db)
        acked: list[int] = []
        db.txn_mgr.durable_commit_hook = lambda txn: acked.append(txn.tid)
        tids = []
        for k in range(4):
            txn = db.begin()
            table.insert(txn, {"k": k, "v": "x"})
            tids.append(txn.tid)
            db.commit(txn)
        assert acked == tids

    def test_window_one_acks_every_commit_once_after_its_force(self):
        db = make_db(1)
        table = make_table(db)
        acked: list[tuple[int, bool]] = []
        db.txn_mgr.durable_commit_hook = lambda txn: acked.append(
            (txn.tid, db.log.flushed_lsn == db.log.end_lsn)
        )
        tids = []
        for k in range(3):
            txn = db.begin()
            table.insert(txn, {"k": k, "v": "x"})
            tids.append(txn.tid)
            db.commit(txn)
        assert acked == [(tid, True) for tid in tids]

    @pytest.mark.parametrize("window", [1, 8])
    def test_each_2pc_participant_acks_its_commit_once(self, window):
        router = ShardRouter.for_int_keys(
            2, key_space=100, group_commit_window=window
        )
        table = router.create_table("t", COLS, key="k", immortal=True)
        acked: list[list] = [[] for _ in router.shards]
        for shard, seen in zip(router.shards, acked):
            shard.db.txn_mgr.durable_commit_hook = \
                lambda txn, seen=seen: seen.append(txn.commit_ts)
        txn = router.begin()
        table.insert(txn, {"k": 10, "v": "a"})
        table.insert(txn, {"k": 60, "v": "b"})
        ts = router.commit(txn)
        assert acked == [[ts], [ts]]

    def test_a_pool_future_is_durable_at_window_one(self):
        db = make_db(1)
        table = make_table(db)
        with WorkerPool(db, n_workers=1) as pool:
            future = pool.submit(lambda txn: table.insert(txn, {"k": 1, "v": "a"}))
            future.result(10.0)
            assert future.durable

    def test_locks_release_at_enqueue(self):
        """Early lock release: a later txn can touch the key before the
        batch is forced — its commit record lands later in the log, so
        durability order still matches commit order."""
        db = make_db(8)
        table = make_table(db)
        insert_one(db, table, 1)
        assert db.txn_mgr.unacked_commits == 1
        with db.transaction() as txn:     # would deadlock if locks lingered
            table.update(txn, 1, {"v": "second"})
        assert db.txn_mgr.unacked_commits == 2


class TestCrashSemantics:
    def test_unforced_batch_rolls_back(self):
        db = make_db(8)
        table = make_table(db)
        insert_one(db, table, 1)
        insert_one(db, table, 2)
        assert db.txn_mgr.unacked_commits == 2
        db.crash_and_recover()
        table = db.table("t")
        with db.transaction() as txn:
            assert table.read(txn, 1) is None
            assert table.read(txn, 2) is None

    def test_forced_batch_survives(self):
        db = make_db(4)
        table = make_table(db)
        for k in range(4):                # fills the window -> forced
            insert_one(db, table, k)
        db.crash_and_recover()
        table = db.table("t")
        with db.transaction() as txn:
            assert len(table.scan(txn)) == 4

    def test_crash_loses_exactly_the_unforced_suffix(self):
        db = make_db(4)
        table = make_table(db)
        for k in range(4):                # forced batch
            insert_one(db, table, k)
        insert_one(db, table, 4)          # enqueued only
        insert_one(db, table, 5)
        db.crash_and_recover()
        table = db.table("t")
        with db.transaction() as txn:
            rows = {r["k"] for r in table.scan(txn)}
        assert rows == {0, 1, 2, 3}

    def test_page_flush_forces_wal_and_acks_batch(self):
        """WAL rule: flushing a page forces the log first, which (forces
        being all-or-nothing) also makes the pending batch durable."""
        db = make_db(8)
        table = make_table(db)
        insert_one(db, table, 1)
        assert db.txn_mgr.unacked_commits == 1
        db.buffer.flush_all()
        assert db.txn_mgr.unacked_commits == 0
        db.crash_and_recover()
        table = db.table("t")
        with db.transaction() as txn:
            assert table.read(txn, 1)["v"] == "v1"


class TestStampingGate:
    def test_stamping_declines_while_commit_unforced(self):
        db = make_db(8)
        table = make_table(db)
        insert_one(db, table, 1)
        assert db.txn_mgr.unacked_commits == 1
        pages = [
            p for p in db.buffer.cached_pages()
            if getattr(p, "table_id", None) and p.has_unstamped_records()
        ]
        assert pages, "expected an unstamped data page in the pool"
        assert sum(db.tsmgr.stamp_page(p) for p in pages) == 0
        db.flush_commits()
        assert sum(db.tsmgr.stamp_page(p) for p in pages) >= 1

    def test_flush_hook_leaves_unforced_versions_unstamped(self):
        """The pre-flush stamping hook runs before the WAL force, so a
        version of an un-acked commit reaches disk unstamped — and the
        as-of read path still resolves it through the PTT afterwards."""
        db = make_db(8)
        table = make_table(db)
        stamps_before = db.tsmgr.stats.stamps
        insert_one(db, table, 1)
        # The data page alone: the PTT leaf carries the commit's LSN, and
        # flushing it first would force the log before the hook ran.
        leaf = table.btree.search_leaf(b"")
        db.buffer.flush_page(leaf.page_id)
        # The hook saw the version before the force: it must have declined.
        assert db.tsmgr.stats.stamps == stamps_before
        db.crash_and_recover()
        table = db.table("t")
        with db.transaction() as txn:
            assert table.read(txn, 1)["v"] == "v1"


class TestCrashExploration:
    # Mirrors SMALL in test_crashtest.py, on the profile that group-commits.
    CONFIG = CrashTestConfig(
        seed=0, transactions=18, keys=8, checkpoint_every=5, mark_every=3,
        buffer_pages=6, value_pad=500, profile="tuned",
    )

    def test_groupcommit_seams_enumerated(self):
        names = set(enumerate_crossings(self.CONFIG))
        assert "txn.groupcommit.enqueue" in names
        assert "txn.groupcommit.force" in names
        assert "txn.groupcommit.ack" in names

    def test_sampled_exploration_is_clean(self):
        result = explore(self.CONFIG, max_points=40)
        assert result.ok, [
            (r.crossing, r.name, r.problems) for r in result.failures
        ]
        assert any(n.startswith("txn.groupcommit") for n in result.by_name)


class TestStagedForce:
    """A force is begin -> sync -> finish; ``flush_commits`` drops the engine
    latch for *sync*.  Invariant: an ack is sent only after ``flushed_lsn``
    covers the commit record, and ``flushed_lsn`` only advances over frames
    that have been fsynced."""

    @staticmethod
    def _file_db(tmp_path, *, concurrent: bool):
        db = ImmortalDB(
            str(tmp_path / "db.pages"), buffer_pages=64,
            group_commit_window=8,
        )
        if concurrent:
            db.enable_concurrency()
        table = make_table(db)
        acked: list[int] = []
        db.txn_mgr.durable_commit_hook = lambda txn: acked.append(txn.tid)
        return db, table, acked

    @staticmethod
    def _hold_next_fsync(registry):
        """Park whichever thread next reaches ``filelog.fsync``."""
        entered, release = threading.Event(), threading.Event()

        def hold(event) -> None:
            entered.set()
            assert release.wait(10.0)

        registry.on("filelog.fsync", hold, once=True)
        return entered, release

    def test_reads_and_appends_proceed_while_a_force_syncs(self, tmp_path):
        db, table, acked = self._file_db(tmp_path, concurrent=True)
        insert_one(db, table, 1)
        registry = FailpointRegistry()
        entered, release = self._hold_next_fsync(registry)
        with installed(registry):
            forcer = threading.Thread(target=db.flush_commits, daemon=True)
            forcer.start()
            assert entered.wait(10.0)
            # Written, not yet fsynced: nothing is durable, nothing acked.
            flushed = db.log.flushed_lsn
            assert acked == []

            def read_and_write() -> None:
                with db.transaction() as txn:
                    assert table.read(txn, 1)["v"] == "v1"
                insert_one(db, table, 2)        # log.append under the latch

            other = threading.Thread(target=read_and_write, daemon=True)
            other.start()
            other.join(5.0)
            assert not other.is_alive(), "a statement waited behind an fsync"
            assert db.txn_mgr.unacked_commits == 2

            # A second flush wants txn 2 durable.  It queues behind the sync
            # in flight and must not ack anything before its own fsync.
            second = threading.Thread(target=db.flush_commits, daemon=True)
            second.start()
            second.join(0.3)
            assert second.is_alive()
            assert acked == [] and db.log.flushed_lsn == flushed

            release.set()
            forcer.join(10.0)
            second.join(10.0)
            assert not forcer.is_alive() and not second.is_alive()
        assert len(acked) == 2 and db.txn_mgr.unacked_commits == 0
        # Txn 2's frames were appended after the first write: one more
        # write + fsync, and no third.
        assert registry.hits["filelog.write"] == 2
        assert registry.hits["filelog.fsync"] == 2
        assert db.log.flushed_lsn == db.log.end_lsn
        db.close()

    def test_flush_with_nothing_new_waits_but_does_not_write(self, tmp_path):
        db, table, acked = self._file_db(tmp_path, concurrent=True)
        insert_one(db, table, 1)
        forces_before = db.log.stats.forces
        registry = FailpointRegistry()
        entered, release = self._hold_next_fsync(registry)
        with installed(registry):
            forcer = threading.Thread(target=db.flush_commits, daemon=True)
            forcer.start()
            assert entered.wait(10.0)
            second = threading.Thread(target=db.flush_commits, daemon=True)
            second.start()
            second.join(0.3)
            # Its commit record is written but not fsynced: no early return.
            assert second.is_alive() and acked == []
            release.set()
            forcer.join(10.0)
            second.join(10.0)
            assert not forcer.is_alive() and not second.is_alive()
        assert len(acked) == 1
        assert registry.hits["filelog.write"] == 1
        assert registry.hits["filelog.fsync"] == 1
        assert db.log.stats.forces == forces_before + 1
        db.close()

    @pytest.mark.parametrize("point", ["filelog.fsync", "log.force"])
    def test_crash_inside_a_force_acks_nothing_and_loses_no_ack(
        self, tmp_path, point
    ):
        """``filelog.fsync``: frames written, not synced.  ``log.force``:
        synced, not yet published — between *sync* and *finish*."""
        db, table, acked = self._file_db(tmp_path, concurrent=False)
        insert_one(db, table, 1)
        insert_one(db, table, 2)
        db.flush_commits()
        assert len(acked) == 2
        insert_one(db, table, 3)
        registry = FailpointRegistry()
        registry.crash_on(point)
        with installed(registry):
            with pytest.raises(SimulatedCrash):
                db.flush_commits()
        assert len(acked) == 2              # txn 3 was never acknowledged
        assert db.log.flushed_lsn < db.log.end_lsn
        db.crash_and_recover()
        table = db.table("t")
        with db.transaction() as txn:
            assert {r["k"] for r in table.scan(txn)} == {1, 2}
        # The frames the dead force left in the file are gone with it, so
        # offsets still equal LSNs: later commits survive a real reopen.
        insert_one(db, table, 4)
        db.close()
        reopened = ImmortalDB(str(tmp_path / "db.pages"), buffer_pages=64)
        with reopened.transaction() as txn:
            rows = {r["k"] for r in reopened.table("t").scan(txn)}
        assert rows == {1, 2, 4}
        reopened.close()
