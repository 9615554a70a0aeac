"""Tests for transaction management: commit order, rollback, late choice."""

from __future__ import annotations

import pytest

from repro import PROFILES, ColumnType, ImmortalDB, TxnMode
from repro.errors import (
    KeyNotFoundError,
    LockConflictError,
    ReadOnlyTransactionError,
    TransactionStateError,
)


@pytest.fixture
def db():
    return ImmortalDB(buffer_pages=64)


@pytest.fixture
def table(db):
    return db.create_table(
        "t", columns=[("k", ColumnType.INT), ("v", ColumnType.TEXT)],
        key="k", immortal=True,
    )


class TestCommit:
    def test_commit_returns_timestamp(self, db, table):
        txn = db.begin()
        table.insert(txn, {"k": 1, "v": "a"})
        ts = db.commit(txn)
        assert ts is not None

    def test_timestamp_order_equals_commit_order(self, db, table):
        """The paper's late-choice guarantee (Section 2.1)."""
        t1 = db.begin()
        t2 = db.begin()
        table.insert(t1, {"k": 1, "v": "a"})
        table.insert(t2, {"k": 2, "v": "b"})
        # t2 commits first even though it began second.
        ts2 = db.commit(t2)
        ts1 = db.commit(t1)
        assert ts2 < ts1

    def test_read_only_commit_has_no_timestamp(self, db, table):
        txn = db.begin()
        assert table.read(txn, 1) is None
        assert db.commit(txn) is None

    def test_read_only_commit_writes_no_log(self, db, table):
        before = db.log.stats.appends
        txn = db.begin()
        table.read(txn, 1)
        db.commit(txn)
        assert db.log.stats.appends == before

    def test_commit_forces_the_log(self, db, table):
        txn = db.begin()
        table.insert(txn, {"k": 1, "v": "a"})
        db.commit(txn)
        assert db.log.flushed_lsn == db.log.end_lsn

    def test_operations_after_commit_rejected(self, db, table):
        txn = db.begin()
        table.insert(txn, {"k": 1, "v": "a"})
        db.commit(txn)
        with pytest.raises(TransactionStateError):
            table.insert(txn, {"k": 2, "v": "b"})

    def test_commit_releases_locks(self, db, table):
        txn = db.begin()
        table.insert(txn, {"k": 1, "v": "a"})
        db.commit(txn)
        assert db.locks.locks_held(txn.tid) == 0


class TestAckedMeansDurable:
    """A commit that returned a timestamp survives ``crash(); recover()``."""

    @staticmethod
    def _seed(db, table):
        with db.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "old1"})
            table.insert(txn, {"k": 2, "v": "old2"})

    @staticmethod
    def _assert_both_survive(db):
        db.crash()
        db.recover()
        table = db.table("t")
        with db.transaction() as txn:
            assert table.read(txn, 1)["v"] == "new1"
            assert table.read(txn, 2)["v"] == "new2"

    def test_interleaved_commits_both_survive_a_crash(self, db, table):
        # B's commit forces the log to its end, which is exactly where A's
        # commit record then starts: force(commit_lsn) must still force.
        self._seed(db, table)
        a, b = db.begin(), db.begin()
        table.update(a, 1, {"v": "new1"})
        table.update(b, 2, {"v": "new2"})
        assert db.commit(b) is not None
        assert db.commit(a) is not None
        assert db.log.flushed_lsn == db.log.end_lsn
        self._assert_both_survive(db)

    def test_interleaved_commits_through_the_worker_pool(self, db, table):
        import threading

        from repro.workers import WorkerPool

        self._seed(db, table)
        a_wrote, b_acked = threading.Event(), threading.Event()

        def body_a(txn):
            table.update(txn, 1, {"v": "new1"})
            a_wrote.set()
            assert b_acked.wait(10.0)

        def body_b(txn):
            assert a_wrote.wait(10.0)
            table.update(txn, 2, {"v": "new2"})

        with WorkerPool(db, n_workers=2) as pool:
            assert db.txn_mgr.group_commit_window == 1
            fa, fb = pool.submit(body_a), pool.submit(body_b)
            fb.result(10.0)
            b_acked.set()
            fa.result(10.0)
            assert fa.commit_ts is not None and fb.commit_ts is not None
        self._assert_both_survive(db)

    def test_prepare_vote_is_durable_at_the_boundary(self, db, table):
        self._seed(db, table)
        a, b = db.begin(), db.begin()
        table.update(a, 1, {"v": "new1"})
        table.update(b, 2, {"v": "new2"})
        db.commit(b)                      # leaves flushed_lsn == end_lsn
        vote_lsn = db.prepare(a, gtid=7)  # the vote starts exactly there
        assert db.log.flushed_lsn > vote_lsn
        db.crash()
        db.recover()
        assert 7 in db.in_doubt
        db.commit_prepared(db.in_doubt[7], db.clock.next_timestamp())
        self._assert_both_survive(db)


class TestRollback:
    def test_abort_removes_inserted_record(self, db, table):
        txn = db.begin()
        table.insert(txn, {"k": 1, "v": "gone"})
        db.abort(txn)
        with db.transaction() as reader:
            assert table.read(reader, 1) is None

    def test_abort_restores_previous_version(self, db, table):
        with db.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "original"})
        txn = db.begin()
        table.update(txn, 1, {"v": "doomed"})
        table.update(txn, 1, {"v": "also doomed"})
        db.abort(txn)
        with db.transaction() as reader:
            assert table.read(reader, 1)["v"] == "original"

    def test_abort_undoes_delete(self, db, table):
        with db.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "keep"})
        txn = db.begin()
        table.delete(txn, 1)
        db.abort(txn)
        with db.transaction() as reader:
            assert table.read(reader, 1)["v"] == "keep"

    def test_abort_writes_clrs_and_abort_end(self, db, table):
        from repro.wal.records import AbortEnd, CompensationRecord

        txn = db.begin()
        table.insert(txn, {"k": 1, "v": "x"})
        table.insert(txn, {"k": 2, "v": "y"})
        db.abort(txn)
        records = list(db.log.records_from(0))
        clrs = [r for r in records if isinstance(r, CompensationRecord)]
        ends = [r for r in records if isinstance(r, AbortEnd)]
        assert len(clrs) == 2
        assert len(ends) == 1

    def test_aborted_txn_leaves_no_trace_in_history(self, db, table):
        with db.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "v1"})
        txn = db.begin()
        table.update(txn, 1, {"v": "aborted"})
        db.abort(txn)
        assert len(table.history(1)) == 1

    def test_context_manager_aborts_on_exception(self, db, table):
        with pytest.raises(RuntimeError):
            with db.transaction() as txn:
                table.insert(txn, {"k": 5, "v": "x"})
                raise RuntimeError("boom")
        with db.transaction() as reader:
            assert table.read(reader, 5) is None


class TestIsolationSerializable:
    def test_write_write_conflict_detected(self, db, table):
        with db.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "a"})
        t1 = db.begin()
        t2 = db.begin()
        table.update(t1, 1, {"v": "t1"})
        with pytest.raises(LockConflictError):
            table.update(t2, 1, {"v": "t2"})
        db.commit(t1)
        db.abort(t2)

    def test_read_write_conflict_detected(self, db, table):
        with db.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "a"})
        reader = db.begin()
        table.read(reader, 1)
        writer = db.begin()
        with pytest.raises(LockConflictError):
            table.update(writer, 1, {"v": "nope"})
        db.commit(reader)
        db.abort(writer)

    def test_own_writes_visible_before_commit(self, db, table):
        txn = db.begin()
        table.insert(txn, {"k": 1, "v": "mine"})
        assert table.read(txn, 1)["v"] == "mine"
        table.update(txn, 1, {"v": "mine-2"})
        assert table.read(txn, 1)["v"] == "mine-2"
        db.commit(txn)


class TestAsOfTransactions:
    def test_as_of_transactions_are_read_only(self, db, table):
        with db.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "a"})
        historical = db.begin(as_of=db.now())
        with pytest.raises(ReadOnlyTransactionError):
            table.insert(historical, {"k": 2, "v": "b"})
        db.commit(historical)

    def test_as_of_requires_timestamp(self, db):
        with pytest.raises(TransactionStateError):
            db.txn_mgr.begin(TxnMode.AS_OF)

    def test_as_of_sees_past_state(self, db, table):
        with db.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "old"})
        past = db.now()
        db.advance_time(1000)
        with db.transaction() as txn:
            table.update(txn, 1, {"v": "new"})
        with db.transaction(as_of=past) as historical:
            assert table.read(historical, 1)["v"] == "old"

    @pytest.mark.parametrize("profile", ["paper", "tuned"])
    def test_historical_transactions_never_enter_the_lock_manager(self, profile):
        """What an AS OF read sees is decided by validity intervals: begin,
        read, scan, history, commit and abort make no LockManager call."""
        db = ImmortalDB(buffer_pages=64, **PROFILES[profile])
        table = db.create_table(
            "t", [("k", ColumnType.INT), ("v", ColumnType.TEXT)], key="k",
            immortal=True,
        )
        with db.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "old"})
        past = db.now()
        db.advance_time(1000)
        with db.transaction() as txn:
            table.update(txn, 1, {"v": "new"})

        class Untouchable:
            def __getattr__(self, name):
                raise AssertionError(f"LockManager.{name} touched")

        db.locks = db.txn_mgr.locks = Untouchable()
        historical = db.begin(as_of=past)
        assert table.read(historical, 1)["v"] == "old"
        assert [row["v"] for row in table.scan(historical)] == ["old"]
        assert [row["v"] for row in table.scan_range(historical, 0, 5)] == ["old"]
        db.commit(historical)
        db.abort(db.begin(as_of=past))
        assert table.read_as_of(past, 1)["v"] == "old"
        assert len(table.scan_as_of(past)) == 1 and len(table.history(1)) == 2


class TestTidManagement:
    def test_tids_ascend(self, db):
        t1 = db.begin()
        t2 = db.begin()
        assert t2.tid > t1.tid
        db.commit(t1)
        db.commit(t2)

    def test_tid_floor_after_recovery(self, db, table):
        with db.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "a"})
        used = txn.tid
        db.crash_and_recover()
        fresh = db.begin()
        assert fresh.tid > used
        db.commit(fresh)
