"""Tests for the concurrent worker pool."""

from __future__ import annotations

import os
import random
import threading

import pytest

from repro import ColumnType, ImmortalDB
from repro.core.integrity import verify_integrity
from repro.workers import WorkerPool

COLS = [("k", ColumnType.INT), ("v", ColumnType.INT)]

STRESS = os.environ.get("IMMORTAL_CONCURRENT_STRESS") == "1"


def _make_db(**kwargs) -> tuple[ImmortalDB, object]:
    kwargs.setdefault("buffer_pages", 128)
    db = ImmortalDB(**kwargs)
    table = db.create_table("t", COLS, key="k", immortal=True)
    with db.transaction() as txn:
        for k in range(16):
            table.insert(txn, {"k": k, "v": 0})
    db.flush_commits()
    return db, table


def _increment(table, key):
    def body(txn):
        row = table.read(txn, key)
        table.update(txn, key, {"v": row["v"] + 1})
        return row["v"] + 1
    return body


class TestWorkerPool:
    def test_single_task_commits_durably(self):
        db, table = _make_db()
        with WorkerPool(db, n_workers=2) as pool:
            future = pool.submit(_increment(table, 0))
            assert future.result(10.0) == 1
            assert future.wait_durable(10.0)
            assert future.commit_ts is not None
        with db.transaction() as txn:
            assert table.read(txn, 0)["v"] == 1

    def test_read_only_future_has_no_timestamp(self):
        db, table = _make_db()
        with WorkerPool(db, n_workers=2) as pool:
            future = pool.submit(lambda txn: table.read(txn, 3)["v"])
            assert future.result(10.0) == 0
            assert future.commit_ts is None
            assert future.durable

    def test_conflicting_increments_are_not_lost(self):
        db, table = _make_db()
        n = 40
        with WorkerPool(db, n_workers=4, seed=1) as pool:
            futures = [pool.submit(_increment(table, 7)) for _ in range(n)]
            values = sorted(f.result(30.0) for f in futures)
        assert values == list(range(1, n + 1))   # every increment landed
        with db.transaction() as txn:
            assert table.read(txn, 7)["v"] == n
        assert verify_integrity(db) == []

    def test_task_error_fails_future_and_aborts(self):
        db, table = _make_db()

        def boom(txn):
            table.update(txn, 1, {"v": 99})
            raise ValueError("scripted failure")

        with WorkerPool(db, n_workers=2) as pool:
            future = pool.submit(boom)
            with pytest.raises(ValueError, match="scripted failure"):
                future.result(10.0)
        with db.transaction() as txn:
            assert table.read(txn, 1)["v"] == 0   # rolled back
        assert len(db.txn_mgr.active) == 0

    def test_group_commit_batches_forces(self):
        db, table = _make_db(group_commit_window=8)
        n = 31
        gate = threading.Event()
        before = db.stats()["log_forces"]
        with WorkerPool(db, n_workers=4, seed=2) as pool:
            # A read-only task parks on the gate, keeping in_flight > 0 so
            # the last-active-worker durability flush never triggers while
            # the increments run — forces can only come from full windows.
            gate_future = pool.submit(lambda txn: gate.wait(30.0))
            futures = [
                pool.submit(_increment(table, i % 4)) for i in range(n)
            ]
            for f in futures:
                f.result(30.0)
            gate.set()
            gate_future.result(30.0)
            pool.join()
            for f in futures:
                assert f.wait_durable(10.0)
        forces = db.stats()["log_forces"] - before
        assert forces <= n // 8 + 2       # whole windows, not per-commit
        assert db.txn_mgr.unacked_commits == 0

    def test_retry_counters_reported_in_stats(self):
        db, table = _make_db()
        with WorkerPool(db, n_workers=4, seed=3) as pool:
            futures = [pool.submit(_increment(table, 0)) for _ in range(24)]
            for f in futures:
                f.result(30.0)
        stats = db.stats()
        # Deterministic-counter contract: keys exist and are consistent.
        assert stats["txn_retries"] == db.txn_mgr.txn_retries
        assert stats["lock_waits"] >= 0
        assert stats["deadlocks_detected"] >= 0

    def test_submit_after_close_rejected(self):
        db, table = _make_db()
        pool = WorkerPool(db, n_workers=1)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit(_increment(table, 0))


class TestRawTasks:
    """``submit_call``: a raw call through the pool's queue."""

    def test_raw_task_runs_unbracketed_and_builds_no_rng(self, monkeypatch):
        db, table = _make_db()
        built = []

        class CountingRandom(random.Random):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        with WorkerPool(db, n_workers=2) as pool:
            # Seeding an RNG from the OS is a syscall a raw task never uses.
            # (A transaction task builds its backoff RNG at its first retry.)
            monkeypatch.setattr("random.Random", CountingRandom)
            begun = db.txn_mgr.next_tid
            assert pool.submit_call(lambda: 6 * 7).result(10.0) == 42
            assert built == []
            assert db.txn_mgr.next_tid == begun     # no transaction bracket
            failing = pool.submit_call(lambda: 1 // 0)
            with pytest.raises(ZeroDivisionError):
                failing.result(10.0)

    def test_fan_out_from_the_only_worker_cannot_deadlock(self):
        """A raw task that submits transactions runs them in place when it
        is itself on a worker: with one worker there is nobody else to wait
        for."""
        db, table = _make_db(group_commit_window=4)

        def fan_out():
            futures = [pool.submit(_increment(table, k)) for k in (1, 2, 2)]
            return [f.result(10.0) for f in futures]

        with WorkerPool(db, n_workers=1) as pool:
            outer = pool.submit_call(fan_out)
            assert outer.result(20.0) == [1, 1, 2]
            assert pool.stats.committed == 3
        assert db.txn_mgr.unacked_commits == 0     # last-active flush ran
        with db.transaction() as txn:
            assert table.read(txn, 2)["v"] == 2


class TestConcurrentOracle:
    """Concurrent history must answer AS OF queries like a serial one."""

    def _run(self, *, workers, tasks, seed, **db_kwargs):
        db, table = _make_db(**db_kwargs)
        commits: list[tuple] = []
        mu = threading.Lock()

        def rmw(key):
            def body(txn):
                row = table.read(txn, key)
                value = row["v"] + 1
                table.update(txn, key, {"v": value})
                return (key, value)
            return body

        rng = random.Random(seed)
        with WorkerPool(db, n_workers=workers, seed=seed) as pool:
            futures = [
                pool.submit(rmw(rng.randrange(8))) for _ in range(tasks)
            ]
            for f in futures:
                key, value = f.result(60.0)
                with mu:
                    commits.append((f.commit_ts, key, value))
        db.flush_commits()

        # Shadow oracle: replay commits in timestamp order.
        commits.sort(key=lambda c: c[0])
        timestamps = [c[0] for c in commits]
        assert len(set(timestamps)) == len(timestamps)
        state = {k: 0 for k in range(16)}
        for ts, key, value in commits:
            state[key] = value
            for k in range(8):
                row = table.read_as_of(ts, k)
                assert row["v"] == state[k], (ts, k)
        assert verify_integrity(db) == []
        return db

    def test_asof_equivalence_small(self):
        self._run(workers=4, tasks=24, seed=11)

    def test_asof_equivalence_group_commit(self):
        self._run(workers=4, tasks=24, seed=12, group_commit_window=4)

    def test_asof_equivalence_under_eviction_pressure(self):
        # A pool far below the working set forces evictions (and batched
        # write-backs) *between* the commits the oracle replays: stale disk
        # images faulting back in, or a flush batch stamping the wrong
        # version, would break AS OF equivalence here.  The fixture's 16
        # rows fit one leaf, so this test builds its own multi-leaf table.
        db = ImmortalDB(buffer_pages=4, group_commit_window=4)
        table = db.create_table("t", COLS, key="k", immortal=True)
        keys = 600  # ~8 pages: several leaves plus PTT nodes vs. 4 frames
        with db.transaction() as txn:
            for k in range(keys):
                table.insert(txn, {"k": k, "v": 0})
        db.flush_commits()

        def rmw(key):
            def body(txn):
                row = table.read(txn, key)
                value = row["v"] + 1
                table.update(txn, key, {"v": value})
                return (key, value)
            return body

        rng = random.Random(15)
        commits = []
        with WorkerPool(db, n_workers=4, seed=15) as pool:
            futures = [
                pool.submit(rmw(rng.randrange(keys))) for _ in range(48)
            ]
            for f in futures:
                key, value = f.result(60.0)
                commits.append((f.commit_ts, key, value))
        db.flush_commits()

        commits.sort(key=lambda c: c[0])
        state = {k: 0 for k in range(keys)}
        for ts, key, value in commits:
            state[key] = value
            for k in range(0, keys, 77):  # sampled columns of the history
                assert table.read_as_of(ts, k)["v"] == state[k], (ts, k)
        assert verify_integrity(db) == []
        stats = db.stats()
        assert stats["buffer_evictions"] > 0
        assert stats["flush_batches"] > 0

    @pytest.mark.skipif(not STRESS, reason="set IMMORTAL_CONCURRENT_STRESS=1")
    def test_stress_many_workers_many_txns(self):
        db = self._run(
            workers=8, tasks=400, seed=13, group_commit_window=8
        )
        stats = db.stats()
        assert stats["commits"] >= 400
