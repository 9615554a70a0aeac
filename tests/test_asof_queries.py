"""Tests for AS OF queries, time travel, and the TSB-indexed path."""

from __future__ import annotations

import random

import pytest

from repro import PROFILES, ColumnType, ImmortalDB, Timestamp, TxnMode
from repro.workers.interleave import InterleaveScheduler


COLS = [("k", ColumnType.INT), ("v", ColumnType.TEXT)]


def build_versioned_db(*, use_tsb=False, keys=10, rounds=30, gap_ms=500):
    """A table where every key has `rounds` versions at known times."""
    db = ImmortalDB(buffer_pages=128, use_tsb_index=use_tsb)
    table = db.create_table("t", COLS, key="k", immortal=True)
    marks = []
    with db.transaction() as txn:
        for k in range(keys):
            table.insert(txn, {"k": k, "v": "r-1"})
    for r in range(rounds):
        db.advance_time(gap_ms)
        marks.append(db.now())
        with db.transaction() as txn:
            for k in range(keys):
                table.update(txn, k, {"v": f"r{r}-" + "x" * 60})
    return db, table, marks


class TestPointAsOf:
    def test_every_round_retrievable(self):
        db, table, marks = build_versioned_db()
        # marks[r] is taken *before* round r's updates commit.
        for r in (0, 10, 29):
            row = table.read_as_of(marks[r], 3)
            expected = "r-1" if r == 0 else f"r{r - 1}-" + "x" * 60
            assert row["v"] == expected, r

    def test_before_table_had_data(self):
        db, table, marks = build_versioned_db()
        assert table.read_as_of(Timestamp(1, 0), 3) is None

    def test_after_latest_sees_current(self):
        db, table, marks = build_versioned_db()
        db.advance_time(10_000)
        row = table.read_as_of(db.now(), 3)
        assert row["v"].startswith("r29-")

    def test_asof_of_deleted_record_is_none(self):
        db = ImmortalDB()
        table = db.create_table("t", COLS, key="k", immortal=True)
        with db.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "alive"})
        alive_at = db.now()
        db.advance_time(1000)
        with db.transaction() as txn:
            table.delete(txn, 1)
        db.advance_time(1000)
        dead_at = db.now()
        assert table.read_as_of(alive_at, 1)["v"] == "alive"
        assert table.read_as_of(dead_at, 1) is None

    def test_chain_hops_grow_with_depth(self):
        """Fig 6's driver: older as-of times walk longer page chains."""
        db, table, marks = build_versioned_db(keys=4, rounds=120, gap_ms=500)
        assert table.btree.stats.time_splits >= 3
        db.asof_stats.chain_hops = 0
        table.read_as_of(marks[-1], 0)
        recent_hops = db.asof_stats.chain_hops
        db.asof_stats.chain_hops = 0
        table.read_as_of(marks[1], 0)
        old_hops = db.asof_stats.chain_hops
        assert old_hops > recent_hops


class TestScanAsOf:
    def test_full_scan_reconstructs_each_round(self):
        db, table, marks = build_versioned_db(keys=8, rounds=20)
        for r in (1, 10, 19):
            rows = table.scan_as_of(marks[r])
            assert len(rows) == 8
            assert all(row["v"] == f"r{r - 1}-" + "x" * 60 for row in rows)

    def test_scan_asof_sees_deleted_records_in_their_era(self):
        db = ImmortalDB()
        table = db.create_table("t", COLS, key="k", immortal=True)
        with db.transaction() as txn:
            for k in range(6):
                table.insert(txn, {"k": k, "v": "era1"})
        era1 = db.now()
        db.advance_time(1000)
        with db.transaction() as txn:
            for k in range(0, 6, 2):
                table.delete(txn, k)
        era2 = db.now()
        assert len(table.scan_as_of(era1)) == 6
        assert len(table.scan_as_of(era2)) == 3

    def test_scan_asof_with_key_splits_does_not_duplicate(self):
        """Sibling leaves share history pages; bounds must dedupe them."""
        db = ImmortalDB(buffer_pages=256)
        table = db.create_table("t", COLS, key="k", immortal=True)
        with db.transaction() as txn:
            for k in range(200):
                table.insert(txn, {"k": k, "v": "base" + "x" * 40})
        base = db.now()
        for r in range(10):
            db.advance_time(500)
            with db.transaction() as txn:
                for k in range(200):
                    table.update(txn, k, {"v": f"r{r}" + "y" * 40})
        assert table.btree.stats.key_splits >= 1
        rows = table.scan_as_of(base)
        assert len(rows) == 200
        assert len({row["k"] for row in rows}) == 200


class TestHistory:
    def test_history_returns_all_versions_in_order(self):
        db, table, marks = build_versioned_db(keys=2, rounds=15)
        history = table.history(1)
        assert len(history) == 16  # insert + 15 updates
        times = [ts for ts, _ in history]
        assert times == sorted(times)
        assert history[0][1]["v"] == "r-1"
        assert history[-1][1]["v"].startswith("r14-")

    def test_history_spans_time_split_pages_without_duplicates(self):
        db, table, marks = build_versioned_db(keys=2, rounds=150, gap_ms=500)
        assert table.btree.stats.time_splits >= 2
        history = table.history(1)
        assert len(history) == 151
        assert len({ts for ts, _ in history}) == 151

    def test_history_records_deletes_as_none(self):
        db = ImmortalDB()
        table = db.create_table("t", COLS, key="k", immortal=True)
        with db.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "a"})
        db.advance_time(100)
        with db.transaction() as txn:
            table.delete(txn, 1)
        history = table.history(1)
        assert history[0][1]["v"] == "a"
        assert history[1][1] is None

    def test_history_time_bounds(self):
        db, table, marks = build_versioned_db(keys=1, rounds=10)
        bounded = table.history(0, t_low=marks[3], t_high=marks[7])
        assert 0 < len(bounded) < 11
        for ts, _ in bounded:
            assert marks[3] <= ts <= marks[7]


class TestTSBIndexedAsOf:
    def test_tsb_results_match_chain_results(self):
        kwargs = dict(keys=6, rounds=100, gap_ms=500)
        db_chain, table_chain, marks = build_versioned_db(**kwargs)
        db_tsb, table_tsb, marks_tsb = build_versioned_db(use_tsb=True, **kwargs)
        assert marks == marks_tsb  # deterministic clocks
        for r in (1, 25, 50, 99):
            for k in (0, 5):
                a = table_chain.read_as_of(marks[r], k)
                b = table_tsb.read_as_of(marks[r], k)
                assert a == b, (r, k)

    def test_tsb_lookup_avoids_chain_walk(self):
        db, table, marks = build_versioned_db(
            use_tsb=True, keys=4, rounds=150, gap_ms=500
        )
        db.asof_stats.chain_hops = 0
        db.asof_stats.tsb_lookups = 0
        table.read_as_of(marks[1], 0)   # deep history
        assert db.asof_stats.tsb_lookups == 1
        assert db.asof_stats.chain_hops == 0

    def test_tsb_index_populated_by_time_splits(self):
        db, table, marks = build_versioned_db(
            use_tsb=True, keys=4, rounds=150, gap_ms=500
        )
        assert table.history_index is not None
        assert (
            table.history_index.leaf_entry_count()
            == table.btree.stats.time_splits
        )

    def test_tsb_survives_crash(self):
        db, table, marks = build_versioned_db(
            use_tsb=True, keys=4, rounds=100, gap_ms=500
        )
        expected = table.read_as_of(marks[10], 2)
        db.crash_and_recover()
        table = db.table("t")
        assert table.history_index is not None
        assert table.read_as_of(marks[10], 2) == expected


class TestTimestampConversion:
    def test_begin_as_of_accepts_strings(self):
        db = ImmortalDB()
        table = db.create_table("t", COLS, key="k", immortal=True)
        with db.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "x"})
        wall = db.clock.now_datetime()
        db.advance_time(60_000)
        with db.transaction() as txn:
            table.update(txn, 1, {"v": "y"})
        # read_as_of takes what BEGIN TRAN AS OF takes.
        for when in (wall.isoformat(), wall, db.to_timestamp(wall)):
            with db.transaction(as_of=when) as txn:
                assert table.read(txn, 1)["v"] == "x"
            assert table.read_as_of(when, 1)["v"] == "x"


class TestAsOfLookup:
    """``read_as_of`` is a lookup: no transaction, no TID, the same answer
    as a ``BEGIN TRAN AS OF`` bracket."""

    def test_draws_no_tid_and_opens_no_transaction(self):
        db, table, marks = build_versioned_db(keys=4, rounds=5)
        next_tid, active = db.txn_mgr.next_tid, dict(db.txn_mgr.active)
        for mark in marks:
            for k in range(4):
                table.read_as_of(mark, k)
        assert db.txn_mgr.next_tid == next_tid
        assert db.txn_mgr.active == active

    @pytest.mark.parametrize("config", [
        {}, PROFILES["tuned"], {"use_tsb_index": True},
    ], ids=["paper", "tuned", "tsb"])
    def test_equals_a_begin_as_of_read_for_every_key_and_mark(self, config):
        rng = random.Random(42)
        db = ImmortalDB(**dict(config, buffer_pages=32))
        table = db.create_table("t", COLS, key="k", immortal=True)
        marks, live = [db.now()], set()
        for _ in range(150):
            db.advance_time(rng.uniform(1.0, 50.0))
            k = rng.randrange(24)
            with db.transaction() as txn:
                if k not in live:
                    table.insert(txn, {"k": k, "v": "v" * rng.randrange(300)})
                    live.add(k)
                elif rng.random() < 0.2:
                    table.delete(txn, k)
                    live.discard(k)
                else:
                    table.update(txn, k, {"v": f"{rng.random()}" * 9})
            if rng.random() < 0.2:
                marks.append(db.now())
        marks.append(db.now())
        db.advance_time(1.0)
        answered = 0
        for mark in marks:
            for k in range(25):
                with db.transaction(as_of=mark) as txn:
                    want = table.read(txn, k)
                assert table.read_as_of(mark, k) == want, (mark, k)
                answered += want is not None
        assert answered

    def test_concurrent_read_between_an_update_and_its_commit(self):
        db, table, marks = build_versioned_db(keys=2, rounds=2)
        db.advance_time(100)
        before = db.now()
        db.advance_time(100)
        old = table.read_as_of(before, 1)["v"]
        seen = {}

        def writer(ctx):
            txn = db.begin()
            table.update(txn, 1, {"v": "new"})
            ctx.pause(to="reader")          # updated, not yet committed
            db.commit(txn)

        def reader(ctx):
            seen["before"] = table.read_as_of(before, 1)["v"]
            seen["now"] = table.read_as_of(db.now(), 1)["v"]
            seen["active"] = len(db.txn_mgr.active)
            ctx.pause(to="writer")

        sched = InterleaveScheduler(db)
        sched.spawn("writer", writer)
        sched.spawn("reader", reader)
        sched.run()
        # Neither read waited on the writer's lock or saw its version.
        assert seen == {"before": old, "now": old, "active": 1}
        assert sched.trace[:3] == ["run writer", "pause writer", "run reader"]
        db.advance_time(100)
        assert table.read_as_of(db.now(), 1)["v"] == "new"
        assert table.read_as_of(before, 1)["v"] == old
