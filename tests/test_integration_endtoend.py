"""End-to-end integration scenarios across the whole engine.

These exercise realistic multi-table, multi-mode lifecycles: mixed
immortal/conventional tables, interleaved snapshot and serializable
transactions, checkpoints mid-stream, crashes at adversarial points, and
both timestamping policies.
"""

from __future__ import annotations

import random

import pytest

from repro import ColumnType, ImmortalDB, TxnMode
from repro.errors import LockConflictError, WriteConflictError


COLS = [("k", ColumnType.INT), ("v", ColumnType.TEXT)]


class TestMultiTableLifecycle:
    def test_mixed_tables_share_one_engine(self):
        db = ImmortalDB(buffer_pages=96)
        ledger = db.create_table("ledger", COLS, key="k", immortal=True)
        cache = db.create_table("cache", COLS, key="k", snapshot=True)
        plain = db.create_table("plain", COLS, key="k")

        marks = []
        for round_no in range(30):
            db.advance_time(500)
            with db.transaction() as txn:
                for table in (ledger, cache, plain):
                    if round_no == 0:
                        table.insert(txn, {"k": 1, "v": "r0"})
                    else:
                        table.update(txn, 1, {"v": f"r{round_no}"})
            marks.append(db.now())

        # Only the immortal table answers deep history.
        assert ledger.read_as_of(marks[4], 1)["v"] == "r4"
        # All three agree on the present.
        with db.transaction() as txn:
            assert (
                ledger.read(txn, 1)["v"]
                == cache.read(txn, 1)["v"]
                == plain.read(txn, 1)["v"]
                == "r29"
            )
        # Only the immortal table's commits fed the PTT.
        assert db.tsmgr.stats.ptt_inserts == 30

    def test_cross_table_transaction_is_atomic(self):
        db = ImmortalDB(buffer_pages=96)
        a = db.create_table("a", COLS, key="k", immortal=True)
        b = db.create_table("b", COLS, key="k", immortal=True)
        with db.transaction() as txn:
            a.insert(txn, {"k": 1, "v": "a1"})
            b.insert(txn, {"k": 1, "v": "b1"})
        txn = db.begin()
        a.update(txn, 1, {"v": "a2"})
        b.update(txn, 1, {"v": "b2"})
        db.abort(txn)
        with db.transaction() as reader:
            assert a.read(reader, 1)["v"] == "a1"
            assert b.read(reader, 1)["v"] == "b1"
        # Both versions share one commit timestamp when committed together.
        txn = db.begin()
        a.update(txn, 1, {"v": "a3"})
        b.update(txn, 1, {"v": "b3"})
        db.commit(txn)
        assert a.history(1)[-1][0] == b.history(1)[-1][0]

    def test_checkpoints_interleaved_with_load(self):
        db = ImmortalDB(buffer_pages=96)
        table = db.create_table("t", COLS, key="k", immortal=True)
        marks = []
        for i in range(120):
            db.advance_time(200)
            with db.transaction() as txn:
                if i < 20:
                    table.insert(txn, {"k": i, "v": f"i{i}"})
                else:
                    table.update(txn, i % 20, {"v": f"u{i}"})
            if i % 25 == 24:
                db.checkpoint(flush=(i % 50 == 49))
            marks.append(db.now())
        db.crash_and_recover()
        table = db.table("t")
        assert table.read_as_of(marks[30], 10)["v"] in ("i10", "u30")
        with db.transaction() as txn:
            assert len(table.scan(txn)) == 20


class TestInterleavedIsolation:
    def test_snapshot_serializable_mix(self):
        db = ImmortalDB(buffer_pages=96)
        table = db.create_table("t", COLS, key="k", snapshot=True)
        with db.transaction() as txn:
            for k in range(10):
                table.insert(txn, {"k": k, "v": "v0"})

        snap1 = db.begin(TxnMode.SNAPSHOT)
        serial = db.begin()                       # serializable writer
        table.update(serial, 3, {"v": "serial"})
        snap2 = db.begin(TxnMode.SNAPSHOT)        # begins mid-write

        # snap1 and snap2 both predate serial's commit.
        assert table.read(snap1, 3)["v"] == "v0"
        assert table.read(snap2, 3)["v"] == "v0"
        db.commit(serial)
        # Still v0 for both: repeatable reads.
        assert table.read(snap1, 3)["v"] == "v0"
        assert table.read(snap2, 3)["v"] == "v0"
        db.commit(snap1)
        db.commit(snap2)
        snap3 = db.begin(TxnMode.SNAPSHOT)
        assert table.read(snap3, 3)["v"] == "serial"
        db.commit(snap3)

    def test_write_skew_is_possible_under_si(self):
        """Classic SI anomaly — present by design, documented behaviour."""
        db = ImmortalDB(buffer_pages=96)
        table = db.create_table("t", COLS, key="k", snapshot=True)
        with db.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "on"})
            table.insert(txn, {"k": 2, "v": "on"})
        t1 = db.begin(TxnMode.SNAPSHOT)
        t2 = db.begin(TxnMode.SNAPSHOT)
        # Each reads the other's row, then writes its own: no W-W overlap.
        assert table.read(t1, 2)["v"] == "on"
        assert table.read(t2, 1)["v"] == "on"
        table.update(t1, 1, {"v": "off"})
        table.update(t2, 2, {"v": "off"})
        db.commit(t1)
        db.commit(t2)   # SI permits this; serializable would not
        with db.transaction() as txn:
            assert table.read(txn, 1)["v"] == "off"
            assert table.read(txn, 2)["v"] == "off"

    def test_serializable_prevents_the_same_skew(self):
        db = ImmortalDB(buffer_pages=96)
        table = db.create_table("t", COLS, key="k", immortal=True)
        with db.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "on"})
            table.insert(txn, {"k": 2, "v": "on"})
        t1 = db.begin()
        t2 = db.begin()
        table.read(t1, 2)
        table.read(t2, 1)
        with pytest.raises(LockConflictError):
            table.update(t1, 1, {"v": "off"})   # t2 holds S on k=1
        db.abort(t1)
        db.abort(t2)


class TestEagerModeEndToEnd:
    def test_eager_engine_full_lifecycle(self):
        db = ImmortalDB(buffer_pages=96, timestamping="eager")
        table = db.create_table("t", COLS, key="k", immortal=True)
        marks = []
        for i in range(40):
            db.advance_time(300)
            with db.transaction() as txn:
                if i < 10:
                    table.insert(txn, {"k": i, "v": f"i{i}"})
                else:
                    table.update(txn, i % 10, {"v": f"u{i}"})
            marks.append(db.now())
        # Everything is stamped already — no lazy work pending.
        for leaf in table.btree.leaves():
            assert not leaf.has_unstamped_records()
        assert table.read_as_of(marks[15], 5)["v"] == "u15"

    def test_eager_crash_recovery_replays_stamps(self):
        db = ImmortalDB(buffer_pages=96, timestamping="eager")
        table = db.create_table("t", COLS, key="k", immortal=True)
        with db.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "a"})
        mark = db.now()
        db.advance_time(500)
        with db.transaction() as txn:
            table.update(txn, 1, {"v": "b"})
        committed_ts = txn.commit_ts
        db.crash_and_recover()
        table = db.table("t")
        # StampOp redo restamped the redone versions with original times.
        assert table.history(1)[-1][0] == committed_ts
        assert table.read_as_of(mark, 1)["v"] == "a"
        with db.transaction() as txn:
            assert table.read(txn, 1)["v"] == "b"

    def test_eager_recovery_leaves_the_ptt_empty(self):
        """Eager commits never insert PTT entries, so their commit records
        must not ask redo to (nothing would ever collect them: eager
        garbage collection has no PTT entries to look for)."""
        db = ImmortalDB(buffer_pages=96, timestamping="eager")
        table = db.create_table("t", COLS, key="k", immortal=True)
        for i in range(50):
            with db.transaction() as txn:
                table.insert(txn, {"k": i, "v": f"v{i}"})
        assert len(db.tsmgr.ptt) == 0
        db.crash()
        db.recover()
        for _ in range(3):
            db.checkpoint()
        assert len(db.tsmgr.ptt) == 0
        assert db.table("t").read_as_of(db.now(), 49)["v"] == "v49"


class TestRandomizedCrashPoints:
    def test_crash_after_every_tenth_transaction(self):
        """Crash repeatedly through a workload; committed work never regresses."""
        rng = random.Random(12)
        db = ImmortalDB(buffer_pages=48)
        table = db.create_table("t", COLS, key="k", immortal=True)
        model: dict[int, str] = {}
        marks: list[tuple] = []
        for i in range(150):
            db.advance_time(150)
            key = rng.randrange(12)
            with db.transaction() as txn:
                if key not in model:
                    table.insert(txn, {"k": key, "v": f"v{i}"})
                else:
                    table.update(txn, key, {"v": f"v{i}"})
            model[key] = f"v{i}"
            marks.append((db.now(), dict(model)))
            if i % 10 == 9:
                if rng.random() < 0.5:
                    db.buffer.flush_all()
                if rng.random() < 0.3:
                    db.checkpoint(flush=rng.random() < 0.5)
                db.crash_and_recover()
                table = db.table("t")
        for mark, snapshot_model in marks:
            got = {
                row["k"]: row["v"] for row in table.scan_as_of(mark)
            }
            assert got == snapshot_model

    def test_crash_with_open_transactions_everywhere(self):
        db = ImmortalDB(buffer_pages=48)
        table = db.create_table("t", COLS, key="k", immortal=True)
        with db.transaction() as txn:
            for k in range(6):
                table.insert(txn, {"k": k, "v": "base"})
        # Three losers in different states: unlogged, logged, flushed.
        loser_a = db.begin()
        table.update(loser_a, 0, {"v": "lost-a"})
        loser_b = db.begin()
        table.update(loser_b, 1, {"v": "lost-b"})
        db.log.force()
        loser_c = db.begin()
        table.update(loser_c, 2, {"v": "lost-c"})
        db.buffer.flush_all()
        db.crash_and_recover()
        table = db.table("t")
        with db.transaction() as txn:
            for k in range(6):
                assert table.read(txn, k)["v"] == "base", k
