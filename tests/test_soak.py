"""Soak test: a long randomized mixed workload with invariants re-verified.

One seeded run drives every feature at once — immortal and snapshot
tables, serializable/snapshot/as-of transactions, aborts, deletes and
re-inserts, checkpoints, crashes, backup freezes — and checks after every
phase that (a) the model state matches, (b) all captured historical marks
still reproduce, and (c) the full integrity checker stays clean.
"""

from __future__ import annotations

import random

import pytest

from repro import ColumnType, ImmortalDB, TxnMode, verify_integrity
from repro.core.backup import QueryableBackup
from repro.core.integrity import page_accounting
from repro.errors import ImmortalDBError, LockConflictError, WriteConflictError


COLS = [("k", ColumnType.INT), ("v", ColumnType.TEXT)]
KEYS = 25


@pytest.mark.parametrize("seed", [7, 21, 1999])
def test_soak_mixed_workload(seed):
    rng = random.Random(seed)
    db = ImmortalDB(buffer_pages=48, use_tsb_index=(seed % 2 == 0))
    ledger = db.create_table("ledger", COLS, key="k", immortal=True)
    scratch = db.create_table("scratch", COLS, key="k", snapshot=True)

    model: dict[int, str] = {}
    marks: list[tuple] = []
    open_snapshots: list = []
    # Page ids nothing reaches.  Only a crash may add one (the store was
    # extended for a split whose log record the crash lost); no page id is
    # ever taken for nothing while the engine runs.
    crash_orphans: list[int] = []

    def one_write(i: int) -> None:
        key = rng.randrange(KEYS)
        value = f"s{seed}i{i}" + "x" * rng.randrange(30)
        abort = rng.random() < 0.10
        txn = db.begin()
        try:
            if key in model:
                if rng.random() < 0.15:
                    ledger.delete(txn, key)
                    new_state = None
                else:
                    ledger.update(txn, key, {"v": value})
                    new_state = value
            else:
                ledger.insert(txn, {"k": key, "v": value})
                new_state = value
            if rng.random() < 0.3:
                # Ride along on the scratch table in the same transaction.
                try:
                    scratch.insert(txn, {"k": key, "v": value})
                except ImmortalDBError:
                    pass
        except (LockConflictError, WriteConflictError):
            db.abort(txn)
            return
        if abort:
            db.abort(txn)
            return
        db.commit(txn)
        if new_state is None:
            model.pop(key, None)
        else:
            model[key] = new_state

    for i in range(400):
        db.advance_time(rng.uniform(10, 400))
        one_write(i)

        roll = rng.random()
        if roll < 0.05:
            marks.append((db.now(), dict(model)))
        elif roll < 0.08:
            open_snapshots.append(db.begin(TxnMode.SNAPSHOT))
        elif roll < 0.10 and open_snapshots:
            db.commit(open_snapshots.pop())
        elif roll < 0.13:
            db.checkpoint(flush=rng.random() < 0.5)
        elif roll < 0.15:
            for snap in open_snapshots:
                db.abort(snap)
            open_snapshots.clear()
            db.crash_and_recover()
            verify_integrity(db, strict=True)
            crash_orphans = page_accounting(db).orphans
            ledger = db.table("ledger")
            scratch = db.table("scratch")
        elif roll < 0.16:
            QueryableBackup(ledger).freeze()

        if i % 100 == 99:
            # Periodic deep validation.
            with db.transaction() as txn:
                got = {r["k"]: r["v"] for r in ledger.scan(txn)}
            assert got == model, f"divergence at op {i}"
            for mark, snapshot_model in marks:
                as_of = {
                    r["k"]: r["v"] for r in ledger.scan_as_of(mark)
                }
                assert as_of == snapshot_model, f"history broken at op {i}"
            assert verify_integrity(db) == []
            assert page_accounting(db).orphans == crash_orphans

    # Final validation, after one more crash for good measure.
    for snap in open_snapshots:
        db.abort(snap)
    assert page_accounting(db).orphans == crash_orphans
    db.crash_and_recover()
    verify_integrity(db, strict=True)
    ledger = db.table("ledger")
    with db.transaction() as txn:
        got = {r["k"]: r["v"] for r in ledger.scan(txn)}
    assert got == model
    for mark, snapshot_model in marks:
        assert {
            r["k"]: r["v"] for r in ledger.scan_as_of(mark)
        } == snapshot_model
    assert verify_integrity(db) == []
