"""Tests for the database integrity checker — and, through it, the engine.

Running the checker over heavily-exercised databases is itself a deep
test: every structural invariant is revalidated after splits, crashes,
and mixed workloads.  The corruption tests then prove the checker is not
vacuous (it actually catches each class of damage it claims to).
"""

from __future__ import annotations

import pytest

from repro import ColumnType, ImmortalDB
from repro.core.integrity import IntegrityError, verify_integrity


COLS = [("k", ColumnType.INT), ("v", ColumnType.TEXT)]


def build_busy_db(*, use_tsb=False, crash=False) -> ImmortalDB:
    db = ImmortalDB(buffer_pages=64, use_tsb_index=use_tsb)
    table = db.create_table("t", COLS, key="k", immortal=True)
    plain = db.create_table("p", COLS, key="k", snapshot=True)
    with db.transaction() as txn:
        for k in range(60):
            table.insert(txn, {"k": k, "v": "x" * 50})
            plain.insert(txn, {"k": k, "v": "y" * 30})
    for r in range(60):
        db.advance_time(300)
        with db.transaction() as txn:
            table.update(txn, r % 60, {"v": f"r{r}" + "z" * 50})
            plain.update(txn, r % 60, {"v": f"r{r}"})
    with db.transaction() as txn:
        table.delete(txn, 5)
    if crash:
        db.crash_and_recover()
    return db


class TestHealthyDatabases:
    def test_fresh_database_is_clean(self):
        db = ImmortalDB()
        db.create_table("t", COLS, key="k", immortal=True)
        assert verify_integrity(db) == []

    def test_busy_database_is_clean(self):
        assert verify_integrity(build_busy_db()) == []

    def test_busy_tsb_database_is_clean(self):
        assert verify_integrity(build_busy_db(use_tsb=True)) == []

    def test_database_clean_after_crash_recovery(self):
        assert verify_integrity(build_busy_db(crash=True)) == []

    def test_database_clean_with_active_transactions(self):
        db = build_busy_db()
        txn = db.begin()
        db.table("t").update(txn, 1, {"v": "in-flight"})
        assert verify_integrity(db) == []
        db.abort(txn)

    def test_database_clean_after_checkpoints_and_gc(self):
        db = build_busy_db()
        db.checkpoint(flush=True)
        db.checkpoint(flush=True)
        assert verify_integrity(db) == []

    def test_strict_mode_passes_quietly(self):
        verify_integrity(build_busy_db(), strict=True)


class TestCorruptionDetection:
    def test_detects_unsorted_slot_array(self):
        db = build_busy_db()
        table = db.table("t")
        leaf = table.btree.leftmost_leaf()
        leaf._slot_keys[0], leaf._slot_keys[1] = \
            leaf._slot_keys[1], leaf._slot_keys[0]
        leaf.slots[0], leaf.slots[1] = leaf.slots[1], leaf.slots[0]
        problems = verify_integrity(db)
        # Caught either by the slot-order check or by the codec roundtrip
        # (the decoder itself rejects unsorted slot arrays).
        assert any(
            "out of order" in p or "outside its bounds" in p
            or "fails to serialize" in p
            for p in problems
        )

    def test_detects_chain_cycle(self):
        db = build_busy_db()
        table = db.table("t")
        key = table.codec.encode_key(0)
        leaf = table.btree.search_leaf(key)
        head_index = leaf.slots[leaf.slot_of(key)]
        head = leaf.versions[head_index]
        if head.has_previous and not head.vp_in_history:
            leaf.versions[head.vp].vp = head_index  # cycle back to head
            leaf.versions[head.vp].flags &= ~2
            problems = verify_integrity(db)
            assert any("cycle" in p for p in problems)

    def test_detects_broken_history_time_range(self):
        from repro.clock import Timestamp

        db = build_busy_db()
        table = db.table("t")
        leaf = next(
            l for l in table.btree.leaves() if l.history_page_id
        )
        history = db.buffer.get_page(leaf.history_page_id)
        history.end_ts = Timestamp(1, 0)  # no longer meets the leaf's start
        problems = verify_integrity(db)
        assert any("ends at" in p or "empty time range" in p
                   for p in problems)

    def test_detects_orphaned_tid(self):
        from repro.storage.record import RecordVersion

        db = build_busy_db()
        table = db.table("t")
        leaf = table.btree.leftmost_leaf()
        ghost = RecordVersion.new(b"\x7f\xff\xff\xf0", b"x", tid=99999)
        leaf.insert_version(ghost)
        problems = verify_integrity(db)
        assert any("orphaned TID" in p for p in problems)

    def test_detects_misordered_index_separators(self):
        db = ImmortalDB(buffer_pages=256)
        table = db.create_table("t", COLS, key="k", immortal=True)
        with db.transaction() as txn:
            for k in range(400):
                table.insert(txn, {"k": k, "v": "x" * 60})
        root = db.buffer.get_page(table.btree.root_pid)
        from repro.access.btree import BTreeIndexPage

        assert isinstance(root, BTreeIndexPage)
        root.seps.reverse()
        problems = verify_integrity(db)
        assert problems  # separators and/or bounds violations

    def test_detects_drifted_index_node_size_count(self):
        db = ImmortalDB(buffer_pages=256)
        table = db.create_table("t", COLS, key="k", immortal=True)
        with db.transaction() as txn:
            for k in range(400):
                table.insert(txn, {"k": k, "v": "x" * 60})
        assert verify_integrity(db) == []
        root = db.buffer.get_page(table.btree.root_pid)
        root.seps.append(b"\xff" * 8)     # behind the node's back
        root.children.append(root.children[-1])
        problems = verify_integrity(db)
        assert any("used bytes" in p for p in problems)

    def test_strict_mode_raises(self):
        db = build_busy_db()
        table = db.table("t")
        leaf = table.btree.leftmost_leaf()
        leaf._slot_keys.reverse()
        leaf.slots.reverse()
        with pytest.raises(IntegrityError):
            verify_integrity(db, strict=True)
