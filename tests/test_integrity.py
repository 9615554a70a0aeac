"""Tests for the database integrity checker — and, through it, the engine.

Running the checker over heavily-exercised databases is itself a deep
test: every structural invariant is revalidated after splits, crashes,
and mixed workloads.  The corruption tests then prove the checker is not
vacuous (it actually catches each class of damage it claims to).
"""

from __future__ import annotations

import pytest

from repro import ColumnType, ImmortalDB
from repro.core.integrity import (
    IntegrityError,
    page_accounting,
    verify_integrity,
)


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


class TestPageAccounting:
    """The allocator's books: what every page id below ``page_count`` is,
    and that none of them is nothing."""

    def test_every_structure_is_counted_and_nothing_is_left_over(self):
        db = build_busy_db(use_tsb=True)
        books = page_accounting(db)
        assert books.orphans == []
        assert books.page_count == db.disk.page_count == sum(books.by_kind.values())
        for kind in ("meta", "current", "history", "ptt", "tsb"):
            assert books.by_kind[kind] >= 1, kind
        table = db.table("t")
        assert books.by_kind["current"] == sum(
            len(list(t.btree.leaves())) for t in db.tables.values()
        )
        assert books.by_kind["history"] == len(
            {p.page_id for p in table.iter_all_pages() if p.is_history}
        )
        assert verify_integrity(db) == []

    def test_an_id_taken_for_nothing_is_an_orphan(self):
        db = build_busy_db()
        leaked = db.disk.allocate()
        assert page_accounting(db).orphans == [leaked]
        assert verify_integrity(db) == []       # its verdicts do not change

    def test_archived_and_freed_pages_are_on_the_books(self):
        db = ImmortalDB(buffer_pages=64, archive={"cold_ms": 200.0, "auto": False})
        table = db.create_table("t", COLS, key="k", immortal=True)
        with db.transaction() as txn:
            for k in range(40):
                table.insert(txn, {"k": k, "v": "x" * 80})
        for r in range(12):
            db.advance_time(60_000)
            for k in range(40):
                with db.transaction() as txn:
                    table.update(txn, k, {"v": f"r{r}" + "y" * 80})
        assert db.archive.drain() > 0
        books = page_accounting(db)
        assert books.orphans == []
        assert books.by_kind["archived"] > 0 and books.by_kind["free"] > 0
        assert books.page_count == sum(books.by_kind.values()) \
            - books.by_kind["archived"]     # a reference, not a page

    @pytest.mark.parametrize("on_file", [False, True])
    def test_an_ascending_load_takes_a_page_id_only_for_a_logged_page(
        self, on_file, tmp_path
    ):
        """5,000 rows in key order, 500 a transaction, values of 32, 256 and
        2,048 bytes 60/30/10 (``oltp_pressure``'s preload): every full leaf
        holds single live versions, so every split is a key split — and the
        time split each one used to attempt first leaked a page id (the
        file was half zeros: 3.9 stored bytes per user byte, 1.9 now)."""
        import random

        from repro.wal.records import MultiPageImage

        rng = random.Random(20)
        db = ImmortalDB(str(tmp_path / "db.pages") if on_file else None)
        table = db.create_table("t", COLS, key="k", immortal=True)
        user_bytes = 0
        for base in range(0, 5000, 500):
            with db.transaction() as txn:
                for k in range(base, base + 500):
                    length = rng.choices((32, 256, 2048), (6, 3, 1))[0]
                    table.insert(txn, {"k": k, "v": "v" * length})
                    user_bytes += 8 + length
        splits = table.btree.stats
        assert splits.key_splits > 50 and splits.time_splits == 0
        assert page_accounting(db).orphans == []
        logged = {
            pid for rec in db.log.records_from(0)
            if isinstance(rec, MultiPageImage) for pid, _ in rec.images
        }
        assert db.disk.stats.allocations == len(logged | set(db.ptt.page_ids()))
        assert db.disk.page_count == 1 + db.disk.stats.allocations
        db.checkpoint(flush=True)
        stored = db.disk.page_count * db.disk.page_size
        assert stored / user_bytes <= 2.0, stored / user_bytes
        if on_file:
            path = db.disk.path
            db.close()
            with open(path, "rb") as fh:
                data = fh.read()
            size = db.disk.page_size
            assert len(data) == stored
            assert all(any(data[i:i + size]) for i in range(0, stored, size))
