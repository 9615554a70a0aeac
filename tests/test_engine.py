"""Engine-level integration tests: DDL, catalog, persistence, stats."""

from __future__ import annotations

import pytest

from repro import ColumnType, ImmortalDB, TxnMode
from repro.errors import (
    DuplicateKeyError,
    KeyNotFoundError,
    SchemaError,
    TableExistsError,
    TableNotFoundError,
)


@pytest.fixture
def db():
    return ImmortalDB(buffer_pages=64)


COLS = [("k", ColumnType.INT), ("v", ColumnType.TEXT)]


class TestDDL:
    def test_create_and_lookup(self, db):
        table = db.create_table("t", COLS, key="k", immortal=True)
        assert db.table("t") is table
        assert table.immortal

    def test_create_duplicate_rejected(self, db):
        db.create_table("t", COLS, key="k")
        with pytest.raises(TableExistsError):
            db.create_table("t", COLS, key="k")

    def test_missing_table(self, db):
        with pytest.raises(TableNotFoundError):
            db.table("nope")

    def test_bad_key_column(self, db):
        with pytest.raises(SchemaError):
            db.create_table("t", COLS, key="missing")

    def test_immortal_flag_controls_behavior(self, db):
        """Section 4.1: the catalog flag enables history + PTT + AS OF."""
        immortal = db.create_table("imm", COLS, key="k", immortal=True)
        plain = db.create_table("pl", COLS, key="k")
        with db.transaction() as txn:
            immortal.insert(txn, {"k": 1, "v": "a"})
        with db.transaction() as txn:
            plain.insert(txn, {"k": 1, "v": "a"})
        # Only the immortal commit wrote a PTT entry.
        assert db.tsmgr.stats.ptt_inserts == 1

    def test_enable_snapshot_isolation(self, db):
        db.create_table("t", COLS, key="k")
        db.enable_snapshot_isolation("t")
        assert db.table("t").versioned

    def test_drop_table(self, db):
        db.create_table("t", COLS, key="k")
        db.drop_table("t")
        with pytest.raises(TableNotFoundError):
            db.table("t")

    def test_string_column_types_accepted(self, db):
        table = db.create_table(
            "t", [("k", "int"), ("v", "text"), ("f", "float")], key="k"
        )
        with db.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "x", "f": 2.5})
        with db.transaction() as txn:
            assert table.read(txn, 1)["f"] == 2.5


class TestCRUD:
    def test_insert_read_roundtrip(self, db):
        table = db.create_table("t", COLS, key="k", immortal=True)
        with db.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "hello"})
        with db.transaction() as txn:
            assert table.read(txn, 1) == {"k": 1, "v": "hello"}

    def test_duplicate_insert_rejected(self, db):
        table = db.create_table("t", COLS, key="k", immortal=True)
        with db.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "a"})
        with pytest.raises(DuplicateKeyError):
            with db.transaction() as txn:
                table.insert(txn, {"k": 1, "v": "b"})

    def test_reinsert_after_delete_allowed(self, db):
        table = db.create_table("t", COLS, key="k", immortal=True)
        with db.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "first"})
        with db.transaction() as txn:
            table.delete(txn, 1)
        with db.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "second"})
        with db.transaction() as txn:
            assert table.read(txn, 1)["v"] == "second"

    def test_update_missing_key_rejected(self, db):
        table = db.create_table("t", COLS, key="k", immortal=True)
        with pytest.raises(KeyNotFoundError):
            with db.transaction() as txn:
                table.update(txn, 404, {"v": "x"})

    def test_delete_missing_key_rejected(self, db):
        table = db.create_table("t", COLS, key="k", immortal=True)
        with pytest.raises(KeyNotFoundError):
            with db.transaction() as txn:
                table.delete(txn, 404)

    def test_update_of_key_column_rejected(self, db):
        from repro.errors import SQLExecutionError

        table = db.create_table("t", COLS, key="k", immortal=True)
        with db.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "a"})
        with pytest.raises(SQLExecutionError):
            with db.transaction() as txn:
                table.update(txn, 1, {"k": 2})

    def test_scan_returns_key_order(self, db):
        table = db.create_table("t", COLS, key="k", immortal=True)
        with db.transaction() as txn:
            for k in (5, 1, 9, 3):
                table.insert(txn, {"k": k, "v": str(k)})
        with db.transaction() as txn:
            assert [r["k"] for r in table.scan(txn)] == [1, 3, 5, 9]

    def test_conventional_update_is_in_place(self, db):
        """The Fig-5 baseline path: no version chain growth."""
        table = db.create_table("t", COLS, key="k")
        with db.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "a"})
        for i in range(50):
            with db.transaction() as txn:
                table.update(txn, 1, {"v": f"v{i}"})
        key = table.codec.encode_key(1)
        leaf = table.btree.search_leaf(key)
        assert len(list(leaf.chain(key))) == 1
        with db.transaction() as txn:
            assert table.read(txn, 1)["v"] == "v49"


class TestFileDiskPersistence:
    def test_clean_shutdown_and_reopen(self, tmp_path):
        path = str(tmp_path / "db.pages")
        db = ImmortalDB(path, buffer_pages=32)
        table = db.create_table("t", COLS, key="k", immortal=True)
        with db.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "persisted"})
        past = db.now()
        db.advance_time(1000)
        with db.transaction() as txn:
            table.update(txn, 1, {"v": "newer"})
        db.close()

        db2 = ImmortalDB(path, buffer_pages=32)
        table2 = db2.table("t")
        with db2.transaction() as txn:
            assert table2.read(txn, 1)["v"] == "newer"
        assert table2.read_as_of(past, 1)["v"] == "persisted"
        db2.close()

    def test_reopen_preserves_catalog_flags(self, tmp_path):
        path = str(tmp_path / "db.pages")
        db = ImmortalDB(path)
        db.create_table("t", COLS, key="k", immortal=True, snapshot=True)
        db.close()
        db2 = ImmortalDB(path)
        schema = db2.table("t").schema
        assert schema.immortal and schema.snapshot_enabled
        db2.close()


class TestStats:
    def test_stats_expose_all_counters(self, db):
        table = db.create_table("t", COLS, key="k", immortal=True)
        with db.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "a"})
        stats = db.stats()
        assert stats["commits"] == 1
        assert stats["log_forces"] >= 1
        assert stats["ptt_inserts"] == 1

    def test_checkpoint_advances_and_collects(self, db):
        table = db.create_table("t", COLS, key="k", immortal=True)
        with db.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "a"})
        with db.transaction() as txn:
            table.update(txn, 1, {"v": "b"})  # stamps the insert version
        with db.transaction() as txn:
            table.read(txn, 1)  # stamps the update version
        db.checkpoint(flush=True)
        collected = db.checkpoint(flush=True)
        assert collected >= 1


class TestOneBufferPoolOnePageFormat:
    @pytest.mark.parametrize("removed", [
        {"eviction": "lru"}, {"flush_batch": 0}, {"page_checksums": False},
    ])
    def test_the_removed_settings_raise(self, removed):
        with pytest.raises(ValueError):
            ImmortalDB(**removed)


class TestAsOfRequiresImmortal:
    """Section 4.1: only IMMORTAL tables enable AS OF historical queries."""

    def test_asof_scan_rejected_on_conventional_table(self, db):
        from repro.errors import SQLExecutionError

        table = db.create_table("t", COLS, key="k", snapshot=True)
        with db.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "a"})
        with pytest.raises(SQLExecutionError):
            table.scan_as_of(db.now())

    def test_asof_read_rejected_on_conventional_table(self, db):
        from repro.errors import SQLExecutionError

        table = db.create_table("t", COLS, key="k")
        with db.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "a"})
        historical = db.begin(as_of=db.now())
        with pytest.raises(SQLExecutionError):
            table.read(historical, 1)
        db.commit(historical)

    def test_history_rejected_on_conventional_table(self, db):
        from repro.errors import SQLExecutionError

        table = db.create_table("t", COLS, key="k", snapshot=True)
        with pytest.raises(SQLExecutionError):
            table.history(1)

    def test_snapshot_reads_still_allowed(self, db):
        from repro import TxnMode

        table = db.create_table("t", COLS, key="k", snapshot=True)
        with db.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "a"})
        reader = db.begin(TxnMode.SNAPSHOT)
        assert table.read(reader, 1)["v"] == "a"
        db.commit(reader)


class TestEngineSQLConvenience:
    def test_db_sql_roundtrip(self, db):
        db.sql("CREATE IMMORTAL TABLE t (k INT PRIMARY KEY, v TEXT)")
        db.sql("INSERT INTO t VALUES (1, 'hi')")
        rows = db.sql("SELECT * FROM t").rows
        assert rows == [{"k": 1, "v": "hi"}]

    def test_db_sql_keeps_transaction_bracketing(self, db):
        db.sql("CREATE TABLE t (k INT PRIMARY KEY, v TEXT)")
        db.sql("BEGIN TRAN")
        db.sql("INSERT INTO t VALUES (1, 'x')")
        db.sql("ROLLBACK TRAN")
        assert db.sql("SELECT * FROM t").rowcount == 0
