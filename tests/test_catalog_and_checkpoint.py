"""Unit tests for the catalog codec and the checkpoint manager."""

from __future__ import annotations

import pytest

from repro.core.engine import ImmortalDB
from repro.core.catalog import Catalog, ColumnDef, TableSchema
from repro.core.rowcodec import ColumnType
from repro.errors import CatalogError, TableExistsError, TableNotFoundError
from repro.storage.buffer import BufferPool
from repro.storage.disk import PageStore
from repro.storage.page import DataPage
from repro.wal.checkpoint import CheckpointManager
from repro.wal.log import LogManager
from repro.wal.records import BeginTxn, CheckpointEnd


def schema(name="t", table_id=1, **kw) -> TableSchema:
    return TableSchema(
        name=name,
        table_id=table_id,
        columns=[ColumnDef("k", ColumnType.INT), ColumnDef("v", ColumnType.TEXT)],
        key_column="k",
        root_pid=5,
        **kw,
    )


class TestCatalog:
    def test_blob_roundtrip(self):
        catalog = Catalog(next_table_id=9)
        catalog.add_table(schema("a", 1, immortal=True, tsb_root_pid=7))
        catalog.add_table(schema("b", 2, snapshot_enabled=True))
        back = Catalog.from_blob(catalog.to_blob())
        assert back.next_table_id == 9
        assert back.get("a").immortal
        assert back.get("a").tsb_root_pid == 7
        assert back.get("b").snapshot_enabled
        assert back.get("b").columns[1].column_type is ColumnType.TEXT

    def test_empty_blob_is_empty_catalog(self):
        catalog = Catalog.from_blob(b"")
        assert catalog.tables == {}
        assert catalog.next_table_id == 1

    def test_corrupt_blob_rejected(self):
        with pytest.raises(CatalogError):
            Catalog.from_blob(b"{not json")
        with pytest.raises(CatalogError):
            Catalog.from_blob(b'{"format": 99}')

    def test_duplicate_table_rejected(self):
        catalog = Catalog()
        catalog.add_table(schema())
        with pytest.raises(TableExistsError):
            catalog.add_table(schema())

    def test_lookup_by_id(self):
        catalog = Catalog()
        catalog.add_table(schema("x", 4))
        assert catalog.by_id(4).name == "x"
        with pytest.raises(TableNotFoundError):
            catalog.by_id(99)

    def test_table_id_allocation_monotonic(self):
        catalog = Catalog()
        assert catalog.allocate_table_id() == 1
        assert catalog.allocate_table_id() == 2

    def test_remove_table(self):
        catalog = Catalog()
        catalog.add_table(schema())
        catalog.remove_table("t")
        with pytest.raises(TableNotFoundError):
            catalog.get("t")


class TestCheckpointManager:
    @pytest.fixture
    def env(self):
        class Env:
            def __init__(self):
                self.disk = PageStore()
                self.buffer = BufferPool(self.disk, capacity=16)
                self.log = LogManager()
                self.ckpt = CheckpointManager(self.log, self.buffer)

        return Env()

    def test_no_checkpoint_means_scan_from_zero(self, env):
        assert env.ckpt.redo_scan_start() == 0

    def test_checkpoint_records_att_and_dpt(self, env):
        page = env.buffer.new_page(lambda pid: DataPage(pid))
        env.buffer.flush_page(page.page_id)
        env.buffer.mark_dirty(page.page_id, 123)
        lsn = env.ckpt.take({7: (50, 0)})
        end = env.log.record_at(lsn)
        assert isinstance(end, CheckpointEnd)
        assert end.att == {7: (50, 0)}
        assert end.dpt == {page.page_id: 123}
        assert env.log.master_checkpoint_lsn == lsn

    def test_redo_scan_start_is_min_rec_lsn(self, env):
        a = env.buffer.new_page(lambda pid: DataPage(pid))
        b = env.buffer.new_page(lambda pid: DataPage(pid))
        env.buffer.flush_all()
        env.buffer.mark_dirty(a.page_id, 500)
        env.buffer.mark_dirty(b.page_id, 200)
        env.ckpt.take({})
        assert env.ckpt.redo_scan_start() == 200

    def test_flush_checkpoint_advances_scan_point(self, env):
        page = env.buffer.new_page(lambda pid: DataPage(pid))
        env.buffer.flush_page(page.page_id)
        env.buffer.mark_dirty(page.page_id, 10)
        env.ckpt.take({})
        early = env.ckpt.redo_scan_start()
        env.log.append(BeginTxn(tid=1))
        env.ckpt.take({}, flush=True)
        late = env.ckpt.redo_scan_start()
        assert late > early

    def test_checkpoint_is_durable(self, env):
        env.ckpt.take({})
        assert env.log.flushed_lsn == env.log.end_lsn

    def test_counts_checkpoints(self, env):
        env.ckpt.take({})
        env.ckpt.take({})
        assert env.ckpt.checkpoints_taken == 2


@pytest.mark.parametrize("flush", [True, False])
def test_page_writes_are_synced_before_the_master_record(tmp_path, flush):
    """The redo start point (and the PTT collection gated on it) may move
    past a page only once its image survives a power loss: a checkpoint
    syncs the page file before it writes the master record.  That one sync
    is all it costs the page file: the boot page is a logged page, written
    back like any other, so nothing is written after the master record."""
    db = ImmortalDB(str(tmp_path / "db.pages"), buffer_pages=8)
    table = db.create_table("t", [("k", "int"), ("v", "text")], key="k")
    disk, log = db.buffer.disk, db.log
    events = []

    def spy(name, method):
        def wrapped(*args, **kwargs):
            events.append(name)
            return method(*args, **kwargs)
        return wrapped

    disk._write = spy("write", disk._write)
    disk.sync = spy("sync", disk.sync)
    log.set_master_checkpoint = spy("master", log.set_master_checkpoint)
    for k in range(400):        # 8 frames: eviction writes pages meanwhile
        with db.transaction() as txn:
            table.insert(txn, {"k": k, "v": "x" * 200})
    del events[:]
    db.checkpoint(flush=flush)
    master = events.index("master")
    assert events[master - 1] == "sync"
    assert events.count("sync") == 1
    assert "write" not in events[master:]
    assert "write" in events[:master] or not flush
    db.close()
