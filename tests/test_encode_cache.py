"""Page-image encode caching: every mutation path must invalidate.

``Page.to_bytes()`` memoizes the serialized image keyed by a per-page
mutation epoch.  The cache is only correct if *every* way a page changes
moves the epoch, and there is one rule for that: a page's mutator methods
(``insert_version``, ``append_chains``, ``remove_newest_version``,
``replace_payload_in_place``, ``set_entries``, ``post``) touch it, and
``BufferPool.mark_dirty`` touches it for everything else — attribute writes
and in-place record mutation (stamping) — except on the pre-flush path,
where stamping touches the page itself.  Each test mutates through one path
and checks the cached image against a fresh uncached ``_encode()``; a replay
of the hot-path identity workload checks every cached page after every
transaction.
"""

from __future__ import annotations

import pytest

from repro import ColumnType, ImmortalDB
from repro.access.btree import BTreeIndexPage
from repro.clock import SimClock, Timestamp
from repro.storage.page import DataPage, decode_page
from repro.storage.record import RecordVersion
from tests.test_hotpath_identity import TUNED, run_workload

COLS = [("k", ColumnType.INT), ("v", ColumnType.TEXT)]


@pytest.fixture
def db():
    return ImmortalDB(buffer_pages=64)


@pytest.fixture
def table(db):
    return db.create_table("t", COLS, key="k", immortal=True)


def data_pages(db):
    return [p for p in db.buffer.cached_pages() if isinstance(p, DataPage)]


def assert_images_fresh(db):
    """The cached image of every pooled page equals an uncached encode."""
    for page in db.buffer.cached_pages():
        assert page.to_bytes() == page._encode(), (
            f"stale cached image for page {page.page_id} "
            f"({type(page).__name__})"
        )


class TestCacheMechanics:
    def test_repeat_encode_returns_cached_image(self, db, table):
        with db.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "a"})
        page = data_pages(db)[0]
        first = page.to_bytes()
        assert page.to_bytes() is first        # memoized, not re-encoded

    def test_mark_dirty_covers_an_attribute_write(self, db, table):
        with db.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "a"})
        page = data_pages(db)[0]
        stale = page.to_bytes()
        page.lsn = page.lsn + 1                # the recovery/SMO write path
        db.buffer.mark_dirty_page(page)
        assert page.to_bytes() != stale
        assert page.to_bytes() == page._encode()

    def test_touch_invalidates(self, db, table):
        with db.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "a"})
        page = data_pages(db)[0]
        first = page.to_bytes()
        page.touch()
        assert page.to_bytes() is not first
        assert page.to_bytes() == first        # same content, re-encoded


class TestMutationPaths:
    def test_insert_invalidates(self, db, table):
        with db.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "a"})
        stale = data_pages(db)[0].to_bytes()
        with db.transaction() as txn:
            table.insert(txn, {"k": 2, "v": "b"})
        page = data_pages(db)[0]
        assert page.to_bytes() != stale
        assert_images_fresh(db)

    def test_update_version_chain_invalidates(self, db, table):
        with db.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "a"})
        stale = {p.page_id: p.to_bytes() for p in data_pages(db)}
        with db.transaction() as txn:
            table.update(txn, 1, {"v": "b"})
        changed = [
            p for p in data_pages(db)
            if p.to_bytes() != stale.get(p.page_id)
        ]
        assert changed, "update mutated no cached page image"
        assert_images_fresh(db)

    def test_delete_stub_invalidates(self, db, table):
        with db.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "a"})
        stale = data_pages(db)[0].to_bytes()
        with db.transaction() as txn:
            table.delete(txn, 1)
        assert data_pages(db)[0].to_bytes() != stale
        assert_images_fresh(db)

    def test_stamping_via_flush_hook_invalidates(self, db, table):
        """``stamp_page(mark_dirty=False)`` bypasses mark_dirty — the
        explicit ``touch()`` inside stamping must still invalidate."""
        with db.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "a"})
        page = data_pages(db)[0]
        stale = page.to_bytes()
        assert db.tsmgr.stamp_page(page, mark_dirty=False) >= 1
        assert page.to_bytes() != stale
        assert page.to_bytes() == page._encode()
        # ... and the stamped timestamp is actually in the image.
        roundtrip = decode_page(page.to_bytes())
        assert all(
            v.is_timestamped for v in roundtrip.versions
        ), "flushed image lost the stamps"

    def test_page_split_invalidates_every_leaf(self, db, table):
        big = "x" * 600
        for k in range(40):                   # enough to force leaf splits
            with db.transaction() as txn:
                table.insert(txn, {"k": k, "v": big})
        assert len(data_pages(db)) > 1, "workload never split a page"
        assert_images_fresh(db)

    def test_checksum_roundtrip_keeps_cache_fresh(self):
        db = ImmortalDB(buffer_pages=64, page_checksums=True)
        table = db.create_table("t", COLS, key="k", immortal=True)
        with db.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "a"})
        db.buffer.flush_all()
        pid = data_pages(db)[0].page_id
        raw = db.disk.read_page(pid)          # CRC-stamped image
        page = decode_page(raw)
        assert page.to_bytes() == page._encode()
        assert_images_fresh(db)

    def test_flushed_image_matches_fresh_encode(self, db, table):
        """End to end: after a flush cycle (which stamps via the hook),
        what the disk holds decodes back to a page whose cached and fresh
        images agree — i.e. no mutation path leaked past the cache."""
        for k in range(10):
            with db.transaction() as txn:
                table.insert(txn, {"k": k, "v": f"v{k}"})
        with db.transaction() as txn:
            table.update(txn, 3, {"v": "new"})
        db.buffer.flush_all()
        assert_images_fresh(db)
        for page in data_pages(db):
            on_disk = db.disk.read_page(page.page_id)
            assert on_disk == page.to_bytes()


def test_stamp_writes_through_cache_unit():
    """Minimal unit check, no engine: stamping a version then touching the
    page produces an image containing the timestamp."""
    page = DataPage(page_id=7, immortal=True, table_id=1)
    page.insert_version(RecordVersion.new(b"\x01", b"p", 9))
    stale = page.to_bytes()
    version = next(iter(page.unstamped_versions()))
    version.stamp(Timestamp(1234, 1))
    assert page.to_bytes() == stale            # in-place: cache can't see it
    page.touch()                               # ... which is why stamp_page touches
    assert page.to_bytes() != stale
    assert page.to_bytes() == page._encode()


# -- the one invalidation rule, per mutator -----------------------------------

def _data_page() -> DataPage:
    page = DataPage(7, immortal=True, table_id=1)
    for key in (b"a", b"b", b"c"):
        page.insert_version(RecordVersion.new(key, b"p-" + key, 9))
    return page


def _index_node() -> BTreeIndexPage:
    node = BTreeIndexPage(8)
    node.set_entries([b"m"], [10, 11])
    return node


MUTATORS = {
    "insert_version": (_data_page, lambda p: p.insert_version(
        RecordVersion.new(b"b", b"newer", 10))),
    "append_chains": (_data_page, lambda p: p.append_chains(
        [[RecordVersion.new(b"d", b"copied", 9)]])),
    "remove_newest_version": (_data_page,
                              lambda p: p.remove_newest_version(b"c")),
    "replace_payload_in_place": (_data_page,
                                 lambda p: p.replace_payload_in_place(b"a", b"q")),
    "set_entries": (_index_node, lambda n: n.set_entries([b"k"], [12, 13])),
    "post": (_index_node, lambda n: n.post(1, b"t", 14)),
}


@pytest.mark.parametrize("name", sorted(MUTATORS))
def test_every_mutator_moves_the_token_and_the_image(name):
    build, mutate = MUTATORS[name]
    page = build()
    stale, token = page.to_bytes(), page.cache_token
    mutate(page)
    assert page.cache_token != token
    assert page.to_bytes() != stale
    assert page.to_bytes() == page._encode()


@pytest.mark.parametrize("engine", ["tuned-file", "paper-memory"])
def test_no_cached_image_is_stale_after_any_transaction(engine, tmp_path):
    """The hot-path identity workload, checking every pooled page's cached
    image against a fresh encode each time a transaction ends."""
    if engine == "tuned-file":
        db = ImmortalDB(str(tmp_path / "db.pages"),
                        clock=SimClock(ms_per_timestamp=5.0), **TUNED)
    else:
        db = ImmortalDB()
    checked = 0

    def checking(end):
        def finish(txn):
            nonlocal checked
            try:
                return end(txn)
            finally:
                assert_images_fresh(db)
                checked += 1
        return finish

    db.commit, db.abort = checking(db.commit), checking(db.abort)
    run_workload(db)
    assert checked > 800
    if engine == "tuned-file":
        db.close()


def test_every_history_page_is_encoded_once(tmp_path, monkeypatch):
    """A time split images its pages into its log record, and the history
    page never changes again: that image is the one written back.  Rounds
    of versioned updates on the tuned, file-backed engine (the set-up of
    the ``asof_deep`` benchmark, smaller and without the archive, which
    relinks history chains), then a flushing checkpoint."""
    encodes: dict[int, int] = {}
    encode = DataPage._encode

    def counted(page):
        encodes[page.page_id] = encodes.get(page.page_id, 0) + 1
        return encode(page)

    monkeypatch.setattr(DataPage, "_encode", counted)
    db = ImmortalDB(str(tmp_path / "db.pages"), **TUNED)
    table = db.create_table("t", COLS, key="k", immortal=True)
    with db.transaction() as txn:
        for k in range(200):
            table.insert(txn, {"k": k, "v": "x" * 100})
    for round_no in range(12):
        db.advance_time(1000)
        with db.transaction() as txn:
            for k in range(200):
                if (k * 7 + round_no) % 10 < 7:
                    table.update(txn, k, {"v": f"{round_no:03d}" + "y" * 97})
        if round_no % 4 == 3:
            db.checkpoint(flush=True)
    db.checkpoint(flush=True)
    history = [pid for pid in encodes
               if isinstance(page := db.buffer.get_page(pid), DataPage)
               and page.is_history]
    assert len(history) > 20
    assert {pid: encodes[pid] for pid in history if encodes[pid] != 1} == {}
    db.close()
