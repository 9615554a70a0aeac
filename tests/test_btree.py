"""Tests for the B-tree primary index: descent, splits, leaf chains."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.access.btree import BTree, BTreeIndexPage
from repro.clock import SimClock
from repro.errors import PageFormatError
from repro.storage.buffer import BufferPool
from repro.storage.disk import FileDisk, InMemoryDisk
from repro.storage.page import DataPage, decode_page
from repro.storage.record import RecordVersion
from repro.wal.log import LogManager


class Env:
    def __init__(self, *, immortal=True, capacity=256, disk=None):
        self.disk = disk or InMemoryDisk()
        self.buffer = BufferPool(self.disk, capacity=capacity)
        self.log = LogManager()
        self.clock = SimClock(ms_per_timestamp=5.0)
        self.btree = BTree(
            self.buffer, self.log, self.clock, table_id=1, immortal=immortal
        )
        self._stamp_all = True
        self.stamp_calls = 0
        self.btree.stamp_page = self._stamp

    def _stamp(self, page: DataPage) -> int:
        # Standalone stand-in for the timestamp manager: committed == all.
        self.stamp_calls += 1
        if not self._stamp_all:
            return 0
        count = 0
        for version in page.unstamped_versions():
            version.stamp(self.clock.next_timestamp())
            count += 1
        return count

    def insert(self, key: bytes, payload: bytes = b"v", *, committed=True,
               delete_stub=False) -> None:
        record = RecordVersion.new(key, payload, tid=1, delete_stub=delete_stub)
        if committed:
            record.stamp(self.clock.next_timestamp())
        leaf = self.btree.leaf_for_insert(record)
        lsn = self.log.append(
            __import__("repro.wal.records", fromlist=["VersionOp"]).VersionOp(
                tid=1, table_id=1, page_id=leaf.page_id,
                key=key, payload=payload,
            )
        )
        self.btree.apply_insert(leaf, record, lsn)


@pytest.fixture
def env():
    return Env()


def k(i: int) -> bytes:
    return f"k{i:06}".encode()


class TestBasics:
    def test_single_leaf_root(self, env):
        env.insert(b"a")
        leaf = env.btree.search_leaf(b"a")
        assert leaf.head(b"a") is not None
        assert leaf.page_id == env.btree.root_pid

    def test_search_routes_to_correct_leaf(self, env):
        for i in range(600):
            env.insert(k(i), b"x" * 60)
        for i in (0, 123, 599):
            leaf = env.btree.search_leaf(k(i))
            assert leaf.head(k(i)) is not None, i

    def test_root_pid_is_stable_across_growth(self, env):
        root = env.btree.root_pid
        for i in range(3000):
            env.insert(k(i), b"x" * 40)
        assert env.btree.root_pid == root
        assert isinstance(env.buffer.get_page(root), BTreeIndexPage)

    def test_leaves_iterate_in_key_order(self, env):
        for i in range(800):
            env.insert(k(i), b"x" * 50)
        seen: list[bytes] = []
        for leaf in env.btree.leaves():
            seen.extend(leaf.keys())
        assert seen == sorted(seen)
        assert len(seen) == 800

    def test_leaves_with_bounds_tile_the_key_space(self, env):
        for i in range(800):
            env.insert(k(i), b"x" * 50)
        bounds = list(env.btree.leaves_with_bounds())
        assert bounds[0][1] == b""            # first low bound is -inf
        assert bounds[-1][2] is None          # last high bound is +inf
        for (_, _, high), (_, low, _) in zip(bounds, bounds[1:]):
            assert high == low                # adjacent bounds meet exactly
        for leaf, low, high in bounds:
            for key in leaf.keys():
                assert key >= low
                assert high is None or key < high

    def test_oversized_key_rejected(self, env):
        from repro.errors import AccessMethodError

        rec = RecordVersion.new(b"x" * 200, b"v", tid=1)
        with pytest.raises(AccessMethodError):
            env.btree.leaf_for_insert(rec)


class TestImmortalSplitting:
    def test_repeated_updates_cause_time_splits(self, env):
        for round_no in range(300):
            env.insert(b"hot", f"value-{round_no}".encode() + b"x" * 60)
        assert env.btree.stats.time_splits >= 1
        leaf = env.btree.search_leaf(b"hot")
        assert leaf.history_page_id != 0
        history = env.buffer.get_page(leaf.history_page_id)
        assert isinstance(history, DataPage) and history.is_history

    def test_distinct_keys_cause_key_splits(self, env):
        for i in range(600):
            env.insert(k(i), b"x" * 60)
        assert env.btree.stats.key_splits >= 1

    def test_mixed_workload_splits_both_ways(self, env):
        for i in range(150):
            env.insert(k(i), b"x" * 40)
        for round_no in range(40):
            for i in range(150):
                env.insert(k(i), f"r{round_no}".encode() + b"y" * 40)
        assert env.btree.stats.time_splits >= 1
        assert env.btree.stats.key_splits >= 1

    def test_history_chain_lengthens_over_time(self, env):
        for round_no in range(1200):
            env.insert(b"hot", b"z" * 100)
        leaf = env.btree.search_leaf(b"hot")
        chain_length = 0
        pid = leaf.history_page_id
        while pid:
            chain_length += 1
            pid = env.buffer.get_page(pid).history_page_id
        assert chain_length >= 2

    def test_smo_logging_installs_images(self, env):
        from repro.wal.records import MultiPageImage

        for i in range(600):
            env.insert(k(i), b"x" * 60)
        smos = [
            r for r in env.log.records_from(0) if isinstance(r, MultiPageImage)
        ]
        assert smos
        # Every image decodes and carries the SMO's LSN.
        for smo in smos[-3:]:
            for pid, image in smo.images:
                page = decode_page(image)
                assert page.page_id == pid
                assert page.lsn == smo.lsn


class TestConventionalSplitting:
    def test_prune_hook_is_preferred_over_key_split(self):
        env = Env(immortal=False)
        pruned_pages = []

        def prune(leaf):
            from repro.concurrency.snapshot import prune_conventional_page

            env._stamp(leaf)
            rebuilt, dropped = prune_conventional_page(
                leaf, None, lambda tid: (None, False)
            )
            pruned_pages.append(dropped)
            return rebuilt, dropped

        env.btree.prune_page = prune
        for round_no in range(400):
            env.insert(b"hot", b"x" * 80)
        assert env.btree.stats.prunes >= 1
        assert env.btree.stats.time_splits == 0
        assert sum(pruned_pages) > 0

    def test_plain_key_split_without_prune(self):
        env = Env(immortal=False)
        for i in range(600):
            env.insert(k(i), b"x" * 60)
        assert env.btree.stats.key_splits >= 1
        assert env.btree.stats.time_splits == 0


@pytest.fixture(params=["memory", "file"])
def disk(request, tmp_path):
    if request.param == "memory":
        yield InMemoryDisk()
    else:
        store = FileDisk(tmp_path / "db.pages")
        yield store
        store.close()


def logged_page_ids(env: Env) -> set[int]:
    from repro.wal.records import MultiPageImage

    return {
        pid for rec in env.log.records_from(0)
        if isinstance(rec, MultiPageImage) for pid, _ in rec.images
    }


class TestSplitDecision:
    """A full leaf is split by what is on it, decided before anything is
    stamped, built or allocated — the table of DESIGN.md "Page splits", on
    both page stores.  The rule behind every case: a page id is taken only
    for a page that is logged."""

    def assert_books_balance(self, env: Env) -> None:
        assert env.disk.stats.allocations == len(logged_page_ids(env))
        assert env.disk.page_count == 1 + env.disk.stats.allocations

    def test_single_versions_key_split_directly(self, disk):
        env = Env(disk=disk)
        for i in range(40):                 # past the root's own growth
            env.insert(k(i), b"x" * 400)
        for i in range(40, 400):
            pages, key_splits = disk.page_count, env.btree.stats.key_splits
            env.insert(k(i), b"x" * 400)
            grown = env.btree.stats.key_splits - key_splits
            assert disk.page_count == pages + grown     # one id per split
        assert env.btree.stats.key_splits > 10
        assert env.btree.stats.time_splits == 0
        assert env.stamp_calls == 0          # nothing was even stamped
        self.assert_books_balance(env)

    def test_ended_versions_time_split(self, disk):
        env = Env(disk=disk)
        for i in range(300):
            pages, splits = disk.page_count, env.btree.stats.time_splits
            env.insert(b"hot", b"%d" % i + b"x" * 60)
            assert disk.page_count == pages + env.btree.stats.time_splits - splits
        assert env.btree.stats.time_splits >= 2
        assert env.btree.stats.key_splits == 0
        self.assert_books_balance(env)

    def test_head_stubs_alone_are_dropped(self, disk):
        env = Env(disk=disk)
        i = 0
        while not env.btree.stats.time_splits:
            env.insert(k(i), b"", delete_stub=True)
            i += 1
        leaf = env.btree.search_leaf(k(0))
        assert env.btree.stats.key_splits == 0
        assert leaf.keys() == [k(i - 1)]     # every older stub left the page
        history = env.buffer.get_page(leaf.history_page_id)
        assert len(history.versions) == i - 1
        self.assert_books_balance(env)

    def test_uncommitted_successors_move_nothing_and_take_no_page(self, disk):
        env = Env(disk=disk)
        for i in range(20):
            env.insert(k(i), b"x" * 150)
        env._stamp_all = False               # the updaters never commit
        for i in range(20):
            env.insert(k(i), b"y" * 150, committed=False)
        leaf = env.btree.search_leaf(k(0))
        assert len(leaf.versions) == 2 * len(leaf.slots)
        pages, allocations = disk.page_count, disk.stats.allocations
        assert not env.btree._try_time_split([], leaf)
        assert env.stamp_calls > 0           # it had to look
        assert (disk.page_count, disk.stats.allocations) == (pages, allocations)
        assert env.btree.stats.time_splits == 0
        for i in range(20, 60):              # so the page key splits instead
            env.insert(k(i), b"x" * 150)
        assert env.btree.stats.key_splits >= 1
        assert env.btree.stats.time_splits == 0
        self.assert_books_balance(env)

    def test_conventional_table_with_a_pinned_snapshot_still_spills(self, disk):
        env = Env(immortal=False, disk=disk)
        env.btree.prune_page = lambda leaf: (leaf, 0)   # a snapshot pins all
        for i in range(300):
            env.insert(b"hot", b"%d" % i + b"x" * 60)
        assert env.btree.stats.prunes == 0
        assert env.btree.stats.time_splits >= 2
        leaf = env.btree.search_leaf(b"hot")
        assert env.buffer.get_page(leaf.history_page_id).is_history
        self.assert_books_balance(env)


class TestIndexNodeCodec:
    def test_roundtrip(self):
        node = BTreeIndexPage(5)
        node.children = [10, 11, 12]
        node.seps = [b"m", b"t"]
        node.lsn = 88
        decoded = decode_page(node.to_bytes())
        assert isinstance(decoded, BTreeIndexPage)
        assert decoded.children == [10, 11, 12]
        assert decoded.seps == [b"m", b"t"]
        assert decoded.lsn == 88

    def test_single_child_roundtrip(self):
        node = BTreeIndexPage(5)
        node.children = [10]
        decoded = decode_page(node.to_bytes())
        assert decoded.children == [10] and decoded.seps == []

    def test_child_index_for(self):
        node = BTreeIndexPage(5)
        node.children = [10, 11, 12]
        node.seps = [b"m", b"t"]
        assert node.child_index_for(b"a") == 0
        assert node.child_index_for(b"m") == 1
        assert node.child_index_for(b"z") == 2

    def test_size_bookkeeping_follows_every_change(self):
        node = BTreeIndexPage(5)
        assert node.used_bytes == node.counted_bytes()
        node.set_entries([b"m", b"t"], [10, 11, 12])
        assert node.used_bytes == node.counted_bytes()
        node.post(1, b"pq", 13)
        assert node.seps == [b"m", b"pq", b"t"]
        assert node.children == [10, 11, 13, 12]
        assert node.used_bytes == node.counted_bytes()
        decoded = decode_page(node.to_bytes())
        assert decoded.used_bytes == node.used_bytes
        assert not node.is_full

    def test_overfull_node_refuses_to_encode(self):
        # ``is_full`` stops posts long before this; a node filled past it by
        # hand must not yield an image longer than its page (the old codec
        # grew its bytearray silently, and the WAL took the long image).
        node = BTreeIndexPage(5, page_size=512)
        node.set_entries([], [7])
        while not node.is_full:
            node.post(len(node.seps), b"s" * 40, 7)
        assert len(node.to_bytes()) == 512
        while node.used_bytes <= 512:
            node.post(len(node.seps), b"s" * 40, 7)
        with pytest.raises(PageFormatError):
            node.to_bytes()


class TestPropertyBased:
    @settings(max_examples=15, deadline=None)
    @given(
        keys=st.lists(st.integers(0, 5000), min_size=1, max_size=400),
    )
    def test_all_inserted_keys_findable(self, keys):
        env = Env()
        expected: dict[bytes, bytes] = {}
        for i, key_num in enumerate(keys):
            key = k(key_num)
            payload = f"p{i}".encode() + b"#" * 30
            env.insert(key, payload)
            expected[key] = payload
        for key, payload in expected.items():
            leaf = env.btree.search_leaf(key)
            head = leaf.head(key)
            assert head is not None
            assert head.payload == payload
        # Leaf chain covers exactly the distinct keys.
        all_keys = [key for leaf in env.btree.leaves() for key in leaf.keys()]
        assert sorted(all_keys) == sorted(expected)


class TestSplitPagesFollowTheirLogRecord:
    """Write-ahead for structure modifications: a split's pages enter the
    pool only after the split's log record, so no page image can reach the
    disk naming a sibling, child or history page that exists nowhere."""

    def test_no_written_page_names_a_page_that_exists_nowhere(self):
        from repro import ImmortalDB
        from repro.wal.records import MultiPageImage

        db = ImmortalDB(buffer_pages=8, eviction="2q", flush_batch=4)
        table = db.create_table(
            "t", [("k", "int"), ("v", "text")], key="k", immortal=True
        )
        on_disk: set[int] = set()
        dangling: list[tuple[int, int]] = []
        real_write = db.disk.write_page

        def durably_logged() -> set[int]:
            return {
                pid
                for rec in db.log.records_from(0)
                if rec.lsn < db.log.flushed_lsn
                and isinstance(rec, MultiPageImage)
                for pid, _ in rec.images
            }

        def write_page(pid, raw):
            page = decode_page(raw)
            named = []
            if isinstance(page, DataPage):
                named = [page.history_page_id, page.next_leaf_id]
            elif isinstance(page, BTreeIndexPage):
                named = page.children
            missing = {p for p in named if p} - on_disk - {pid}
            if missing:
                dangling.extend(
                    (pid, p) for p in missing - durably_logged()
                )
            real_write(pid, raw)
            on_disk.add(pid)

        db.disk.write_page = write_page
        for i in range(240):
            db.advance_time(40)
            with db.transaction() as txn:
                row = {"k": i % 40, "v": f"{i}" + "x" * (500 + 37 * (i % 9))}
                if i < 40:
                    table.insert(txn, row)
                else:
                    table.update(txn, row["k"], {"v": row["v"]})
        splits = table.btree.stats
        assert splits.time_splits >= 5 and splits.key_splits >= 2, splits
        assert db.stats()["flush_batches"] > 0
        assert dangling == [], dangling


class TestHeightThree:
    """128-byte keys (the limit) put some sixty children in an index node
    and 1.5 KB rows five in a leaf: a few hundred rows fill the root, and
    twice that splits the index node the root then grows over."""

    @staticmethod
    def _height(db, table) -> int:
        height, node = 1, db.buffer.get_page(table.btree.root_pid)
        while isinstance(node, BTreeIndexPage):
            height, node = height + 1, db.buffer.get_page(node.children[0])
        return height

    def test_a_third_level_grows_splits_and_survives_a_crash(self):
        import random

        from repro import ImmortalDB
        from repro.core.integrity import verify_integrity

        db = ImmortalDB(buffer_pages=64)
        table = db.create_table(
            "t", [("k", "text"), ("v", "text")], key="k", immortal=True
        )
        rng = random.Random(3)
        keys = [f"{i:04}".ljust(128, "k") for i in range(700)]
        rng.shuffle(keys)

        def write(batch, version):
            db.advance_time(40)
            with db.transaction() as txn:
                for key in batch:
                    row = {"k": key, "v": f"{version}:{key[:4]}:" + "v" * 1500}
                    if version:
                        table.update(txn, key, row)
                    else:
                        table.insert(txn, row)

        at = 0
        while self._height(db, table) < 3:      # the root grows over an index node
            write(keys[at : at + 20], 0)
            at += 20
        db.checkpoint()
        db.advance_time(40)
        mark = db.now()
        at_mark = table.scan_as_of(mark)
        assert len(at_mark) == at < len(keys) - 200
        # No checkpoint from here on: redo rebuilds what follows, the split
        # of an index node under the root included.
        index_nodes = table.btree.stats.index_splits
        while at < len(keys):
            write(keys[at : at + 20], 0)
            at += 20
        write(rng.sample(keys, 60), 1)
        assert table.btree.stats.index_splits > index_nodes
        assert verify_integrity(db) == []
        with db.transaction() as txn:
            current = table.scan(txn)
        assert len(current) == len(keys)

        db.flush_commits()
        db.crash()
        db.recover()
        table = db.table("t")
        assert self._height(db, table) == 3
        assert verify_integrity(db) == []
        assert table.scan_as_of(mark) == at_mark
        with db.transaction() as txn:
            assert table.scan(txn) == current
        db.close()
