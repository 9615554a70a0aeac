"""Tests for the TSB-tree history index: rectangles, search, node splits."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.access.tsbtree import Rect, TSBEntry, TSBHistoryIndex, TSBIndexPage
from repro.clock import Timestamp
from repro.storage.buffer import BufferPool
from repro.storage.disk import InMemoryDisk
from repro.storage.page import decode_page


def T(i: int) -> Timestamp:
    return Timestamp(i, 0)


class TestRect:
    def test_point_containment(self):
        rect = Rect(b"a", b"m", T(10), T(20))
        assert rect.contains_point(b"a", T(10))
        assert rect.contains_point(b"g", T(15))
        assert not rect.contains_point(b"m", T(15))   # key_high exclusive
        assert not rect.contains_point(b"g", T(20))   # t_high exclusive
        assert not rect.contains_point(b"g", T(9))

    def test_open_key_high(self):
        rect = Rect(b"m", None, T(0), T(10))
        assert rect.contains_point(b"zzzz", T(5))
        assert not rect.contains_point(b"a", T(5))

    def test_rect_containment(self):
        outer = Rect(b"", None, T(0), T(100))
        inner = Rect(b"c", b"f", T(10), T(20))
        assert outer.contains_rect(inner)
        assert not inner.contains_rect(outer)

    def test_overlap(self):
        a = Rect(b"a", b"m", T(0), T(10))
        b = Rect(b"g", b"z", T(5), T(15))
        c = Rect(b"m", b"z", T(0), T(10))
        assert a.overlaps(b)
        assert not a.overlaps(c)  # key ranges touch but don't overlap

    def test_historical_means_closed_time(self):
        assert Rect(b"", None, T(0), T(10)).is_historical
        assert not Rect(b"", None, T(0), Timestamp.MAX).is_historical


class TestCodec:
    def test_node_roundtrip(self):
        node = TSBIndexPage(3, Rect(b"a", b"z", T(0), T(100)))
        node.entries = [
            TSBEntry(Rect(b"a", b"m", T(0), T(50)), 10, True),
            TSBEntry(Rect(b"m", None, T(0), Timestamp.MAX), 11, False),
        ]
        node.lsn = 55
        decoded = decode_page(node.to_bytes())
        assert isinstance(decoded, TSBIndexPage)
        assert decoded.rect == node.rect
        assert decoded.entries == node.entries
        assert decoded.lsn == 55


@pytest.fixture
def index():
    buffer = BufferPool(InMemoryDisk(), capacity=512)
    return TSBHistoryIndex(buffer, table_id=1)


def history_rect(lo: int, hi: int, klo=b"", khi=None) -> Rect:
    return Rect(klo, khi, T(lo), T(hi))


class TestSearchAndInsert:
    def test_empty_index_finds_nothing(self, index):
        assert index.search(b"k", T(5)) is None

    def test_single_entry(self, index):
        index.insert(history_rect(0, 100), page_id=50)
        assert index.search(b"anything", T(50)) == 50
        assert index.search(b"anything", T(100)) is None

    def test_disjoint_time_slices(self, index):
        index.insert(history_rect(0, 10), 50)
        index.insert(history_rect(10, 20), 51)
        index.insert(history_rect(20, 30), 52)
        assert index.search(b"k", T(5)) == 50
        assert index.search(b"k", T(10)) == 51
        assert index.search(b"k", T(29)) == 52
        assert index.search(b"k", T(30)) is None

    def test_key_partitioned_slices(self, index):
        index.insert(history_rect(0, 10, b"", b"m"), 60)
        index.insert(history_rect(0, 10, b"m", None), 61)
        assert index.search(b"a", T(5)) == 60
        assert index.search(b"x", T(5)) == 61

    def test_leaf_entry_count(self, index):
        for i in range(5):
            index.insert(history_rect(i * 10, (i + 1) * 10), 100 + i)
        assert index.leaf_entry_count() == 5


class TestNodeSplits:
    def test_many_entries_split_the_root(self, index):
        """Enough historical entries to overflow several nodes."""
        n = 500
        for i in range(n):
            index.insert(history_rect(i * 10, (i + 1) * 10), 1000 + i)
        nodes = index.all_nodes()
        assert len(nodes) > 1
        # Every slice still findable.
        for i in (0, n // 3, n - 1):
            assert index.search(b"k", T(i * 10 + 5)) == 1000 + i

    def test_root_pid_never_changes(self, index):
        root = index.root_pid
        for i in range(500):
            index.insert(history_rect(i * 10, (i + 1) * 10), 1000 + i)
        assert index.root_pid == root

    def test_key_and_time_mixed(self, index):
        pid = 1000
        expected = {}
        for i in range(60):
            for klo, khi in ((b"", b"m"), (b"m", None)):
                index.insert(history_rect(i * 10, (i + 1) * 10, klo, khi), pid)
                probe = (b"a" if klo == b"" else b"z", i * 10 + 5)
                expected[probe] = pid
                pid += 1
        for (key, t), want in expected.items():
            assert index.search(key, T(t)) == want

    def test_one_time_slice_of_many_key_ranges_is_cut_by_key(self, index):
        """Every entry closes at the same time: no time cut separates them,
        so the full nodes split by key."""
        bounds = [b""] + [b"%04d" % i for i in range(1, 400)] + [None]
        for i, (klo, khi) in enumerate(zip(bounds, bounds[1:])):
            index.insert(history_rect(0, 10, klo, khi), 1000 + i)
        nodes = index.all_nodes()
        assert len(nodes) > 2
        assert len({node.rect.key_low for node in nodes}) > 1
        for i in (0, 1, 133, 398, 399):
            assert index.search(b"%04d" % i, T(5)) == 1000 + i
        assert index.search(b"0133", T(10)) is None

    def test_children_tile_parent_rectangles(self, index):
        for i in range(500):
            index.insert(history_rect(i * 10, (i + 1) * 10), 1000 + i)
        for node in index.all_nodes():
            for entry in node.entries:
                if not entry.child_is_leaf:
                    child = index._node(entry.child_pid)
                    assert entry.rect == child.rect

    def test_non_leaf_entries_contained_in_node_rect(self, index):
        for i in range(500):
            index.insert(history_rect(i * 10, (i + 1) * 10), 1000 + i)
        for node in index.all_nodes():
            for entry in node.entries:
                if entry.child_is_leaf:
                    # Leaf rects may be replicated across a split boundary,
                    # so they only need to overlap the node's rectangle.
                    assert node.rect.overlaps(entry.rect)


class TestPropertyBased:
    @settings(max_examples=10, deadline=None)
    @given(
        slices=st.integers(20, 150),
        probes=st.lists(st.integers(0, 149), min_size=5, max_size=30),
    )
    def test_search_agrees_with_linear_scan(self, slices, probes):
        buffer = BufferPool(InMemoryDisk(), capacity=512)
        index = TSBHistoryIndex(buffer, table_id=1)
        rects = []
        for i in range(slices):
            rect = history_rect(i * 10, (i + 1) * 10)
            rects.append((rect, 2000 + i))
            index.insert(rect, 2000 + i)
        for p in probes:
            t = T(p * 10 + 3)
            want = next(
                (pid for rect, pid in rects if rect.contains_point(b"k", t)),
                None,
            )
            assert index.search(b"k", t) == want
