"""Tests for the Persistent Timestamp Table B+tree."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.clock import Timestamp
from repro.storage.buffer import BufferPool
from repro.storage.disk import PageStore
from repro.storage.page import decode_page
from repro.timestamp.ptt import PersistentTimestampTable, PTTNodePage
from repro.wal.log import LogManager
from repro.wal.records import CommitTxn


@pytest.fixture
def buffer():
    return BufferPool(PageStore(), capacity=256)


@pytest.fixture
def ptt(buffer):
    return PersistentTimestampTable(
        buffer, LogManager(), buffer.new_page(PTTNodePage).page_id)


def ts(i: int) -> Timestamp:
    return Timestamp(i, i % 7)


def insert(ptt: PersistentTimestampTable, tid: int, t: Timestamp) -> bool:
    """Put an entry in as a commit does: find (and split for) its leaf, log
    the commit record naming it, apply the record."""
    rec = CommitTxn(tid=tid, ttime=t.ttime, sn=t.sn, page_id=ptt.leaf_for_insert(tid).page_id)
    ptt.log.append(rec)
    return ptt.apply(rec)


class TestBasicOps:
    def test_insert_then_lookup(self, ptt):
        assert insert(ptt, 5, ts(5))
        assert ptt.lookup(5) == ts(5)

    def test_missing_tid_is_none(self, ptt):
        assert ptt.lookup(42) is None

    def test_insert_is_idempotent(self, ptt):
        assert insert(ptt, 5, ts(5))
        assert not insert(ptt, 5, ts(99))  # logical redo must not overwrite
        assert ptt.lookup(5) == ts(5)

    def test_delete_is_idempotent(self, ptt):
        insert(ptt, 5, ts(5))
        assert ptt.delete(5)
        assert not ptt.delete(5)
        assert ptt.lookup(5) is None

    def test_len_counts_entries(self, ptt):
        for tid in range(1, 21):
            insert(ptt, tid, ts(tid))
        assert len(ptt) == 20
        ptt.delete(7)
        assert len(ptt) == 19

    def test_entries_are_tid_ordered(self, ptt):
        for tid in (5, 1, 9, 3):
            insert(ptt, tid, ts(tid))
        assert [tid for tid, _ in ptt.entries()] == [1, 3, 5, 9]

    def test_max_tid(self, ptt):
        assert ptt.max_tid() == 0
        insert(ptt, 3, ts(3))
        insert(ptt, 10, ts(10))
        assert ptt.max_tid() == 10


class TestSplitsAndStructure:
    def test_ascending_inserts_split_and_stay_searchable(self, ptt):
        n = 2000  # > 2 leaves worth of 20-byte entries
        for tid in range(1, n + 1):
            insert(ptt, tid, ts(tid))
        assert ptt.height() >= 2
        for tid in (1, n // 2, n):
            assert ptt.lookup(tid) == ts(tid)
        assert len(ptt) == n

    def test_root_pid_never_changes(self, ptt):
        root = ptt.root_pid
        for tid in range(1, 3000):
            insert(ptt, tid, ts(tid))
        assert ptt.root_pid == root

    def test_append_mostly_split_keeps_table_compact(self, ptt):
        """TIDs ascend, so retired leaves should be ~90% full, not ~50%."""
        for tid in range(1, 2001):
            insert(ptt, tid, ts(tid))
        pages = ptt.page_ids()
        leaves = [
            p for pid in pages
            if (p := ptt._node(pid)).is_leaf
        ]
        # Average leaf fill excluding the rightmost (still filling) leaf.
        fills = [len(l.tids) / l.leaf_capacity for l in leaves]
        fills.remove(max(fills)) if len(fills) > 1 else None
        assert sum(fills) / len(fills) > 0.7

    def test_gc_deletes_from_the_head(self, ptt):
        for tid in range(1, 1500):
            insert(ptt, tid, ts(tid))
        for tid in range(1, 1000):
            ptt.delete(tid)
        assert len(ptt) == 500
        assert ptt.lookup(500) is None
        assert ptt.lookup(1200) == ts(1200)

    def test_nodes_serialize_roundtrip(self, ptt, buffer):
        for tid in range(1, 600):
            insert(ptt, tid, ts(tid))
        for pid in ptt.page_ids():
            node = ptt._node(pid)
            decoded = decode_page(node.to_bytes())
            assert isinstance(decoded, PTTNodePage)
            assert decoded.is_leaf == node.is_leaf
            if node.is_leaf:
                assert decoded.tids == node.tids
                assert decoded.sns == node.sns
            else:
                assert decoded.seps == node.seps
                assert decoded.children == node.children

    def test_survives_buffer_eviction(self):
        buffer = BufferPool(PageStore(), capacity=4)
        ptt = PersistentTimestampTable(
            buffer, LogManager(), buffer.new_page(PTTNodePage).page_id)
        for tid in range(1, 1200):
            insert(ptt, tid, ts(tid))
        for tid in (1, 600, 1199):
            assert ptt.lookup(tid) == ts(tid)


class TestPropertyBased:
    @settings(max_examples=30, deadline=None)
    @given(
        tids=st.lists(
            st.integers(1, 10_000), unique=True, min_size=1, max_size=300
        ),
        delete_mask=st.lists(st.booleans(), min_size=300, max_size=300),
    )
    def test_insert_delete_matches_dict(self, tids, delete_mask):
        buffer = BufferPool(PageStore(), capacity=64)
        ptt = PersistentTimestampTable(
            buffer, LogManager(), buffer.new_page(PTTNodePage).page_id)
        model: dict[int, Timestamp] = {}
        for tid in tids:
            insert(ptt, tid, ts(tid))
            model[tid] = ts(tid)
        for tid, kill in zip(list(model), delete_mask):
            if kill:
                ptt.delete(tid)
                del model[tid]
        assert dict(ptt.entries()) == model
        for tid in tids:
            assert ptt.lookup(tid) == model.get(tid)
