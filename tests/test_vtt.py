"""Tests for the Volatile Timestamp Table and its RefCount protocol."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.clock import SN_INVALID, Timestamp
from repro.errors import NotYetCommittedError, UnknownTransactionError
from repro.timestamp.vtt import VolatileTimestampTable


@pytest.fixture
def vtt():
    return VolatileTimestampTable()


TS = Timestamp(100, 1)


class TestStages:
    def test_stage_one_entry_is_active_with_invalid_sn(self, vtt):
        entry = vtt.begin(1)
        assert entry.is_active
        assert entry.sn == SN_INVALID
        assert entry.refcount == 0

    def test_stage_two_increments_refcount(self, vtt):
        vtt.begin(1)
        vtt.increment(1)
        vtt.increment(1)
        assert vtt.get(1).refcount == 2

    def test_stage_three_records_timestamp(self, vtt):
        vtt.begin(1)
        vtt.increment(1)
        entry = vtt.set_committed(1, TS, end_lsn=500)
        assert not entry.is_active
        assert entry.timestamp == TS
        assert entry.done_lsn is None  # one version still unstamped

    def test_commit_with_nothing_to_stamp_is_done_immediately(self, vtt):
        vtt.begin(1)
        entry = vtt.set_committed(1, TS, end_lsn=500)
        assert entry.done_lsn == 500

    def test_stage_four_decrement_to_zero_records_lsn(self, vtt):
        vtt.begin(1)
        vtt.increment(1)
        vtt.increment(1)
        vtt.set_committed(1, TS, end_lsn=10)
        assert vtt.decrement(1, end_lsn=20) == 1
        assert vtt.get(1).done_lsn is None
        assert vtt.decrement(1, end_lsn=30) == 0
        assert vtt.get(1).done_lsn == 30

    def test_timestamp_of_active_entry_fails(self, vtt):
        vtt.begin(1)
        with pytest.raises(NotYetCommittedError):
            _ = vtt.get(1).timestamp


class TestEdgeCases:
    def test_duplicate_begin_rejected(self, vtt):
        vtt.begin(1)
        with pytest.raises(ValueError):
            vtt.begin(1)

    def test_refcount_underflow_rejected(self, vtt):
        vtt.begin(1)
        vtt.set_committed(1, TS, end_lsn=1)
        with pytest.raises(ValueError):
            vtt.decrement(1, end_lsn=2)

    def test_unknown_tid_raises(self, vtt):
        with pytest.raises(UnknownTransactionError):
            vtt.require(99)
        assert vtt.get(99) is None

    def test_cached_from_ptt_has_undefined_refcount(self, vtt):
        entry = vtt.cache_from_ptt(5, TS)
        assert entry.refcount is None
        vtt.increment(5)   # stays undefined
        assert vtt.get(5).refcount is None
        assert vtt.decrement(5, end_lsn=1) is None

    def test_drop_is_idempotent(self, vtt):
        vtt.begin(1)
        vtt.drop(1)
        vtt.drop(1)
        assert 1 not in vtt


class TestGCCandidates:
    def test_only_complete_entries_qualify(self, vtt):
        vtt.begin(1)                       # active: no
        vtt.begin(2)
        vtt.increment(2)
        vtt.set_committed(2, TS, end_lsn=5)  # refcount 1: no
        vtt.begin(3)
        vtt.set_committed(3, TS, end_lsn=7)  # done: yes
        vtt.cache_from_ptt(4, TS)            # undefined: no
        assert [tid for tid, _ in vtt.pop_done(10**9)] == [3]

    def test_decrement_to_zero_becomes_candidate(self, vtt):
        vtt.begin(1)
        vtt.increment(1)
        vtt.set_committed(1, TS, end_lsn=5)
        assert vtt.pop_done(10**9) == []
        vtt.decrement(1, end_lsn=9)
        assert vtt.pop_done(9) == []         # done at 9: not below 9
        assert [tid for tid, _ in vtt.pop_done(10)] == [1]

    def test_an_active_entry_waits_for_its_commit(self, vtt):
        vtt.begin(1)
        vtt.increment(1)
        vtt.decrement(1, end_lsn=3)          # back to zero, still active
        assert vtt.pop_done(10) == []
        vtt.set_committed(1, TS, end_lsn=5)
        assert [tid for tid, _ in vtt.pop_done(10)] == [1]

    def test_collected_in_tid_order(self, vtt):
        for tid in (2, 1, 3):                # entered the VTT in this order
            vtt.begin(tid)
        for tid, lsn in ((3, 4), (1, 5), (2, 6)):
            vtt.set_committed(tid, TS, end_lsn=lsn)
        assert [tid for tid, _ in vtt.pop_done(7)] == [1, 2, 3]

    def test_dropped_entries_leave_no_pile_of_pairs(self, vtt):
        # A conventional table's commit drops its entry at once.
        for tid in range(1, 1_001):
            vtt.begin(tid)
            vtt.set_committed(tid, TS, end_lsn=tid)
            vtt.drop(tid)
        assert len(vtt._done) <= 64

    def test_clear_simulates_crash(self, vtt):
        vtt.begin(1)
        vtt.set_committed(1, TS, end_lsn=1)
        vtt.clear()
        assert len(vtt) == 0
        assert vtt.pop_done(10**9) == []


def reference_scan(vtt, horizon):
    """The walk over every VTT entry that ``garbage_collect`` made before
    ``pop_done``: each entry whose stamping is complete with a done LSN
    below ``horizon``, in the dict's order."""
    return [
        (tid, entry)
        for tid, entry in vtt._entries.items()
        if entry.refcount == 0
        and entry.done_lsn is not None
        and entry.ts is not None
        and entry.done_lsn < horizon
    ]


STEPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["begin"] * 3 + ["increment"] * 2 + ["commit"] * 3
            + ["decrement"] * 3 + ["drop", "cache", "crash", "burst"]
            + ["gc"] * 2
        ),
        st.integers(0, 7),         # which entry, or where the horizon is
        st.integers(0, 2),         # how far the log end moves first
    ),
    max_size=80,
)


class TestDoneHeap:
    """``pop_done`` pops a heap of ``(done_lsn, tid)`` instead of walking
    every entry; it must collect exactly what the walk did.  It hands them
    out in TID order, where the walk went in the order entries entered the
    VTT (their first writes), so the steps begin TIDs out of order too."""

    @settings(max_examples=500, deadline=None)
    @given(STEPS)
    def test_collects_exactly_what_the_scan_did(self, steps):
        vtt = VolatileTimestampTable()
        end_lsn = 0
        drawn = []          # TIDs handed out, not yet in the VTT (a
        next_tid = 1        # transaction enters it at its first write)
        for op, pick, moved in steps:
            end_lsn += moved
            tids = list(vtt._entries)
            if op == "begin":
                if not drawn or pick % 3 == 0:
                    drawn.append(next_tid)
                    next_tid += 1
                vtt.begin(drawn.pop(pick % len(drawn)), is_snapshot=pick % 5 == 0)
            elif op == "cache":
                gone = [t for t in range(1, next_tid) if t not in vtt]
                if gone:
                    vtt.cache_from_ptt(gone[pick % len(gone)], TS)
            elif op == "crash":
                vtt.clear()
            elif op == "burst":             # commits dropped at once
                for _ in range(40):
                    vtt.begin(next_tid)
                    vtt.set_committed(next_tid, TS, end_lsn)
                    vtt.drop(next_tid)
                    next_tid += 1
            elif op == "gc":
                horizon = pick * (end_lsn + 2) // 7
                want = sorted(reference_scan(vtt, horizon))
                got = vtt.pop_done(horizon)
                assert [t for t, _ in got] == [t for t, _ in want]
                assert all(a is b for (_, a), (_, b) in zip(got, want))
                for tid, _ in got:          # as garbage_collect does
                    vtt.drop(tid)
                assert reference_scan(vtt, horizon) == []
            elif tids:
                tid = tids[pick % len(tids)]
                entry = vtt.get(tid)
                if op == "drop":
                    vtt.drop(tid)
                elif op == "increment":
                    vtt.increment(tid)
                elif op == "commit" and entry.ts is None:
                    vtt.set_committed(tid, TS, end_lsn)
                elif op == "decrement" and entry.refcount:
                    vtt.decrement(tid, end_lsn)
