"""Tests for page time splits — the four cases of Figure 3."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.access.timesplit import (
    SplitOutcome,
    key_split_page,
    needs_key_split,
    nothing_to_move,
    plan_time_split,
)
from repro.clock import Timestamp
from repro.errors import AccessMethodError
from repro.storage.constants import NO_PREVIOUS, SLOT_SIZE, RecordFlag
from repro.storage.page import DataPage
from repro.storage.record import RecordVersion


def stamped(key: bytes, payload: bytes, t: int) -> RecordVersion:
    rec = RecordVersion.new(key, payload, tid=999)
    rec.stamp(Timestamp(t, 0))
    return rec


def stub(key: bytes, t: int) -> RecordVersion:
    rec = RecordVersion.new(key, b"", tid=999, delete_stub=True)
    rec.stamp(Timestamp(t, 0))
    return rec


def page_with(*chains: list[RecordVersion]) -> DataPage:
    page = DataPage(1, table_id=1, immortal=True)
    for chain in chains:
        for version in chain:  # oldest-first insert order
            page.insert_version(version)
    return page


SPLIT = Timestamp(100, 0)


def split_at(
    page: DataPage, split_ts: Timestamp, history_page_id: int
) -> SplitOutcome:
    return plan_time_split(page, split_ts).build(history_page_id)


class TestFourCases:
    def test_case1_ended_versions_move_to_history(self):
        # A version updated at t=50: the t=10 version ends at 50 < 100.
        page = page_with([stamped(b"A", b"v0", 10), stamped(b"A", b"v1", 50)])
        plan = plan_time_split(page, SPLIT)
        assert plan.moved == 1
        out = plan.build(2)
        history_payloads = [v.payload for v in out.history.chain(b"A")]
        assert b"v0" in history_payloads

    def test_case2_spanning_versions_in_both_pages(self):
        """The redundancy that makes every page cover its full time range."""
        page = page_with([stamped(b"A", b"v0", 10)])
        plan = plan_time_split(page, SPLIT)
        assert plan.copied == 1
        out = plan.build(2)
        assert out.current.head(b"A").payload == b"v0"
        assert out.history.head(b"A").payload == b"v0"

    def test_case3_versions_after_split_stay_current_only(self):
        page = page_with([stamped(b"A", b"v0", 10), stamped(b"A", b"v1", 150)])
        out = split_at(page, Timestamp(100, 0), history_page_id=2)
        assert out.history.head(b"A").payload == b"v0"
        current_payloads = [v.payload for v in out.current.chain(b"A")]
        assert current_payloads[0] == b"v1"
        assert b"v1" not in [v.payload for v in out.history.chain(b"A")]

    def test_case4_uncommitted_stay_current_only(self):
        uncommitted = RecordVersion.new(b"A", b"dirty", tid=5)
        page = page_with([stamped(b"A", b"v0", 10)])
        page.insert_version(uncommitted)
        out = split_at(page, SPLIT, history_page_id=2)
        current_payloads = [v.payload for v in out.current.chain(b"A")]
        assert b"dirty" in current_payloads
        assert b"dirty" not in [v.payload for v in out.history.chain(b"A")]
        # The committed version underneath spans: copied to both.
        assert b"v0" in [v.payload for v in out.history.chain(b"A")]

    def test_old_delete_stubs_leave_current_page(self):
        """Figure 3: stubs before split time are removed from current."""
        page = page_with([stamped(b"C", b"c0", 10)])
        page.insert_version(stub(b"C", 50))
        out = split_at(page, SPLIT, history_page_id=2)
        # Current page has no trace of C at all.
        assert out.current.head(b"C") is None
        # History has the version and the stub ending it.
        hist = list(out.history.chain(b"C"))
        assert hist[0].is_delete_stub
        assert hist[1].payload == b"c0"

    def test_recent_delete_stub_stays_current(self):
        """Figure 3's record C: a stub after split time is current-only."""
        page = page_with([stamped(b"C", b"c0", 10)])
        page.insert_version(stub(b"C", 150))
        out = split_at(page, SPLIT, history_page_id=2)
        assert out.current.head(b"C").is_delete_stub
        assert not any(v.is_delete_stub for v in out.history.chain(b"C"))


class TestPageMetadata:
    def test_time_ranges_chain_correctly(self):
        page = page_with([stamped(b"A", b"v0", 10)])
        page.split_ts = Timestamp(5, 0)
        page.history_page_id = 77  # pre-existing older history page
        out = split_at(page, SPLIT, history_page_id=2)
        assert out.history.split_ts == Timestamp(5, 0)
        assert out.history.end_ts == SPLIT
        assert out.history.history_page_id == 77   # chain extends backwards
        assert out.current.split_ts == SPLIT
        assert out.current.history_page_id == 2

    def test_history_page_is_marked_history(self):
        page = page_with([stamped(b"A", b"v0", 10)])
        out = split_at(page, SPLIT, history_page_id=2)
        assert out.history.is_history
        assert not out.current.is_history

    def test_spanning_version_vp_points_into_history(self):
        page = page_with([stamped(b"A", b"v0", 10), stamped(b"A", b"v1", 50)])
        out = split_at(page, SPLIT, history_page_id=2)
        tail = list(out.current.chain(b"A"))[-1]
        assert tail.vp_in_history
        slot = out.history.slot_of(b"A")
        assert tail.vp == slot

    def test_immortal_and_table_id_propagate(self):
        page = page_with([stamped(b"A", b"v0", 10)])
        out = split_at(page, SPLIT, history_page_id=2)
        assert out.history.immortal and out.current.immortal
        assert out.history.table_id == 1

    def test_split_must_advance_time(self):
        page = page_with([stamped(b"A", b"v0", 10)])
        page.split_ts = SPLIT
        with pytest.raises(AccessMethodError):
            split_at(page, SPLIT, history_page_id=2)

    def test_history_pages_never_split(self):
        page = DataPage(1, is_history=True)
        with pytest.raises(AccessMethodError):
            split_at(page, SPLIT, history_page_id=2)


class TestCoverageInvariant:
    def test_every_page_contains_versions_alive_in_its_range(self):
        """The essential point of Section 3.3."""
        chain = [stamped(b"A", f"v{i}".encode(), 10 + i * 20) for i in range(6)]
        page = page_with(chain)
        out = split_at(page, Timestamp(75, 0), history_page_id=2)
        # Versions alive at some t < 75 must be findable in the history page;
        # versions alive at some t >= 75 in the current page.
        for t in (10, 30, 50, 70):
            alive = max(
                (v for v in chain if v.timestamp <= Timestamp(t, 0)),
                key=lambda v: v.timestamp,
            )
            hist_versions = {v.payload for v in out.history.chain(b"A")}
            assert alive.payload in hist_versions, f"t={t}"
        for t in (80, 100, 120):
            alive = max(
                (v for v in chain if v.timestamp <= Timestamp(t, 0)),
                key=lambda v: v.timestamp,
            )
            cur_versions = {v.payload for v in out.current.chain(b"A")}
            assert alive.payload in cur_versions, f"t={t}"


def uncommitted(key: bytes, payload: bytes) -> RecordVersion:
    return RecordVersion.new(key, payload, tid=7)


class TestSplitDecision:
    """What a split would do is read off the page: first a test that needs
    no timestamps, then the plan — the same classification the build
    consumes.  (``tests/test_btree.py`` drives the same table through the
    tree, on both page stores.)"""

    def test_single_live_versions_have_nothing_to_move(self):
        page = page_with(
            [stamped(b"A", b"a", 10)], [uncommitted(b"B", b"b")],
            [stamped(b"C", b"c", 150)],
        )
        assert nothing_to_move(page)
        plan = plan_time_split(page, SPLIT)     # and the plan agrees
        assert not plan.frees_space
        assert (plan.moved, plan.copied, plan.retained) == (0, 1, 2)

    def test_an_ended_version_or_a_stub_is_something_to_move(self):
        assert not nothing_to_move(
            page_with([stamped(b"A", b"a0", 10), stamped(b"A", b"a1", 50)])
        )
        assert not nothing_to_move(page_with([stub(b"A", 10)]))
        # ... stamped or not: a stub's writer may have committed since.
        unstamped_stub = RecordVersion.new(b"A", b"", tid=7, delete_stub=True)
        assert not nothing_to_move(page_with([unstamped_stub]))

    def test_ended_versions_free_space(self):
        page = page_with([stamped(b"A", b"a0", 10), stamped(b"A", b"a1", 50)])
        plan = plan_time_split(page, SPLIT)
        assert plan.frees_space and plan.moved == 1

    def test_head_stubs_alone_free_space(self):
        page = page_with([stub(b"A", 10)], [stub(b"B", 20)])
        plan = plan_time_split(page, SPLIT)
        assert plan.frees_space
        assert (plan.moved, plan.stubs_dropped) == (0, 2)
        assert plan.build(2).current.keys() == []

    def test_uncommitted_successors_free_nothing(self):
        """Not single versions, so only the plan can tell: the committed
        version under an uncommitted one has not ended."""
        page = page_with(
            [stamped(b"A", b"a0", 10), uncommitted(b"A", b"a1")],
            [stamped(b"B", b"b0", 20), uncommitted(b"B", b"b1")],
        )
        assert not nothing_to_move(page)
        plan = plan_time_split(page, SPLIT)
        assert not plan.frees_space
        assert (plan.copied, plan.retained) == (2, 2)

    def test_only_uncommitted_content_is_all_retained(self):
        plan = plan_time_split(page_with([uncommitted(b"A", b"a")]), SPLIT)
        assert plan.retained == 1 and not plan.frees_space
        assert plan.build(2).history.versions == []

    def test_planning_touches_nothing_and_build_is_the_split(self):
        page = page_with(
            [stamped(b"A", b"a0", 10), stamped(b"A", b"a1", 50)],
            [stamped(b"B", b"b0", 20)], [stub(b"C", 30)],
        )
        before = page.to_bytes()
        plan = plan_time_split(page, SPLIT)
        assert page.to_bytes() == before
        assert (plan.moved, plan.copied, plan.retained, plan.stubs_dropped) \
            == (1, 2, 0, 1)
        built = plan.build(2)
        assert page.to_bytes() == before
        assert built.current.keys() == [b"A", b"B"]
        assert built.history.keys() == [b"A", b"B", b"C"]


class TestKeySplitPolicy:
    def test_needs_key_split_thresholds_on_current_bytes(self):
        page = DataPage(1, immortal=True)
        # Many versions of one record: current-version bytes stay tiny.
        for i in range(60):
            page.insert_version(stamped(b"A", b"x" * 50, 10 + i))
        assert not needs_key_split(page, 0.7)
        # Many single-version records: everything is current.
        page2 = DataPage(2, immortal=True)
        for i in range(90):
            page2.insert_version(stamped(f"k{i:04}".encode(), b"x" * 50, 10))
        assert needs_key_split(page2, 0.5)


class TestKeySplit:
    def test_chains_move_whole(self):
        page = page_with(
            [stamped(b"A", b"a0", 10), stamped(b"A", b"a1", 20)],
            [stamped(b"M", b"m0", 10)],
            [stamped(b"Z", b"z0", 10), stamped(b"Z", b"z1", 30)],
        )
        left, right, sep = key_split_page(page, right_page_id=9)
        assert left.page_id == 1 and right.page_id == 9
        all_keys = sorted(left.keys() + right.keys())
        assert all_keys == [b"A", b"M", b"Z"]
        assert all(k < sep for k in left.keys())
        assert all(k >= sep for k in right.keys())
        # Chain integrity preserved on whichever side.
        side = left if b"A" in left.keys() else right
        assert [v.payload for v in side.chain(b"A")] == [b"a1", b"a0"]

    def test_both_halves_share_history_pointer(self):
        page = page_with([stamped(b"A", b"a", 10)], [stamped(b"B", b"b", 10)])
        page.history_page_id = 55
        page.split_ts = Timestamp(5, 0)
        left, right, _ = key_split_page(page, right_page_id=9)
        assert left.history_page_id == right.history_page_id == 55
        assert left.split_ts == right.split_ts == Timestamp(5, 0)

    def test_leaf_chain_threading(self):
        page = page_with([stamped(b"A", b"a", 10)], [stamped(b"B", b"b", 10)])
        page.next_leaf_id = 33
        left, right, _ = key_split_page(page, right_page_id=9)
        assert left.next_leaf_id == 9
        assert right.next_leaf_id == 33

    def test_single_key_page_cannot_split(self):
        page = page_with([stamped(b"A", b"a", 10)])
        with pytest.raises(AccessMethodError):
            key_split_page(page, right_page_id=9)

    def test_split_balances_bytes(self):
        page = page_with(
            *[[stamped(f"k{i:03}".encode(), b"x" * 40, 10)] for i in range(20)]
        )
        left, right, _ = key_split_page(page, right_page_id=9)
        assert abs(left.used_bytes - right.used_bytes) < page.used_bytes / 3


# ---------------------------------------------------------------------------
# The split builders against their predecessors.
#
# ``plan_time_split`` + ``build`` and ``key_split_page`` walk every chain of their source
# once and install copies with a ``DataPage.add_chain`` that sums and links
# in one go.  What follows is the code they replaced — walk each chain
# twice, ``.copy()`` every version, then an ``add_chain`` that re-validates,
# re-sums and rewrites the copies — kept verbatim as the reference: for any
# page, both must produce byte-identical images and equal counts.
# ---------------------------------------------------------------------------


def reference_add_chain(
    page: DataPage, chain_newest_first, history_slot=None
) -> None:
    key = chain_newest_first[0].key
    assert all(v.key == key for v in chain_newest_first)
    assert page.slot_of(key) is None
    need = sum(v.size_on_page for v in chain_newest_first) + SLOT_SIZE
    assert need <= page.free_bytes
    prev_index = None
    for version in reversed(chain_newest_first):
        if prev_index is None:
            if history_slot is not None:
                version.vp = history_slot
                version.flags |= RecordFlag.VP_IN_HISTORY
            else:
                version.vp = NO_PREVIOUS
                version.flags &= ~RecordFlag.VP_IN_HISTORY
        else:
            version.vp = prev_index
            version.flags &= ~RecordFlag.VP_IN_HISTORY
        page.versions.append(version)
        prev_index = len(page.versions) - 1
    pos = bisect_left(page._slot_keys, key)
    page.slots.insert(pos, prev_index)
    page._slot_keys.insert(pos, key)
    page._used += need


def reference_continues_in_history(page: DataPage, key: bytes):
    tail = None
    for tail in page.chain(key):
        pass
    if tail is not None and tail.vp_in_history:
        return tail.vp
    return None


@dataclass
class ReferenceOutcome:
    current: DataPage
    history: DataPage
    moved: int = 0
    copied: int = 0
    retained: int = 0
    stubs_dropped: int = 0


def reference_time_split(
    page: DataPage, split_ts: Timestamp, history_page_id: int
) -> ReferenceOutcome:
    history = DataPage(
        history_page_id, is_history=True, page_size=page.page_size,
        table_id=page.table_id, immortal=page.immortal,
    )
    history.split_ts = page.split_ts
    history.end_ts = split_ts
    history.history_page_id = page.history_page_id
    current = DataPage(
        page.page_id, page_size=page.page_size,
        table_id=page.table_id, immortal=page.immortal,
    )
    current.lsn = page.lsn
    current.split_ts = split_ts
    current.history_page_id = history_page_id
    current.next_leaf_id = page.next_leaf_id
    outcome = ReferenceOutcome(current=current, history=history)
    for key in page.keys():
        chain = list(page.chain(key))  # newest first
        tail_history_slot = reference_continues_in_history(page, key)
        _reference_split_chain(
            chain, tail_history_slot, split_ts, current, history, outcome
        )
    return outcome


def _reference_split_chain(
    chain, tail_history_slot, split_ts, current, history, outcome
) -> None:
    current_part: list[RecordVersion] = []
    history_part: list[RecordVersion] = []
    end_open = True
    end_ts = Timestamp.MAX
    for version in chain:
        if not version.is_timestamped:
            if version.tid and not end_open:
                raise AccessMethodError(
                    "uncommitted version found below a committed one"
                )
            current_part.append(version.copy())
            outcome.retained += 1
            continue
        start_ts = version.timestamp
        if version.is_delete_stub and start_ts < split_ts:
            history_part.append(version.copy())
            outcome.stubs_dropped += 1
        elif start_ts >= split_ts:
            current_part.append(version.copy())
            outcome.retained += 1
        elif not end_open and end_ts <= split_ts:
            history_part.append(version.copy())
            outcome.moved += 1
        else:
            current_part.append(version.copy())
            history_part.append(version.copy())
            outcome.copied += 1
        end_open = False
        end_ts = start_ts
    if history_part:
        reference_add_chain(history, history_part, tail_history_slot)
    if current_part:
        if history_part:
            slot = history.slot_of(current_part[0].key)
            assert slot is not None
            reference_add_chain(current, current_part, slot)
        else:
            reference_add_chain(current, current_part, tail_history_slot)


def reference_key_split(page: DataPage, right_page_id: int):
    keys = page.keys()
    chain_bytes = {
        key: sum(v.size_on_page for v in page.chain(key)) for key in keys
    }
    total = sum(chain_bytes.values())
    running = 0
    cut = 1
    for i, key in enumerate(keys):
        running += chain_bytes[key]
        if running >= total / 2:
            cut = min(max(i + 1, 1), len(keys) - 1)
            break

    def build(page_id: int, subset: list[bytes]) -> DataPage:
        child = DataPage(
            page_id, page_size=page.page_size,
            table_id=page.table_id, immortal=page.immortal,
        )
        child.split_ts = page.split_ts
        child.end_ts = page.end_ts
        child.history_page_id = page.history_page_id
        for key in subset:
            chain = [v.copy() for v in page.chain(key)]
            reference_add_chain(child, chain, reference_continues_in_history(page, key))
        return child

    left = build(page.page_id, keys[:cut])
    left.lsn = page.lsn
    right = build(right_page_id, keys[cut:])
    right.next_leaf_id = page.next_leaf_id
    left.next_leaf_id = right.page_id
    return left, right, keys[cut]


FIRST_SPLIT = 50      # an earlier split, so chains can start in a history page

# One version: (ticks since the previous one, sequence number, is a delete
# stub, payload length).  A zero step with a higher SN lands two versions in
# one tick; the generator below keeps (tick, sn) strictly increasing.
_version = st.tuples(
    st.integers(0, 40), st.integers(0, 3), st.booleans(), st.integers(0, 48)
)
_record = st.tuples(
    st.lists(_version, min_size=0, max_size=4),   # before FIRST_SPLIT
    st.lists(_version, min_size=0, max_size=5),   # after it
    st.sampled_from([None, 7]),                   # uncommitted head's TID
)


def _grow(page: DataPage, key: bytes, versions, tick: int, limit: int) -> None:
    """Append committed versions to ``key``'s chain, oldest first."""
    last = (tick, 0)
    for step, sn, is_stub, size in versions:
        at = (last[0] + step, sn)
        if at <= last:
            at = (last[0], last[1] + 1)
        if at[0] >= limit:
            return
        record = RecordVersion.new(
            key, b"" if is_stub else bytes([65 + size % 26]) * size,
            tid=999, delete_stub=is_stub,
        )
        record.stamp(Timestamp(*at))
        page.insert_version(record)
        last = at


@st.composite
def split_sources(draw) -> DataPage:
    """A current page as a workload leaves it, optionally split once before."""
    records = draw(st.lists(_record, min_size=1, max_size=7))
    keys = [b"k%02d" % i for i in range(len(records))]
    page = DataPage(4, table_id=3, immortal=True)
    page.lsn = 777
    page.next_leaf_id = 12
    for key, (early, _, _) in zip(keys, records):
        _grow(page, key, early, 1, FIRST_SPLIT)
    if draw(st.booleans()) and page.versions:
        page = reference_time_split(
            page, Timestamp(FIRST_SPLIT, 0), history_page_id=9
        ).current
    for key, (_, late, tid) in zip(keys, records):
        _grow(page, key, late, FIRST_SPLIT, 200)
        if tid is not None:
            page.insert_version(RecordVersion.new(key, b"open", tid))
    assume(page.versions)
    return page


def _same_page(new: DataPage, old: DataPage) -> None:
    assert new.to_bytes() == old.to_bytes()
    assert new.used_bytes == old.used_bytes
    assert new.self_check() == []


class TestBuildersMatchTheirPredecessors:
    @settings(max_examples=300, deadline=None)
    @given(page=split_sources(), tick=st.integers(51, 160), sn=st.integers(0, 2))
    def test_time_split(self, page, tick, sn):
        split_ts = Timestamp(tick, sn)
        assume(split_ts > page.split_ts)
        old = reference_time_split(page, split_ts, history_page_id=21)
        plan = plan_time_split(page, split_ts)
        new = plan.build(21)
        _same_page(new.current, old.current)
        _same_page(new.history, old.history)
        assert (plan.moved, plan.copied, plan.retained, plan.stubs_dropped) == \
            (old.moved, old.copied, old.retained, old.stubs_dropped)

    @settings(max_examples=60, deadline=None)
    @given(page=split_sources())
    def test_time_split_at_a_versions_own_timestamp(self, page):
        stamped_versions = [v for v in page.versions if v.is_timestamped]
        assume(stamped_versions)
        for version in stamped_versions:
            if version.timestamp > page.split_ts:
                old = reference_time_split(page, version.timestamp, 21)
                new = split_at(page, version.timestamp, 21)
                _same_page(new.current, old.current)
                _same_page(new.history, old.history)

    @settings(max_examples=200, deadline=None)
    @given(page=split_sources())
    def test_key_split(self, page):
        assume(len(page.keys()) >= 2)
        old_left, old_right, old_sep = reference_key_split(page, right_page_id=30)
        left, right, sep = key_split_page(page, right_page_id=30)
        _same_page(left, old_left)
        _same_page(right, old_right)
        assert sep == old_sep
