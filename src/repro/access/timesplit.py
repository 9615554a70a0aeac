"""Page time splits (Section 3.3, Figure 3).

A time split takes a full current page and the split time (the current
time) and produces a new *history* page, assigning record versions by the
paper's four cases:

1. versions whose **end time is before the split time** move to the history
   page;
2. versions whose **lifetime spans the split time** are copied to the
   history page and (redundantly) stay in the current page;
3. versions whose lifetime **starts after the split time** stay in the
   current page only;
4. **uncommitted** versions stay in the current page only.

Delete stubs earlier than the split time are removed from the current page
(their only purpose is to end the prior version, which now lives in the
history page).

The redundancy of case 2 is the load-bearing invariant: *every page contains
all the versions alive in its key × time region*, which is what makes direct
(TSB-tree) indexing of historical pages possible.

After the time split, if the current page's remaining utilization is still
above the threshold ``T`` (the paper suggests 70 %), a key split is also
needed; under usual assumptions single-timeslice utilization then converges
to ``T · ln 2``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.clock import TID_FLAG, Timestamp
from repro.errors import AccessMethodError
from repro.storage.constants import DATA_HEADER_SIZE, DELETE_STUB, VP_IN_HISTORY
from repro.storage.page import DataPage
from repro.storage.record import RECORD_OVERHEAD, RecordVersion

DEFAULT_KEY_SPLIT_THRESHOLD = 0.70


@dataclass
class SplitOutcome:
    """Result of a time split: rebuilt current page + new history page."""

    current: DataPage
    history: DataPage


def nothing_to_move(page: DataPage) -> bool:
    """No time split, at any time, could free a byte of ``page``: a split
    moves versions that have *ended* (have a successor here) and drops delete
    stubs, and every chain is one version that is not a stub — stamped or
    not, so the caller need not stamp to ask."""
    return len(page.versions) == len(page.slots) and not any(
        version.flags & DELETE_STUB for version in page.versions
    )


@dataclass
class SplitPlan:
    """The four-case classification of one page at one split time: the
    chains each new page will hold, in key order, newest first, and where
    each current one continues (see :meth:`DataPage.append_chains`; every
    history chain keeps its oldest version's link).  Planning reads the
    page; :meth:`build` makes the two pages once the caller has decided the
    split is worth a page id."""

    page: DataPage
    split_ts: Timestamp
    current_chains: list[list[RecordVersion]] = field(default_factory=list)
    current_links: list[int | None] = field(default_factory=list)
    history_chains: list[list[RecordVersion]] = field(default_factory=list)
    moved: int = 0        # case 1 versions (history only)
    copied: int = 0       # case 2 versions (both pages)
    retained: int = 0     # case 3 + 4 versions (current only)
    stubs_dropped: int = 0

    @property
    def frees_space(self) -> bool:
        return self.moved > 0 or self.stubs_dropped > 0

    def build(self, history_page_id: int) -> SplitOutcome:
        """Both pages, fresh in-memory objects, ready to be installed and
        logged as one atomic structure modification."""
        page, split_ts = self.page, self.split_ts
        history = page.sibling(history_page_id, is_history=True)
        # The history page inherits the current page's old time range start
        # and is capped at the split time; it also inherits the link to the
        # *older* history page, extending the page chain (Section 3.2).
        history.split_ts = page.split_ts
        history.end_ts = split_ts
        history.history_page_id = page.history_page_id
        history.append_chains(self.history_chains)

        current = page.sibling(page.page_id)
        current.lsn = page.lsn
        current.split_ts = split_ts
        current.history_page_id = history_page_id
        current.next_leaf_id = page.next_leaf_id
        current.append_chains(self.current_chains, self.current_links)
        return SplitOutcome(current, history)


def plan_time_split(page: DataPage, split_ts: Timestamp) -> SplitPlan:
    """Classify every version of ``page`` for a split at ``split_ts``.

    Every *committed* version must already be timestamped — "only if we know
    the timestamps for versions of records can we determine whether they
    belong on the history page".
    """
    if page.is_history:
        raise AccessMethodError("history pages are read-only and never split")
    if split_ts <= page.split_ts:
        raise AccessMethodError(
            f"split time {split_ts} does not advance past page start "
            f"{page.split_ts}"
        )
    split = split_ts.key
    plan = SplitPlan(page, split_ts)
    current_chains, current_links = plan.current_chains, plan.current_links
    history_chains = plan.history_chains
    moved = copied = retained = stubs_dropped = 0
    for chain in page.chains():
        # Walk newest → oldest.  A version's end time is the start time of
        # its successor (the previous version of the walk); the newest
        # version's end is open (None).  Uncommitted versions are "newer
        # than any time", so they never close their predecessor before the
        # split time.  Times fall along the walk, so the versions that stay
        # come first, then at most one that is copied, then those that go.
        end: int | None = None
        stay = both = go = 0
        for version in chain:
            ttime = version.ttime_field
            if ttime & TID_FLAG:
                # Case 4: uncommitted — current page only.
                if ttime != TID_FLAG and end is not None:
                    raise AccessMethodError(
                        "uncommitted version found below a committed one"
                    )
                stay += 1
                continue
            start = ttime << 32 | version.sn
            if start >= split:
                # Case 3: born after the split time — current only.
                stay += 1
            elif version.flags & DELETE_STUB:
                # Stubs before the split time leave the current page; in
                # the history page they end the version they deleted.
                go += 1
                stubs_dropped += 1
            elif end is not None and end <= split:
                # Case 1: ended before the split time — history only.
                go += 1
                moved += 1
            else:
                # Case 2: alive across the split time — copied to both.
                both = 1
            end = start
        retained += stay
        if not (both or go):
            # Nothing goes: the chain stays whole, link and all — readers
            # route by page time ranges, not by slot arithmetic.
            current_chains.append(chain)
            oldest = chain[-1]
            current_links.append(
                oldest.vp if oldest.flags & VP_IN_HISTORY else None
            )
            continue
        copied += both
        # The chain's oldest versions go, so the history copy keeps the
        # chain's link to the older history page.
        history_chains.append(chain[stay:])
        if stay + both:
            # The oldest current version continues in the new history
            # page: its VP becomes the record's slot number there (§3.1).
            current_chains.append(chain[:stay + both])
            current_links.append(len(history_chains) - 1)
    plan.moved, plan.copied = moved, copied
    plan.retained, plan.stubs_dropped = retained, stubs_dropped
    return plan


def needs_key_split(
    page: DataPage, threshold: float = DEFAULT_KEY_SPLIT_THRESHOLD
) -> bool:
    """True when storage utilization after a time split stays above ``T``.

    The check uses only the bytes a time split would leave behind (current
    versions and uncommitted ones); if those alone exceed the threshold the
    page must also key split, otherwise the very next updates would force
    another immediate time split.
    """
    surviving = page.current_version_bytes() + DATA_HEADER_SIZE
    return surviving / page.page_size > threshold


def key_split_page(
    page: DataPage, right_page_id: int
) -> tuple[DataPage, DataPage, bytes]:
    """Split a current page's key range in half by content bytes.

    Whole version chains move with their key.  Both halves keep the page's
    time-range start and its link to the history page — the history page
    simply covers a wider key range than either child, which chain-based
    readers handle naturally (they check time ranges, not key bounds).

    Returns (left, right, separator_key); the separator is the lowest key of
    the right page.
    """
    chains = page.chains()
    if len(chains) < 2:
        raise AccessMethodError(
            f"page {page.page_id} has {len(chains)} key(s); cannot key split"
        )
    # Find the key boundary closest to half the record bytes.
    sizes = []
    for chain in chains:
        size = (RECORD_OVERHEAD + len(chain[0].key)) * len(chain)
        for version in chain:
            size += len(version.payload)
        sizes.append(size)
    half = sum(sizes) / 2
    running = 0
    cut = 1
    for i, size in enumerate(sizes):
        running += size
        if running >= half:
            cut = min(max(i + 1, 1), len(chains) - 1)
            break

    def build(page_id: int, subset: list[list[RecordVersion]]) -> DataPage:
        child = page.sibling(page_id)
        child.split_ts = page.split_ts
        child.end_ts = page.end_ts
        child.history_page_id = page.history_page_id
        child.append_chains(subset)
        return child

    left = build(page.page_id, chains[:cut])
    left.lsn = page.lsn
    right = build(right_page_id, chains[cut:])
    # Leaf sibling chain: left -> right -> old next.
    right.next_leaf_id = page.next_leaf_id
    left.next_leaf_id = right.page_id
    return left, right, chains[cut][0].key
