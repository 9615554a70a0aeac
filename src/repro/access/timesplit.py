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

from dataclasses import dataclass

from repro.clock import TID_FLAG, Timestamp
from repro.errors import AccessMethodError
from repro.storage.constants import DATA_HEADER_SIZE, DELETE_STUB
from repro.storage.page import DataPage, history_slot_after
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
    """The four-case classification of one page at one split time: per
    chain in key order, the versions that stay and those that go (newest
    first).  Planning reads the page; :meth:`build` makes the two pages
    once the caller has decided the split is worth a page id."""

    page: DataPage
    split_ts: Timestamp
    parts: list[tuple[list[RecordVersion], list[RecordVersion]]]
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

        current = page.sibling(page.page_id)
        current.lsn = page.lsn
        current.split_ts = split_ts
        current.history_page_id = history_page_id
        current.next_leaf_id = page.next_leaf_id

        for current_part, history_part in self.parts:
            # Where the chain went on before this split: an older history
            # page, still reachable through the new history page's own link.
            # (Once one version goes to history every older one does, so
            # the chain's oldest is the last of ``history_part`` if any.)
            older_slot = history_slot_after(history_part or current_part)
            if history_part:
                # The oldest current version continues in the new history
                # page: its VP becomes the record's slot number there
                # (Section 3.1).
                slot = history.add_chain(history_part, history_slot=older_slot)
                if current_part:
                    current.add_chain(current_part, history_slot=slot)
            else:
                # Nothing moved now: keep the original slot — readers route
                # by page time ranges, not by slot arithmetic.
                current.add_chain(current_part, history_slot=older_slot)
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
    split = (split_ts.ttime, split_ts.sn)
    plan = SplitPlan(page, split_ts, [])
    for chain in page.chains():
        current_part: list[RecordVersion] = []
        history_part: list[RecordVersion] = []
        # Walk newest → oldest.  A version's end time is the start time of
        # its successor (the previous element of the walk); the newest
        # version's end is open (None).  Uncommitted versions are "newer
        # than any time", so they never close their predecessor before the
        # split time.
        end: tuple[int, int] | None = None
        for version in chain:
            field = version.ttime_field
            if field & TID_FLAG:
                # Case 4: uncommitted — current page only.
                if field != TID_FLAG and end is not None:
                    raise AccessMethodError(
                        "uncommitted version found below a committed one"
                    )
                current_part.append(version)
                plan.retained += 1
                continue
            start = (field, version.sn)
            if start >= split:
                # Case 3: born after the split time — current only.
                current_part.append(version)
                plan.retained += 1
            elif version.flags & DELETE_STUB:
                # Stubs before the split time leave the current page; in the
                # history page they end the version they deleted.
                history_part.append(version)
                plan.stubs_dropped += 1
            elif end is not None and end <= split:
                # Case 1: ended before the split time — history only.
                history_part.append(version)
                plan.moved += 1
            else:
                # Case 2: alive across the split time — copied to both.
                current_part.append(version)
                history_part.append(version)
                plan.copied += 1
            end = start
        plan.parts.append((current_part, history_part))
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
        for chain in subset:
            child.add_chain(chain, history_slot=history_slot_after(chain))
        return child

    left = build(page.page_id, chains[:cut])
    left.lsn = page.lsn
    right = build(right_page_id, chains[cut:])
    # Leaf sibling chain: left -> right -> old next.
    right.next_leaf_id = page.next_leaf_id
    left.next_leaf_id = right.page_id
    return left, right, chains[cut][0].key
