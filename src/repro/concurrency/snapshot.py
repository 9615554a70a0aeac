"""Snapshot isolation: visibility, the oldest-active watermark, version GC.

Snapshot readers take no locks: a reader sees, for every record, the newest
version committed strictly before its snapshot horizon (the clock value at
transaction begin).  AS OF transactions reuse the same machinery with an
*inclusive* horizon — the version with the largest timestamp ≤ the
requested time (Section 4.2).

For conventional tables (snapshot isolation enabled, but not immortal),
versions are transient: "Immortal DB keeps track of the time of the oldest
active snapshot transaction O; versions earlier than the version seen by O
are garbage collected" (Section 3).  :func:`prune_conventional_page`
implements exactly that rule.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.clock import TID_FLAG, Timestamp
from repro.storage.page import DataPage
from repro.storage.record import RecordVersion

Resolver = Callable[[int], tuple[Timestamp | None, bool]]
"""TID -> (timestamp, committed?) — :meth:`TimestampManager.resolve`."""


def visible_version(
    chain: Iterable[RecordVersion],
    *,
    horizon: Timestamp | None,
    inclusive: bool,
    resolve: Resolver,
    own_tid: int | None = None,
    stats=None,
) -> RecordVersion | None:
    """Pick the version a reader should see from a newest-first chain.

    ``horizon=None`` means a current-time read: the newest committed version
    (or the reader's own uncommitted one) wins.  Otherwise the first version
    whose timestamp is ``< horizon`` (or ``<= horizon`` when ``inclusive``)
    is returned.  Delete stubs are returned as-is — the caller decides
    whether a stub means "not found".

    Versions written by *other* active transactions are skipped: they are
    invisible at any horizon.

    ``stats`` (an :class:`~repro.core.asof.AsOfStats`, when provided) counts
    one ``chain_steps`` per version examined — structural read work for the
    bench output; never affects the outcome.
    """
    bound = None if horizon is None else (horizon.ttime, horizon.sn)
    for version in chain:
        if stats is not None:
            stats.chain_steps += 1
        field = version.ttime_field
        if field & TID_FLAG:
            tid = field ^ TID_FLAG
            if tid == own_tid:
                if bound is None:
                    return version
                continue  # own writes are newer than any snapshot horizon
            ts, committed = resolve(tid)
            if not committed:
                continue
            # resolve() learned the timestamp but did not stamp the record;
            # use the resolved value for the visibility decision.
            assert ts is not None
            start = (ts.ttime, ts.sn)
        else:
            start = (field, version.sn)
        if bound is None or start < bound or (inclusive and start == bound):
            return version
    return None


class SnapshotRegistry:
    """Tracks active snapshot transactions and their horizons."""

    def __init__(self) -> None:
        self._horizons: dict[int, Timestamp] = {}

    def register(self, tid: int, horizon: Timestamp) -> None:
        self._horizons[tid] = horizon

    def unregister(self, tid: int) -> None:
        self._horizons.pop(tid, None)

    def oldest(self) -> Timestamp | None:
        """Horizon of the oldest active snapshot transaction (O), or None."""
        if not self._horizons:
            return None
        return min(self._horizons.values())

    def __len__(self) -> int:
        return len(self._horizons)

    def clear(self) -> None:
        """Snapshot transactions are aborted at a crash (Section 3)."""
        self._horizons.clear()


def prune_conventional_page(
    page: DataPage,
    oldest: Timestamp | None,
    resolve: Resolver,
) -> tuple[DataPage, int]:
    """Garbage collect snapshot versions no active snapshot can see.

    For every record the page keeps: every not-yet-timestamped version
    (uncommitted, or committed with stamping pending), every version the
    oldest active snapshot ``O`` could still read (timestamp ≥ the one
    visible to O), and the version visible to O itself.  Everything older
    is dropped.  With no active snapshot, only chain heads survive.

    Returns a rebuilt page (same id and header) and the number of versions
    dropped.  Callers should stamp the page first so committed versions
    carry timestamps.
    """
    rebuilt = page.sibling(page.page_id)
    rebuilt.lsn = page.lsn
    rebuilt.split_ts = page.split_ts
    rebuilt.end_ts = page.end_ts
    rebuilt.history_page_id = page.history_page_id
    rebuilt.next_leaf_id = page.next_leaf_id
    dropped = 0
    kept: list[list[RecordVersion]] = []
    for chain in page.chains():
        keep: list[RecordVersion] = []
        horizon_satisfied = False
        for i, version in enumerate(chain):
            if not version.is_timestamped:
                keep.append(version)
                continue
            if i == 0:
                keep.append(version)
            elif oldest is not None and not horizon_satisfied:
                keep.append(version)
            else:
                dropped += 1
                continue
            if oldest is not None and version.timestamp <= oldest:
                # This is the version O reads (inclusive horizon);
                # everything older is garbage.
                horizon_satisfied = True
        # A chain whose only survivor is an old delete stub is fully dead.
        if (
            len(keep) == 1
            and keep[0].is_delete_stub
            and keep[0].is_timestamped
            and (oldest is None or keep[0].timestamp < oldest)
        ):
            dropped += 1
            continue
        kept.append(keep)
    # Pruned chains end in this page: no link to a history page is kept.
    rebuilt.append_chains(kept, [None] * len(kept))
    return rebuilt, dropped
