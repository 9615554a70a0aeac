"""Free list of reclaimed page ids.

The seed engine never frees a page: the TSB-tree only ever allocates, and
historical pages are immutable, so ``PageStore.allocate`` could be a bump
counter.  Cold-history archiving (see ``repro.archive``) breaks that
assumption — migrating a history page into the archive store leaves a hole
in the page file — so reclaimed ids are tracked here and handed back out
by :meth:`repro.storage.disk.PageStore.allocate` before the store grows.

Determinism matters more than speed at these sizes: the list is kept
sorted and :meth:`pop` always returns the smallest free id, so a replayed
workload allocates identical page numbers.

Crash safety comes from the log, not from this list: an id enters it only
once the record that frees it is durable (see ``ArchiveManager.step``), a
checkpoint records the list, and restart derives it again from the last
checkpoint's copy and the records after it (``repro.wal.recovery``), which
also returns the ids a crash orphaned.
"""

from __future__ import annotations

from bisect import insort


class PageFreeList:
    """Sorted set of page ids available for reuse."""

    def __init__(self, pids: "list[int] | tuple[int, ...]" = ()) -> None:
        self._pids: list[int] = sorted(set(pids))

    def add(self, pid: int) -> None:
        """Mark ``pid`` reusable.  Adding an id twice is a no-op."""
        if pid not in self:
            insort(self._pids, pid)

    def pop(self) -> int | None:
        """Take the smallest free id, or ``None`` if the list is empty."""
        if not self._pids:
            return None
        return self._pids.pop(0)

    def replace(self, pids: "list[int] | tuple[int, ...]") -> None:
        """Reset the list to exactly ``pids`` (what restart derived)."""
        self._pids = sorted(set(pids))

    def to_list(self) -> list[int]:
        """Snapshot for a checkpoint record."""
        return list(self._pids)

    def __contains__(self, pid: int) -> bool:
        # Linear scan is fine: the list only holds transiently-unreused holes.
        return pid in self._pids

    def __len__(self) -> int:
        return len(self._pids)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PageFreeList({self._pids!r})"
