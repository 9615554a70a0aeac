"""Fuzzy checkpoints and the redo scan start point.

A checkpoint logs the active-transaction table and the dirty page table
without necessarily flushing anything (``flush=False``).  The **redo scan
start point** — the LSN recovery's redo pass would begin at — is the
minimum recLSN in the last checkpoint's dirty page table.

The redo scan start point matters beyond recovery: Section 2.2 gates PTT
garbage collection on it.  Timestamping is not logged, so a PTT entry may
only be dropped once "the redo scan start point LSN becomes greater than
[the transaction's] VTT LSN", proving that every page re-stamped for that
transaction has reached disk.  Checkpointing (optionally with a flush) is
what advances the scan point and lets the PTT shrink.
"""

from __future__ import annotations

from typing import Callable

from repro.clock import Timestamp
from repro.faults.failpoints import fire
from repro.storage.buffer import BufferPool
from repro.wal.log import LogManager
from repro.wal.records import CheckpointBegin, CheckpointEnd


class CheckpointManager:
    """Takes checkpoints and answers "where would redo start?"."""

    def __init__(self, log: LogManager, buffer: BufferPool) -> None:
        self.log = log
        self.buffer = buffer
        self.checkpoints_taken = 0
        # Called with the flush flag after each completed checkpoint.  The
        # media-recovery manager refreshes its fuzzy page backup here on
        # flush checkpoints (every disk image is current right after one).
        self.post_checkpoint_hooks: list[Callable[[bool], None]] = []

    def take(
        self,
        att: dict[int, tuple[int, int]] | None = None,
        *,
        flush: bool = False,
        max_tid: int = 0,
        high_water: Timestamp = Timestamp(0, 0),
    ) -> int:
        """Take a checkpoint; returns the LSN of its end record.

        ``att`` is {tid: (last_lsn, phase)} for transactions currently
        active (the engine supplies it).  ``flush=True`` writes all dirty
        pages first, which empties the dirty page table and advances the
        redo scan start point as far as possible — the knob the PTT garbage
        collector depends on.  ``max_tid`` is the highest TID allocated so
        far; persisting it lets recovery's TID-floor scan skip everything
        before the redo scan start point.  ``high_water`` is the clock's
        reading, restart's floor for it.  The page store's size and free
        list go in too: restart derives its free list from them.
        """
        fire("checkpoint.begin")
        if flush:
            self.buffer.flush_all()
            fire("checkpoint.flushed")
        begin_lsn = self.log.append(CheckpointBegin())
        disk = self.buffer.disk
        end = CheckpointEnd(
            begin_lsn=begin_lsn,
            att=dict(att or {}),
            dpt=self.buffer.dirty_page_table(),
            max_tid=max_tid,
            page_count=disk.page_count,
            free_pids=sorted(disk.free_list),
            high_water=high_water,
        )
        end_lsn = self.log.append(end)
        fire("checkpoint.logged")
        self.log.force()
        # The redo start point moves past every page written before the
        # dirty page table was read: those images must be on the platter,
        # not in the OS cache, before the master record says so.
        self.buffer.disk.sync()
        fire("checkpoint.master")
        self.log.set_master_checkpoint(end_lsn)
        fire("checkpoint.end")
        self.checkpoints_taken += 1
        for hook in self.post_checkpoint_hooks:
            hook(flush)
        return end_lsn

    def checkpointed_max_tid(self) -> int:
        """The TID floor recorded by the last durable checkpoint (0 if none)."""
        master = self.log.master_checkpoint_lsn
        if not master:
            return 0
        end = self.log.record_at(master)
        if not isinstance(end, CheckpointEnd):  # pragma: no cover - defensive
            return 0
        return end.max_tid

    def redo_scan_start(self) -> int:
        """The LSN redo would start from, per the last durable checkpoint.

        Returns 0 when no checkpoint has been taken (redo would scan the
        whole log, and no PTT entry is collectable yet).
        """
        master = self.log.master_checkpoint_lsn
        if not master:
            return 0
        end = self.log.record_at(master)
        if not isinstance(end, CheckpointEnd):  # pragma: no cover - defensive
            return 0
        if end.dpt:
            return min(end.dpt.values())
        return end.begin_lsn
