"""Crash recovery: ARIES-style analysis, redo, and undo passes.

The recovery manager understands the paper's versioned log operations:

* redo of a page-affecting record is the record's own ``redo`` (see
  :mod:`repro.wal.records`), applied here under the page-LSN guard — the
  PTT's too: a commit record names the leaf that took its entry, so redo
  never descends a tree, splits a node or takes a page id;
* redo of a commit record also restores the TID → timestamp mapping in the
  VTT, which is what lets lazy timestamping finish *after* the crash for
  versions that redo just recreated TID-marked;
* analysis derives the free list: the last checkpoint's, plus the ids the
  page store grew by since, plus those image records free after it, minus
  those image records name after it — so an id a crash orphaned (taken for
  a page whose record was lost) is free again, and an id past the store's
  end (growth a power loss took back) extends it;
* undo of a loser's versioned update is **logical** — the version is removed
  from wherever the key currently lives, because key splits may have moved
  it — and is made restartable by redo-only compensation records carrying
  page after-images;
* timestamping itself is never redone, because it was never logged;
* the boot page is redone like any other page (every catalog change is an
  image record), so the catalog is read only after redo, and undo — which
  finds a loser's keys through the tables it names — runs after that.

The engine hands recovery a support object exposing ``log``, ``buffer``,
``tsmgr``, ``open_catalog()`` and a ``locate_current_page(table_id, key)``
callable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol

from repro.clock import Timestamp
from repro.errors import RecoveryError, StorageError
from repro.storage.buffer import BufferPool
from repro.storage.constants import META_PAGE_ID
from repro.storage.page import DataPage, Page
from repro.wal.log import LogManager

if TYPE_CHECKING:  # pragma: no cover - avoids a circular import at runtime
    from repro.timestamp.manager import TimestampManager
from repro.wal.records import (
    AbortEnd,
    AbortTxn,
    BeginTxn,
    CheckpointEnd,
    CommitTxn,
    CompensationRecord,
    InPlaceUpdate,
    MultiPageImage,
    PrepareTxn,
    PTTDelete,
    StampOp,
    TxnPhase,
    VersionOp,
)


class RecoverySupport(Protocol):
    """What recovery needs from the engine."""

    log: LogManager
    buffer: BufferPool
    tsmgr: "TimestampManager"

    def open_catalog(self) -> None:
        """Read the catalog from the redone boot page and open its tables."""
        ...

    def locate_current_page(self, table_id: int, key: bytes) -> DataPage | None:
        """The current page that holds (or would hold) ``key``."""
        ...


@dataclass
class RecoveryReport:
    """What recovery did, for tests and operator visibility."""

    checkpoint_lsn: int = 0
    redo_scan_start: int = 0
    records_analyzed: int = 0
    redo_applied: int = 0
    redo_skipped: int = 0
    committed_restored: int = 0
    losers: list[int] = field(default_factory=list)
    undo_actions: int = 0
    in_doubt: list[tuple[int, int]] = field(default_factory=list)
    """[(tid, prepare_lsn)] for transactions prepared but undecided at the
    crash.  Undo leaves them alone — the engine reinstates them with their
    locks, and the 2PC coordinator decides their fate."""
    max_tid: int = 0
    """Largest TID on a record analysis or redo read."""
    max_commit_ts: Timestamp | None = None
    """The clock's floor after restart: the last checkpoint's high water,
    raised by every commit timestamp the redo scan reads after it."""
    first_commit_lsn: int | None = None
    """Earliest CommitTxn seen by analysis.  Redo must scan from no later
    than this: restoring a committed TID→timestamp mapping (and its PTT
    entry) happens by replaying the commit record, and a commit that lands
    after the last checkpoint with no dirty page behind it — e.g. the
    resolution of an in-doubt prepared transaction — would otherwise fall
    outside the dirty-page redo window and lose its mapping."""


def run_recovery(support: RecoverySupport) -> RecoveryReport:
    """Run analysis and redo, open the catalog, undo; returns a
    :class:`RecoveryReport`."""
    report = RecoveryReport()
    att, dpt, free = _analysis(support, report)
    buffer = support.buffer
    buffer.disk.free_list = free
    # A page written back before undo ends stamps nothing: it may hold
    # versions of a loser, or of a writer whose commit record redo has not
    # reached yet, and neither is in the VTT.
    hooks, buffer.pre_flush_hooks = buffer.pre_flush_hooks, []
    try:
        _redo(support, report, dpt)
        support.open_catalog()
        _undo(support, report, att)
    finally:
        buffer.pre_flush_hooks = hooks
    support.log.force()
    return report


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------

def _analysis(
    support: RecoverySupport, report: RecoveryReport
) -> tuple[dict[int, tuple[int, int]], dict[int, int], set[int]]:
    log = support.log
    att: dict[int, tuple[int, int]] = {}
    dpt: dict[int, int] = {}
    free: set[int] = set()
    scan_from = 0
    grown_from = META_PAGE_ID + 1
    master = log.master_checkpoint_lsn
    if master:
        end = log.record_at(master)
        if not isinstance(end, CheckpointEnd):
            raise RecoveryError(f"master LSN {master} is not a checkpoint end")
        att = dict(end.att)
        dpt = dict(end.dpt)
        free.update(end.free_pids)
        grown_from = max(grown_from, end.page_count)
        scan_from = end.begin_lsn
        report.max_commit_ts = end.high_water
        report.checkpoint_lsn = master
    # Every id the store grew by since is free unless a record below names it.
    disk = support.buffer.disk
    count = disk.page_count
    free.update(range(grown_from, count))

    for rec in log.records_from(scan_from):
        report.records_analyzed += 1
        report.max_tid = max(report.max_tid, rec.tid)
        if isinstance(rec, BeginTxn):
            att[rec.tid] = (rec.lsn, int(TxnPhase.ACTIVE))
        elif isinstance(rec, CommitTxn):
            att.pop(rec.tid, None)
            if report.first_commit_lsn is None:
                report.first_commit_lsn = rec.lsn
        elif isinstance(rec, AbortTxn):
            att[rec.tid] = (rec.lsn, int(TxnPhase.ABORTING))
        elif isinstance(rec, PrepareTxn):
            att[rec.tid] = (rec.lsn, int(TxnPhase.PREPARED))
        elif isinstance(rec, AbortEnd):
            att.pop(rec.tid, None)
        elif isinstance(rec, (VersionOp, InPlaceUpdate, StampOp)):
            phase = att.get(rec.tid, (0, int(TxnPhase.ACTIVE)))[1]
            att[rec.tid] = (rec.lsn, phase)
            dpt.setdefault(rec.page_id, rec.lsn)
        elif isinstance(rec, MultiPageImage):
            for page_id, _ in rec.images:
                if page_id >= count:
                    free.update(range(count, page_id + 1))
                    count = page_id + 1
                dpt.setdefault(page_id, rec.lsn)
                free.discard(page_id)
            free.update(rec.freed)
        elif isinstance(rec, CompensationRecord):
            phase = att.get(rec.tid, (0, int(TxnPhase.ABORTING)))[1]
            att[rec.tid] = (rec.lsn, int(TxnPhase.ABORTING))
            for page_id, _ in rec.images:
                dpt.setdefault(page_id, rec.lsn)
        # CheckpointBegin / CheckpointEnd / PTTDelete need no analysis action.
    disk.extend(count)
    return att, dpt, free


# ---------------------------------------------------------------------------
# Redo
# ---------------------------------------------------------------------------

def _page_lsn(buffer: BufferPool, page_id: int) -> int:
    """The LSN currently stamped on a page, without decoding a cold image."""
    if buffer.contains(page_id):
        return buffer.get_page(page_id).lsn
    try:
        raw = buffer.disk.read_page(page_id)
    except StorageError:
        if buffer.fault_handler is None:
            raise
        # A damaged image found during redo: go through the buffer pool so
        # the media-recovery fault handler can repair it, then redo resumes
        # against the restored page.
        return buffer.get_page(page_id).lsn
    return Page.read_common_header(raw)[3]


def _install_images(
    buffer: BufferPool, rec: MultiPageImage | CompensationRecord,
    report: RecoveryReport,
) -> None:
    for page_id in rec.affected_pages():
        if _page_lsn(buffer, page_id) >= rec.lsn:
            report.redo_skipped += 1
            continue
        buffer.replace_page(rec.image_for(page_id))
        report.redo_applied += 1


def _redo(
    support: RecoverySupport, report: RecoveryReport, dpt: dict[int, int]
) -> None:
    log, buffer = support.log, support.buffer
    candidates = list(dpt.values())
    if report.first_commit_lsn is not None:
        # Replaying from an earlier LSN is safe (page-LSN checks make the
        # extra VersionOps no-ops) and guarantees every post-checkpoint
        # commit record re-runs its PTT/VTT restoration.
        candidates.append(report.first_commit_lsn)
    redo_start = min(candidates) if candidates else log.end_lsn
    report.redo_scan_start = redo_start

    for rec in log.records_from(redo_start):
        report.max_tid = max(report.max_tid, rec.tid)
        if isinstance(rec, CommitTxn):
            ts = Timestamp(rec.ttime, rec.sn)
            support.tsmgr.restore_committed(rec.tid, ts)
            if rec.page_id:
                _redo_on_page(buffer, rec, report)
            report.committed_restored += 1
            if report.max_commit_ts is None or ts > report.max_commit_ts:
                report.max_commit_ts = ts
        elif isinstance(rec, (VersionOp, InPlaceUpdate, StampOp, PTTDelete)):
            _redo_on_page(buffer, rec, report)
        elif isinstance(rec, (MultiPageImage, CompensationRecord)):
            _install_images(buffer, rec, report)


def _redo_on_page(
    buffer: BufferPool,
    rec: VersionOp | InPlaceUpdate | StampOp | CommitTxn | PTTDelete,
    report: RecoveryReport,
) -> None:
    """Redo one single-page record: LSN guard, one fetch, the record's redo."""
    if _page_lsn(buffer, rec.page_id) >= rec.lsn:
        report.redo_skipped += 1
        return
    page = buffer.get_page(rec.page_id)
    if page.page_type not in rec.PAGE_TYPES:
        raise RecoveryError(
            f"redo target page {rec.page_id} is a {page.page_type.name} page, "
            f"not what a {type(rec).__name__} record applies to"
        )
    rec.redo(page)
    page.lsn = rec.lsn
    buffer.mark_dirty(rec.page_id, rec.lsn)
    report.redo_applied += 1


# ---------------------------------------------------------------------------
# Undo
# ---------------------------------------------------------------------------

def _undo(
    support: RecoverySupport,
    report: RecoveryReport,
    att: dict[int, tuple[int, int]],
) -> None:
    log, buffer = support.log, support.buffer
    # Prepared transactions are NOT losers: they voted yes, their outcome
    # belongs to the coordinator.  Undo must not touch their updates — the
    # engine reinstates them in doubt (locks held, versions TID-marked)
    # until resolution commits or aborts them.
    report.in_doubt = sorted(
        (tid, last) for tid, (last, phase) in att.items()
        if phase == int(TxnPhase.PREPARED)
    )
    att = {
        tid: entry for tid, entry in att.items()
        if entry[1] != int(TxnPhase.PREPARED)
    }
    report.losers = sorted(att)
    # next LSN to undo for each loser transaction
    cursor: dict[int, int] = {tid: last for tid, (last, _) in att.items()}
    last_clr: dict[int, int] = {tid: 0 for tid in att}

    while cursor:
        tid = max(cursor, key=cursor.get)
        lsn = cursor[tid]
        if lsn == 0:
            _finish_loser(support, tid, last_clr[tid])
            del cursor[tid]
            continue
        rec = log.record_at(lsn)
        if isinstance(rec, CompensationRecord):
            cursor[tid] = rec.undo_next_lsn
        elif isinstance(rec, (VersionOp, InPlaceUpdate)):
            last_clr[tid] = _undo_update(support, rec, last_clr[tid])
            report.undo_actions += 1
            cursor[tid] = rec.prev_lsn
        elif isinstance(rec, BeginTxn):
            _finish_loser(support, tid, last_clr[tid])
            del cursor[tid]
        else:
            # Redo-only / bookkeeping records: follow the backchain.
            cursor[tid] = rec.prev_lsn


def _undo_update(
    support: RecoverySupport,
    rec: VersionOp | InPlaceUpdate,
    prev_clr_lsn: int,
) -> int:
    """Logically undo one update; append its CLR.  Returns the CLR's LSN."""
    page = support.locate_current_page(rec.table_id, rec.key)
    if page is None:
        raise RecoveryError(
            f"undo: no current page for key {rec.key!r} of table {rec.table_id}"
        )
    if isinstance(rec, VersionOp):
        head = page.head(rec.key)
        if head is None or head.is_timestamped or head.tid != rec.tid:
            raise RecoveryError(
                f"undo: chain head of {rec.key!r} is not TID {rec.tid}'s version"
            )
        page.remove_newest_version(rec.key)
    else:
        page.replace_payload_in_place(rec.key, rec.before)
    clr_lsn = support.log.next_lsn
    page.lsn = clr_lsn
    clr = CompensationRecord(
        tid=rec.tid,
        prev_lsn=prev_clr_lsn,
        undo_next_lsn=rec.prev_lsn,
        images=[(page.page_id, page.to_bytes())],
    )
    assigned = support.log.append(clr)
    assert assigned == clr_lsn
    support.buffer.mark_dirty(page.page_id, clr_lsn)
    return clr_lsn


def _finish_loser(support: RecoverySupport, tid: int, prev_clr_lsn: int) -> None:
    support.log.append(AbortEnd(tid=tid, prev_lsn=prev_clr_lsn))
    support.tsmgr.on_abort(tid)
