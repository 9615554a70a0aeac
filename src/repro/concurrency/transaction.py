"""Transactions: TID allocation, late timestamping, commit, rollback.

The key Immortal DB decision reproduced here (Section 2.1): a transaction's
timestamp is chosen **at commit**, after its serialization order is known,
so timestamp order always equals serialization order — unlike
timestamp-order concurrency control, which picks early and must abort
transactions that serialize differently.

Commit processing for an update transaction is exactly the paper's stage
III: choose the timestamp, do the *single* PTT insert (via the timestamp
manager), append and force the commit record, release locks.  No updated
record is revisited (that is lazy timestamping's job, stage IV).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.clock import SimClock, Timestamp
from repro.errors import ReadOnlyTransactionError, TransactionStateError
from repro.concurrency.locks import LockManager
from repro.faults.failpoints import fire
from repro.timestamp.manager import TimestampManager
from repro.wal.log import LogManager
from repro.wal.records import (
    AbortEnd,
    AbortTxn,
    BeginTxn,
    CommitTxn,
    InPlaceUpdate,
    LogRecord,
    PrepareTxn,
    TxnPhase,
    VersionOp,
)
from repro.wal import recovery as _recovery


class TxnMode(enum.Enum):
    SERIALIZABLE = "serializable"   # fine-grained 2PL
    SNAPSHOT = "snapshot"           # snapshot isolation: lock-free reads
    AS_OF = "as_of"                 # read-only historical transaction


class TxnState(enum.Enum):
    ACTIVE = "active"
    PREPARED = "prepared"     # voted yes in 2PC; awaiting the coordinator
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass
class Transaction:
    """One transaction's volatile state."""

    tid: int
    mode: TxnMode
    state: TxnState = TxnState.ACTIVE
    last_lsn: int = 0                 # backchain head for rollback
    logged_begin: bool = False        # BeginTxn is logged, and the VTT entry
    # made (stage I), lazily at the first write: readers leave no trace
    snapshot_ts: Timestamp | None = None   # visibility horizon (snapshot / as-of)
    commit_ts: Timestamp | None = None
    pinned_ts: Timestamp | None = None     # set by CURRENT TIME (§7.2)
    writes: set[tuple[int, bytes]] = field(default_factory=set)
    touched_immortal: bool = False
    version_count: int = 0
    gtid: int | None = None           # global 2PC transaction id, once prepared

    @property
    def is_read_only(self) -> bool:
        return not self.writes and self.version_count == 0

    @property
    def is_historical(self) -> bool:
        return self.mode is TxnMode.AS_OF

    def require_active(self) -> None:
        if self.state is not TxnState.ACTIVE:
            raise TransactionStateError(
                f"transaction {self.tid} is {self.state.value}"
            )

    def require_writable(self) -> None:
        self.require_active()
        if self.is_historical:
            raise ReadOnlyTransactionError(
                f"transaction {self.tid} is a read-only AS OF transaction"
            )


class TransactionManager:
    """Begin/commit/abort orchestration over the log and timestamp manager."""

    def __init__(
        self,
        clock: SimClock,
        log: LogManager,
        tsmgr: TimestampManager,
        locks: LockManager,
        support: "_recovery.RecoverySupport",
        *,
        group_commit_window: int = 1,
    ) -> None:
        if group_commit_window < 1:
            raise ValueError("group_commit_window must be >= 1")
        self.clock = clock
        self.log = log
        self.tsmgr = tsmgr
        self.locks = locks
        self.support = support           # the engine (locator, buffer)
        self.group_commit_window = group_commit_window
        self.next_tid = 1
        self.active: dict[int, Transaction] = {}
        self.commits = 0
        self.aborts = 0
        self.group_commit_acks = 0       # commits durably acked via a batch force
        self.txn_retries = 0             # worker-pool retries after conflicts
        # Commit-timestamp source.  None draws from the local clock (the
        # single-engine default); a ShardRouter points every shard at one
        # shared CommitTimestampAuthority so timestamp order is a cluster-wide
        # total order and cross-shard as-of reads see one consistent cut.
        self.ts_source: Callable[[], Timestamp] | None = None
        # Prepared-but-undecided transactions by gtid (2PC participants).
        self.in_doubt: dict[int, Transaction] = {}
        # Group commit: transactions whose commit record is appended but not
        # yet durable, in enqueue (= LSN) order.  Any physical log force —
        # the window filling, a WAL-rule page flush, a checkpoint — makes a
        # prefix (in practice: all) of these durable; the post-force hook
        # then delivers their durable acknowledgements in order.
        self._pending_commits: deque[tuple[Transaction, int]] = deque()
        # Called once per transaction when its commit becomes durable (test
        # oracles hook this to learn the exact durable-ack instant).
        self.durable_commit_hook: Callable[[Transaction], None] | None = None
        log.post_force_hooks.append(self._on_log_force)

    # -- begin -------------------------------------------------------------

    def begin(
        self,
        mode: TxnMode = TxnMode.SERIALIZABLE,
        *,
        as_of: Timestamp | None = None,
    ) -> Transaction:
        if as_of is not None and mode is not TxnMode.AS_OF:
            raise TransactionStateError("as_of requires TxnMode.AS_OF")
        tid = self.next_tid
        self.next_tid += 1
        txn = Transaction(tid=tid, mode=mode)
        if mode is TxnMode.SNAPSHOT:
            txn.snapshot_ts = self.clock.now()
        elif mode is TxnMode.AS_OF:
            if as_of is None:
                raise TransactionStateError("AS OF transaction needs a timestamp")
            txn.snapshot_ts = as_of
        self.active[tid] = txn
        return txn

    # -- logging helpers (called by the table layer) ----------------------------

    def log_update(self, txn: Transaction, record: LogRecord) -> int:
        """Append a txn-scoped update record, maintaining the backchain."""
        txn.require_writable()
        if not txn.logged_begin:
            self.tsmgr.on_begin(
                txn.tid, is_snapshot=txn.mode is TxnMode.SNAPSHOT
            )
            txn.last_lsn = self.log.append(BeginTxn(tid=txn.tid))
            txn.logged_begin = True
        record.tid = txn.tid
        record.prev_lsn = txn.last_lsn
        lsn = self.log.append(record)
        txn.last_lsn = lsn
        return lsn

    # -- CURRENT TIME (paper Section 7.2, built as an extension) ------------------

    def current_time(self, txn: Transaction) -> Timestamp:
        """SQL CURRENT TIME: a time consistent with the commit timestamp.

        Answering forces the timestamp to be chosen *earlier* than commit
        (the paper's §7.2 observation).  We pin it now; the table layer then
        validates every subsequent access against the pinned time — reading
        or overwriting a version committed after the pin would put the
        transaction's serialization point after its timestamp, so such
        accesses raise and the transaction must abort (the cost of early
        choice that Section 2.1 describes for TO schemes).
        """
        txn.require_active()
        if txn.is_historical:
            assert txn.snapshot_ts is not None
            return txn.snapshot_ts
        if txn.pinned_ts is None:
            txn.pinned_ts = self.clock.next_timestamp()
        return txn.pinned_ts

    # -- commit -----------------------------------------------------------------

    def commit(self, txn: Transaction) -> Timestamp | None:
        """Commit; returns the commit timestamp (None for pure readers)."""
        txn.require_active()
        if txn.is_read_only:
            txn.state = TxnState.COMMITTED
            self._finish(txn)
            return None

        fire("txn.commit.begin")
        # Late choice: the timestamp is drawn now, when serialization order
        # is settled, guaranteeing timestamp order == serialization order —
        # unless CURRENT TIME already pinned one (validated at every access).
        if txn.pinned_ts is not None:
            ts = txn.pinned_ts
        elif self.ts_source is not None:
            ts = self.ts_source()
        else:
            ts = self.clock.next_timestamp()
        txn.commit_ts = ts
        # Eager mode does its revisit-and-stamp work here; lazy does nothing.
        self.tsmgr.on_commit_prepare(txn.tid, ts)
        commit_lsn = self.log.append(
            CommitTxn(
                tid=txn.tid,
                prev_lsn=txn.last_lsn,
                ttime=ts.ttime,
                sn=ts.sn,
                ptt=txn.touched_immortal,
            )
        )
        if self.group_commit_window > 1:
            return self._commit_grouped(txn, ts, commit_lsn)
        return self._commit_forced(txn, ts, commit_lsn)

    def _commit_forced(
        self, txn: Transaction, ts: Timestamp, commit_lsn: int
    ) -> Timestamp:
        """Synchronous commit tail: durable first, then the volatile steps.

        Shared by :meth:`commit` and :meth:`commit_prepared`.  A failed
        force leaves the transaction as it was (active, or prepared) with
        its locks held — unlike :meth:`_commit_grouped`, where the volatile
        transitions have already happened by the time anything is forced.
        """
        fire("txn.commit.force")      # commit record appended, not yet durable
        self.log.force(commit_lsn)
        fire("txn.commit.stamp")      # durable, VTT/PTT transition still pending
        self.tsmgr.on_commit(
            txn.tid, ts, commit_lsn, persistent=txn.touched_immortal
        )
        txn.state = TxnState.COMMITTED
        if txn.gtid is not None:      # a 2PC participant is no longer in doubt
            self.in_doubt.pop(txn.gtid, None)
        self._finish(txn)
        self.commits += 1
        fire("txn.commit.done")
        return ts

    def _commit_grouped(
        self, txn: Transaction, ts: Timestamp, commit_lsn: int
    ) -> Timestamp:
        """Group-commit tail: volatile commit now, durable ack at the force.

        The transaction's volatile transitions (VTT/PTT bookkeeping, lock
        release, COMMITTED state) happen immediately — early lock release is
        safe because any later transaction's commit record follows this one
        in the log, so it cannot become durable first.  The *durable*
        acknowledgement is deferred to the next physical force; a crash
        before it rolls the whole un-acked batch back (no commit record is
        durable), which is exactly what recovery's analysis pass does.
        """
        fire("txn.groupcommit.enqueue")   # record appended, ack deferred
        self.tsmgr.on_commit(
            txn.tid, ts, commit_lsn, persistent=txn.touched_immortal
        )
        txn.state = TxnState.COMMITTED
        self._finish(txn)
        self.commits += 1
        self._pending_commits.append((txn, commit_lsn))
        if len(self._pending_commits) >= self.group_commit_window:
            self.flush_commits()
        fire("txn.commit.done")
        return ts

    def flush_commits(self, *, unlatch=None) -> None:
        """Force the log if group-committed transactions await durable acks.

        ``unlatch`` is the engine latch when the caller can spare it for
        the duration of the device write (see :meth:`LogManager.force`).
        """
        if not self._pending_commits:
            return
        fire("txn.groupcommit.force")     # batch assembled, force still pending
        self.log.force(unlatch=unlatch)
        # A write-back inside on_commit (a PTT insert evicting a page) may
        # have forced the log over a commit record before its transaction
        # was queued: the force above is then a no-op that runs no hook.
        self._on_log_force()

    def _on_log_force(self) -> None:
        """Post-force hook: durably acknowledge every now-covered commit."""
        while self._pending_commits \
                and self._pending_commits[0][1] < self.log.flushed_lsn:
            txn, _ = self._pending_commits.popleft()
            self.group_commit_acks += 1
            fire("txn.groupcommit.ack")   # this commit is durable, ack in flight
            if self.durable_commit_hook is not None:
                self.durable_commit_hook(txn)

    @property
    def unacked_commits(self) -> int:
        """Group-committed transactions still awaiting their durable ack."""
        return len(self._pending_commits)

    def discard_pending_commits(self) -> None:
        """Crash: un-acked batched commits are lost with the log suffix."""
        self._pending_commits.clear()

    # -- two-phase commit (participant side) ------------------------------------------

    def prepare(self, txn: Transaction, gtid: int) -> int:
        """Phase one: force-log the vote, keep the locks, await the decision.

        After this returns the transaction is PREPARED: it can no longer
        abort unilaterally — a crash restores it *in doubt* with its write
        locks re-acquired, and only :meth:`commit_prepared` (coordinator said
        commit) or :meth:`abort` (coordinator said abort) resolves it.
        """
        txn.require_writable()
        if txn.is_read_only:
            raise TransactionStateError(
                f"transaction {txn.tid} is read-only; prepare is meaningless"
            )
        fire("txn.prepare.begin")
        txn.gtid = gtid
        lsn = self.log.append(
            PrepareTxn(
                tid=txn.tid,
                prev_lsn=txn.last_lsn,
                gtid=gtid,
                ptt=txn.touched_immortal,
                writes=sorted(txn.writes),
            )
        )
        txn.last_lsn = lsn
        fire("txn.prepare.force")     # vote appended, not yet durable
        self.log.force(lsn)
        txn.state = TxnState.PREPARED
        self.in_doubt[gtid] = txn
        fire("txn.prepare.done")      # durable yes vote
        return lsn

    def commit_prepared(self, txn: Transaction, ts: Timestamp) -> Timestamp:
        """Phase two, commit decision: stamp the coordinator-issued timestamp.

        The tail is :meth:`commit`'s; the timestamp comes from the decision
        (issued once by the shared authority, the same value on every
        participant shard) instead of being drawn locally.
        """
        if txn.state is not TxnState.PREPARED:
            raise TransactionStateError(
                f"transaction {txn.tid} is {txn.state.value}, not prepared"
            )
        fire("txn.commit.begin")
        txn.commit_ts = ts
        self.tsmgr.on_commit_prepare(txn.tid, ts)
        commit_lsn = self.log.append(
            CommitTxn(
                tid=txn.tid,
                prev_lsn=txn.last_lsn,
                ttime=ts.ttime,
                sn=ts.sn,
                ptt=txn.touched_immortal,
            )
        )
        return self._commit_forced(txn, ts, commit_lsn)

    def reinstate_in_doubt(
        self, entries: list[tuple[int, int]], lock_record: Callable
    ) -> None:
        """Restore prepared transactions after recovery (still undecided).

        ``entries`` is the recovery report's [(tid, prepare_lsn)] list; the
        prepare record supplies the write set for lock re-acquisition and
        the gtid for coordinator lookup.  Each transaction comes back
        PREPARED with an active VTT entry (so its TID-marked versions stay
        invisible and unstampable) and exclusive locks on every key it
        wrote (so conflicting access raises, surfaced as InDoubtError at
        the cluster layer).
        """
        for tid, prepare_lsn in entries:
            rec = self.log.record_at(prepare_lsn)
            if not isinstance(rec, PrepareTxn):
                raise TransactionStateError(
                    f"in-doubt LSN {prepare_lsn} is not a prepare record"
                )
            txn = Transaction(
                tid=tid,
                mode=TxnMode.SERIALIZABLE,
                state=TxnState.PREPARED,
                last_lsn=prepare_lsn,
                logged_begin=True,
                touched_immortal=rec.ptt,
                gtid=rec.gtid,
            )
            txn.writes = set(rec.writes)
            self.tsmgr.on_begin(tid)
            # The crash lost the count of unstamped versions this TID left on
            # pages (redo recreated the versions, not the bookkeeping), so
            # the RefCount is *undefined* — same post-crash posture as a VTT
            # entry cached from the PTT: stamping decrements become no-ops
            # and the PTT entry is never garbage-collected.
            self.tsmgr.vtt.require(tid).refcount = None
            for table_id, key in sorted(txn.writes):
                lock_record(tid, table_id, key)
            # Under blocking locks a waiter must not park behind this TID:
            # it releases only when 2PC resolution runs, so conflicts raise
            # immediately (surfaced as InDoubtError at the cluster layer).
            self.locks.wedged.add(tid)
            self.active[tid] = txn
            self.in_doubt[rec.gtid] = txn

    # -- abort ----------------------------------------------------------------------

    def abort(self, txn: Transaction) -> None:
        """Roll back every update via the log backchain, writing CLRs."""
        if txn.state is TxnState.PREPARED:
            # Coordinator said abort (or presumed abort after a crash):
            # resume as an ordinary rollback, releasing the in-doubt entry.
            txn.state = TxnState.ACTIVE
            if txn.gtid is not None:
                self.in_doubt.pop(txn.gtid, None)
        txn.require_active()
        if not txn.is_read_only:
            fire("txn.abort.begin")
            self.log.append(AbortTxn(tid=txn.tid, prev_lsn=txn.last_lsn))
            lsn = txn.last_lsn
            prev_clr = 0
            while lsn:
                rec = self.log.record_at(lsn)
                if isinstance(rec, (VersionOp, InPlaceUpdate)):
                    prev_clr = _recovery._undo_update(self.support, rec, prev_clr)
                    lsn = rec.prev_lsn
                elif isinstance(rec, BeginTxn):
                    break
                else:
                    lsn = rec.prev_lsn
            self.log.append(AbortEnd(tid=txn.tid, prev_lsn=prev_clr))
        self.tsmgr.on_abort(txn.tid)
        txn.state = TxnState.ABORTED
        self._finish(txn)
        self.aborts += 1

    # -- bookkeeping -----------------------------------------------------------------

    def _finish(self, txn: Transaction) -> None:
        if txn.mode is not TxnMode.AS_OF:   # reads by validity interval: no locks
            self.locks.wedged.discard(txn.tid)
            self.locks.release_all(txn.tid)
        self.active.pop(txn.tid, None)

    def att_snapshot(self) -> dict[int, tuple[int, int]]:
        """{tid: (last_lsn, phase)} of update transactions, for checkpoints."""
        return {
            tid: (
                txn.last_lsn,
                int(
                    TxnPhase.PREPARED
                    if txn.state is TxnState.PREPARED
                    else TxnPhase.ACTIVE
                ),
            )
            for tid, txn in self.active.items()
            if txn.logged_begin
        }

    def adopt_tid_floor(self, max_seen_tid: int) -> None:
        """After recovery: never reuse a TID that appears in the log or PTT."""
        self.next_tid = max(self.next_tid, max_seen_tid + 1)
