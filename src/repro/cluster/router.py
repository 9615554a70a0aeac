"""The shard router: range partitioning, scatter-gather reads, 2PC commits.

A :class:`ShardRouter` fronts N :class:`~repro.core.engine.ImmortalDB`
instances with the same facade a single engine exposes (begin/commit/abort,
``table()``, DDL, SQL sessions, stats), so the SQL executor and the network
service run against a cluster unchanged.

* **Routing** is by key range: ``boundaries`` splits the key domain into N
  ordered partitions; shard *i* owns keys in ``(boundaries[i-1],
  boundaries[i]]`` with open ends.  Range partitioning keeps per-shard
  B-trees key-ordered, so a scatter-gather scan is a plain concatenation of
  per-shard streams in shard order — no merge heap needed.
* **Single-shard fast path**: a transaction whose writes all landed on one
  shard commits through that engine's ordinary commit protocol, byte-for-
  byte identical to the unsharded engine (the shared timestamp authority
  feeds its ``ts_source`` seam, drawing from the same clock an unsharded
  engine would).
* **Cross-shard commits** run presumed-abort two-phase commit: prepare on
  every written shard (force-logged votes), one commit timestamp issued by
  the shared authority at the decision point, a forced coordinator decision
  record, then commit-prepared everywhere with that same timestamp.  Crash
  anywhere and recovery resolves: participants reinstate prepared
  transactions *in doubt* (locks held, versions invisible), the coordinator
  replays its decision log, and :meth:`ShardRouter.resolve_in_doubt` drives
  every shard to the logged outcome — commit-everywhere with the original
  timestamp, or abort-everywhere.
"""

from __future__ import annotations

import datetime as _dt
from bisect import bisect_left
from contextlib import contextmanager
from typing import Iterator

from repro.clock import SimClock, Timestamp
from repro.cluster.authority import CommitTimestampAuthority
from repro.cluster.twopc import Decision, TwoPhaseCoordinator
from repro.concurrency.transaction import Transaction, TxnMode, TxnState
from repro.core.engine import ImmortalDB
from repro.errors import (
    CrossShardAbort,
    ImmortalDBError,
    InDoubtError,
    LockConflictError,
    ShardUnavailableError,
    TransactionStateError,
)
from repro.faults.failpoints import fire
from repro.wal.log import LogManager


class Shard:
    """One shard: an engine plus its id and (inclusive) key upper bound."""

    def __init__(self, shard_id: int, db: ImmortalDB) -> None:
        self.shard_id = shard_id
        self.db = db


class ClusterTxn:
    """One logical transaction spanning (lazily opened) per-shard branches."""

    def __init__(
        self,
        router: "ShardRouter",
        mode: TxnMode,
        as_of: Timestamp | None = None,
    ) -> None:
        self.router = router
        self.mode = mode
        self.as_of = as_of
        self.state = TxnState.ACTIVE
        self.gtid: int | None = None
        self.commit_ts: Timestamp | None = None
        self.parts: dict[int, Transaction] = {}   # shard_id -> branch txn
        # Snapshot transactions open every branch eagerly at begin, while no
        # time can pass, so all branches share one snapshot horizon; lazily
        # opened branches would pin later horizons on later-touched shards.
        if mode is TxnMode.SNAPSHOT:
            for shard in router.shards:
                self.branch(shard)

    def require_active(self) -> None:
        if self.state is not TxnState.ACTIVE:
            raise TransactionStateError(
                f"cluster transaction is {self.state.value}"
            )

    def branch(self, shard: Shard) -> Transaction:
        """The branch transaction on ``shard``, opened on first touch."""
        self.require_active()
        self.router._check_up(shard)
        txn = self.parts.get(shard.shard_id)
        if txn is None:
            txn = shard.db.begin(self.mode, as_of=self.as_of)
            self.parts[shard.shard_id] = txn
        return txn


class ClusterTable:
    """Routes one logical table's operations to the owning shards.

    Point operations (read/insert/update/delete/history) go to exactly one
    shard by key; scans scatter to every shard and gather in shard order,
    which *is* global key order under range partitioning.
    """

    def __init__(self, router: "ShardRouter", name: str) -> None:
        self.router = router
        self.name = name

    # The schema surface the SQL executor consumes, proxied from shard 0
    # (identical on every shard by construction).
    @property
    def _shard0_table(self):
        return self.router.shards[0].db.table(self.name)

    @property
    def schema(self):
        return self._shard0_table.schema

    @property
    def codec(self):
        return self._shard0_table.codec

    @property
    def table_id(self) -> int:
        return self._shard0_table.table_id

    @property
    def immortal(self) -> bool:
        return self._shard0_table.immortal

    @property
    def versioned(self) -> bool:
        return self._shard0_table.versioned

    # -- routing ------------------------------------------------------------

    def _shard_for(self, key_value) -> Shard:
        shard = self.router.route(key_value)
        fire("cluster.router.route")
        return shard

    def _on_shard(self, shard: Shard):
        return shard.db.table(self.name)

    # -- point operations ----------------------------------------------------

    def insert(self, txn: ClusterTxn, row: dict) -> None:
        key = row[self.codec.key_column]
        shard = self._shard_for(key)
        branch = txn.branch(shard)
        with self.router._surface_in_doubt(shard):
            self._on_shard(shard).insert(branch, row)

    def update(self, txn: ClusterTxn, key_value, updates: dict) -> None:
        shard = self._shard_for(key_value)
        branch = txn.branch(shard)
        with self.router._surface_in_doubt(shard):
            self._on_shard(shard).update(branch, key_value, updates)

    def delete(self, txn: ClusterTxn, key_value) -> None:
        shard = self._shard_for(key_value)
        branch = txn.branch(shard)
        with self.router._surface_in_doubt(shard):
            self._on_shard(shard).delete(branch, key_value)

    def read(self, txn: ClusterTxn, key_value) -> dict | None:
        shard = self._shard_for(key_value)
        branch = txn.branch(shard)
        with self.router._surface_in_doubt(shard):
            return self._on_shard(shard).read(branch, key_value)

    def read_as_of(self, ts: Timestamp, key_value) -> dict | None:
        shard = self._shard_for(key_value)
        self.router._check_up(shard)
        return self._on_shard(shard).read_as_of(ts, key_value)

    # -- scatter-gather scans -------------------------------------------------

    def scan(self, txn: ClusterTxn) -> list[dict]:
        return list(self.scan_iter(txn))

    def scan_iter(self, txn: ClusterTxn) -> Iterator[dict]:
        """All current rows, global key order (shard order == key order)."""
        fire("cluster.router.scan")
        for shard in self.router.shards:
            branch = txn.branch(shard)
            with self.router._surface_in_doubt(shard):
                yield from self._on_shard(shard).scan_iter(branch)

    def scan_as_of(self, ts: Timestamp) -> list[dict]:
        return list(self.scan_as_of_iter(ts))

    def scan_as_of_iter(self, ts: Timestamp) -> Iterator[dict]:
        """The database as of ``ts``, across every shard: one consistent cut.

        Consistency needs no read-time coordination — every commit timestamp
        came from the shared authority, so "committed at or before ts" is
        the same set of transactions no matter which shard answers.
        """
        fire("cluster.router.scan")
        for shard in self.router.shards:
            self.router._check_up(shard)
            yield from self._on_shard(shard).scan_as_of_iter(ts)

    def scan_range(self, txn: ClusterTxn, low=None, high=None) -> list[dict]:
        return list(self.scan_range_iter(txn, low, high))

    def scan_range_iter(
        self, txn: ClusterTxn, low=None, high=None
    ) -> Iterator[dict]:
        """Range scan touching only the shards whose partitions intersect."""
        fire("cluster.router.scan")
        for shard in self.router.shards_for_range(low, high):
            branch = txn.branch(shard)
            with self.router._surface_in_doubt(shard):
                yield from self._on_shard(shard).scan_range_iter(
                    branch, low, high
                )

    # -- history --------------------------------------------------------------

    def history(
        self,
        key_value,
        t_low: Timestamp | None = None,
        t_high: Timestamp | None = None,
    ) -> list[tuple[Timestamp, dict | None]]:
        return list(self.history_iter(key_value, t_low, t_high))

    def history_iter(
        self,
        key_value,
        t_low: Timestamp | None = None,
        t_high: Timestamp | None = None,
    ) -> Iterator[tuple[Timestamp, dict | None]]:
        shard = self._shard_for(key_value)
        self.router._check_up(shard)
        return self._on_shard(shard).history_iter(key_value, t_low, t_high)


class _ClusterTxnStats:
    """The ``db.txn_mgr`` facade the service layer reads (ack bookkeeping)."""

    def __init__(self, router: "ShardRouter") -> None:
        self._router = router

    @property
    def unacked_commits(self) -> int:
        return sum(
            shard.db.txn_mgr.unacked_commits for shard in self._router.shards
        )


class ShardRouter:
    """N range-partitioned ImmortalDB shards behind a single-engine facade."""

    def __init__(
        self,
        shards: int = 2,
        boundaries: list | None = None,
        *,
        clock: SimClock | None = None,
        ms_per_commit: float = 5.0,
        **engine_kwargs,
    ) -> None:
        if shards < 1:
            raise ValueError("a cluster needs at least one shard")
        if boundaries is None:
            boundaries = []
        if len(boundaries) != shards - 1:
            raise ValueError(
                f"{shards} shards need {shards - 1} range boundaries, "
                f"got {len(boundaries)}"
            )
        if list(boundaries) != sorted(boundaries):
            raise ValueError("range boundaries must be sorted")
        # Shard i owns keys k with boundaries[i-1] < k <= boundaries[i]
        # (open ends); bisect_left on the boundary list is the route.
        self.boundaries = list(boundaries)
        self.clock = clock or SimClock(ms_per_timestamp=ms_per_commit)
        self.authority = CommitTimestampAuthority(self.clock)
        # The decision log opens from the engines' device opener, so it is
        # on whatever device theirs are (memory when none is given).
        devices = engine_kwargs.get("devices", lambda name: None)
        self.coordinator = TwoPhaseCoordinator(
            LogManager(devices("log"), devices("master")))
        self.shards: list[Shard] = []
        for shard_id in range(shards):
            db = ImmortalDB(clock=self.clock, **engine_kwargs)
            # Every commit timestamp — fast path included — flows through
            # the shared authority, keeping one cluster-wide total order.
            db.txn_mgr.ts_source = self.authority.issue
            self.shards.append(Shard(shard_id, db))
        self._down: set[int] = set()
        self._cluster_tables: dict[str, ClusterTable] = {}
        # Cluster counters (cost-model-neutral: none feed engine stats).
        self.fastpath_commits = 0
        self.twopc_commits = 0
        self.twopc_aborts = 0
        self.in_doubt_resolved = 0
        # A ServiceCore registers its counters here, same as on an engine.
        self.service_stats = None
        self.txn_mgr = _ClusterTxnStats(self)

    @classmethod
    def for_int_keys(
        cls, shards: int, key_space: int, **kwargs
    ) -> "ShardRouter":
        """Evenly range-partition integer keys ``0 .. key_space-1``."""
        step = max(1, key_space // shards)
        boundaries = [step * i - 1 for i in range(1, shards)]
        return cls(shards, boundaries, **kwargs)

    # -- routing --------------------------------------------------------------

    def route(self, key_value) -> Shard:
        """The shard owning ``key_value`` under the range partitioning."""
        return self.shards[bisect_left(self.boundaries, key_value)]

    def shards_for_range(self, low=None, high=None) -> list[Shard]:
        """Shards whose partition intersects ``[low, high]`` (None = open)."""
        first = 0 if low is None else bisect_left(self.boundaries, low)
        last = (
            len(self.shards) - 1
            if high is None
            else bisect_left(self.boundaries, high)
        )
        return self.shards[first:last + 1]

    def _check_up(self, shard: Shard) -> None:
        if shard.shard_id in self._down:
            raise ShardUnavailableError(
                f"shard {shard.shard_id} is down (crashed, not recovered)",
                shard_id=shard.shard_id,
            )

    @contextmanager
    def _surface_in_doubt(self, shard: Shard):
        """Translate lock conflicts against in-doubt holders to InDoubtError.

        A conflict with an ordinary active transaction stays a
        LockConflictError (retry after it finishes); a conflict with a
        prepared-but-undecided transaction is a different contract — the
        holder cannot finish until 2PC resolution runs — so callers get the
        typed, retryable cluster error instead.
        """
        try:
            yield
        except LockConflictError as exc:
            holders = set(exc.holder_tids) | (
                {exc.holder_tid} if exc.holder_tid is not None else set()
            )
            for gtid, txn in shard.db.txn_mgr.in_doubt.items():
                if txn.tid in holders:
                    raise InDoubtError(
                        f"shard {shard.shard_id}: data locked by in-doubt "
                        f"transaction gtid={gtid}; retry after resolution",
                        gtid=gtid,
                        shard_id=shard.shard_id,
                    ) from exc
            raise

    # -- DDL / tables ---------------------------------------------------------

    def create_table(
        self, name: str, columns, key: str, *, immortal: bool = False,
        snapshot: bool = False,
    ) -> ClusterTable:
        """Create the table on every shard (same schema, same table id)."""
        for shard in self.shards:
            shard.db.create_table(
                name, columns, key, immortal=immortal, snapshot=snapshot
            )
        table = ClusterTable(self, name)
        self._cluster_tables[name] = table
        return table

    def drop_table(self, name: str) -> None:
        for shard in self.shards:
            shard.db.drop_table(name)
        self._cluster_tables.pop(name, None)

    def enable_snapshot_isolation(self, name: str) -> None:
        for shard in self.shards:
            shard.db.enable_snapshot_isolation(name)

    def table(self, name: str) -> ClusterTable:
        if name not in self._cluster_tables:
            # Raises TableNotFoundError if no shard knows the table.
            self.shards[0].db.table(name)
            self._cluster_tables[name] = ClusterTable(self, name)
        return self._cluster_tables[name]

    # -- transactions ---------------------------------------------------------

    def begin(
        self,
        mode: TxnMode = TxnMode.SERIALIZABLE,
        *,
        as_of: Timestamp | _dt.datetime | str | None = None,
    ) -> ClusterTxn:
        if as_of is not None:
            mode = TxnMode.AS_OF
            as_of = self.to_timestamp(as_of)
        return ClusterTxn(self, mode, as_of)

    def commit(self, txn: ClusterTxn) -> Timestamp | None:
        """Commit: single-shard fast path, or presumed-abort 2PC."""
        txn.require_active()
        writers = [
            (sid, part) for sid, part in sorted(txn.parts.items())
            if not part.is_read_only
        ]
        readers = [
            (sid, part) for sid, part in sorted(txn.parts.items())
            if part.is_read_only
        ]
        if len(writers) <= 1:
            # Fast path: zero or one written shard — the engine's ordinary
            # commit protocol is exactly right, no coordination needed.
            fire("cluster.router.fastpath")
            for sid, part in readers:
                self.shards[sid].db.commit(part)
            ts = None
            for sid, part in writers:
                ts = self.shards[sid].db.commit(part)
                self.fastpath_commits += 1
            txn.state = TxnState.COMMITTED
            txn.commit_ts = ts
            return ts
        return self._commit_2pc(txn, writers, readers)

    def _commit_2pc(self, txn, writers, readers) -> Timestamp:
        gtid = self.coordinator.allocate_gtid()
        txn.gtid = gtid
        shard_ids = [sid for sid, _ in writers]
        # Phase one: collect force-logged yes votes.  Any veto (conflict,
        # validation failure, deadlock victim) aborts everywhere.
        veto_sid = None
        try:
            for sid, part in writers:
                veto_sid = sid
                fire("cluster.2pc.prepare")       # about to solicit this vote
                self.shards[sid].db.prepare(part, gtid)
        except ImmortalDBError as exc:
            self._abort_parts(txn)
            self.coordinator.decide_abort(gtid, shard_ids)
            txn.state = TxnState.ABORTED
            self.twopc_aborts += 1
            raise CrossShardAbort(
                f"cross-shard transaction gtid={gtid} aborted in prepare: "
                f"{exc}",
                victim_tid=(
                    txn.parts[veto_sid].tid if veto_sid is not None else None
                ),
                shard_id=veto_sid,
                gtid=gtid,
            ) from exc
        fire("cluster.2pc.prepared")              # all votes durable
        # Decision point: one timestamp for every shard, then the forced
        # decision record — the cluster-wide commit point.
        fire("cluster.2pc.decide")
        ts = self.authority.issue()
        self.coordinator.decide_commit(gtid, ts, shard_ids)
        # Phase two: apply the decision.  A crash below leaves prepared
        # branches in doubt; recovery replays the logged decision.
        for sid, part in writers:
            fire("cluster.2pc.commit")            # about to commit this branch
            self.shards[sid].db.commit_prepared(part, ts)
        for sid, part in readers:
            self.shards[sid].db.commit(part)
        txn.state = TxnState.COMMITTED
        txn.commit_ts = ts
        self.twopc_commits += 1
        fire("cluster.2pc.ack")                   # all branches committed
        self.coordinator.forget(gtid)
        return ts

    def abort(self, txn: ClusterTxn) -> None:
        txn.require_active()
        self._abort_parts(txn)
        txn.state = TxnState.ABORTED

    def _abort_parts(self, txn: ClusterTxn) -> None:
        for sid, part in sorted(txn.parts.items()):
            if part.state in (TxnState.ACTIVE, TxnState.PREPARED):
                self.shards[sid].db.abort(part)

    @contextmanager
    def transaction(
        self,
        mode: TxnMode = TxnMode.SERIALIZABLE,
        *,
        as_of: Timestamp | _dt.datetime | str | None = None,
    ) -> Iterator[ClusterTxn]:
        """``with router.transaction() as txn: …`` — commit on success."""
        txn = self.begin(mode, as_of=as_of)
        try:
            yield txn
        except BaseException:
            if txn.state is TxnState.ACTIVE:
                self.abort(txn)
            raise
        else:
            if txn.state is TxnState.ACTIVE:
                self.commit(txn)

    def flush_commits(self) -> None:
        for shard in self.shards:
            shard.db.flush_commits()

    # -- time -----------------------------------------------------------------

    def now(self) -> Timestamp:
        return self.clock.now()

    def advance_time(self, ms: float) -> None:
        self.clock.advance_ms(ms)

    to_timestamp = staticmethod(ImmortalDB.to_timestamp)

    # -- checkpoints -----------------------------------------------------------

    def checkpoint(self, *, flush: bool = False) -> int:
        collected = 0
        for shard in self.shards:
            collected += shard.db.checkpoint(flush=flush)
        return collected

    # -- crash / recovery ------------------------------------------------------

    def crash(self) -> None:
        """Cluster-wide power failure: every shard and the coordinator."""
        for shard in self.shards:
            self.crash_shard(shard.shard_id)
        self.coordinator.crash()

    def crash_shard(self, shard_id: int) -> None:
        """One participant dies; the rest of the cluster keeps serving."""
        shard = self.shards[shard_id]
        shard.db.crash()
        self._down.add(shard_id)

    def recover_shard(self, shard_id: int) -> None:
        """Restart one shard.  Its prepared transactions come back in doubt
        (locks held); call :meth:`resolve_in_doubt` to settle them."""
        self.shards[shard_id].db.recover()
        self._down.discard(shard_id)

    def recover(self, *, resolve: bool = True) -> None:
        """Restart the cluster: shards first, then the coordinator, then
        (by default) in-doubt resolution.

        ``resolve=False`` models participants coming back while the
        coordinator is still unreachable: prepared transactions stay in
        doubt, holding their locks, surfacing :class:`InDoubtError` on
        conflicting access until :meth:`resolve_in_doubt` runs.
        """
        for shard in self.shards:
            if shard.shard_id in self._down:
                self.recover_shard(shard.shard_id)
        self.coordinator.recover()
        # A gtid may appear only in shard prepare records (crash before the
        # coordinator logged anything); never hand it out again.
        max_gtid = max(
            (gtid for shard in self.shards
             for gtid in shard.db.txn_mgr.in_doubt),
            default=0,
        )
        self.coordinator.adopt_gtid_floor(max_gtid)
        if resolve:
            self.resolve_in_doubt()

    def crash_and_recover(self) -> None:
        self.crash()
        self.recover()

    def resolve_in_doubt(self) -> int:
        """Drive every in-doubt branch to the coordinator's logged outcome.

        Commit decisions replay with their original authority-issued
        timestamp, so the post-recovery cut is identical on every shard;
        absent decisions resolve to abort (presumed abort).  Returns the
        number of branches resolved.
        """
        resolved = 0
        for shard in self.shards:
            for gtid, branch in sorted(shard.db.txn_mgr.in_doubt.items()):
                decision, ts = self.coordinator.resolve(gtid)
                if decision is Decision.COMMIT:
                    assert ts is not None
                    shard.db.commit_prepared(branch, ts)
                else:
                    shard.db.abort(branch)
                resolved += 1
                self.in_doubt_resolved += 1
        return resolved

    def in_doubt_gtids(self) -> set[int]:
        """Gtids still awaiting resolution on any shard."""
        return {
            gtid for shard in self.shards
            for gtid in shard.db.txn_mgr.in_doubt
        }

    # -- service facade ---------------------------------------------------------

    def enable_concurrency(self) -> "ShardRouter":
        for shard in self.shards:
            shard.db.enable_concurrency()
        return self

    def sql(self, statement: str):
        """One SQL statement on the router's default session (see engine.sql)."""
        if not hasattr(self, "_default_session"):
            from repro.sql.executor import Session

            self._default_session = Session(self)
        return self._default_session.execute(statement)

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        for shard in self.shards:
            shard.db.close()

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- instrumentation ----------------------------------------------------------

    def stats(self) -> dict:
        """Cluster-wide counters: per-shard sums plus router/2PC counters."""
        totals: dict = {}
        for shard in self.shards:
            for name, value in shard.db.stats().items():
                totals[name] = totals.get(name, 0) + value
        totals.update(
            cluster_shards=len(self.shards),
            cluster_fastpath_commits=self.fastpath_commits,
            cluster_2pc_commits=self.twopc_commits,
            cluster_2pc_aborts=self.twopc_aborts,
            cluster_in_doubt_resolved=self.in_doubt_resolved,
            cluster_timestamps_issued=self.authority.issued,
        )
        return totals

    def shard_stats(self) -> list[dict]:
        """Per-shard counter snapshots (for benchmarks)."""
        return [shard.db.stats() for shard in self.shards]
