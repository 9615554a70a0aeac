"""The Immortal DB engine: component wiring, DDL, transactions, recovery.

One :class:`ImmortalDB` instance is one database: a page store, a buffer
pool, a write-ahead log, the simulated clock, the lazy (or eager) timestamp
manager with its PTT/VTT, a lock manager, and the catalog of tables.

The engine doubles as the :class:`~repro.wal.recovery.RecoverySupport`
object — it owns everything recovery needs, plus the ``locate_current_page``
locator used by logical undo and by eager timestamping's commit revisits.

Crash testing is first-class: :meth:`crash` throws away all volatile state
(buffer pool, VTT, locks, active transactions, the unforced log suffix) and
:meth:`recover` brings the database back via analysis/redo/undo — the same
path a restart after a real failure would take.

The boot page (page 0, the catalog) is a logged page: each DDL statement
logs its new image in one forced record, and restart reads the catalog only
once redo has brought the page up to date.
"""

from __future__ import annotations

import datetime as _dt
import threading
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

from repro.clock import SimClock, Timestamp
from repro.concurrency.latching import ReentrantLatch
from repro.concurrency.locks import LockManager
from repro.concurrency.snapshot import SnapshotRegistry, prune_conventional_page
from repro.concurrency.transaction import Transaction, TransactionManager, TxnMode
from repro.core.asof import AsOfRouteCache, AsOfStats, PageViewCache
from repro.core.catalog import Catalog, ColumnDef, TableSchema
from repro.core.integrity import table_pages
from repro.core.rowcodec import ColumnType
from repro.core.table import Table
from repro.errors import CatalogError, SchemaError, TableNotFoundError
from repro.faults.failpoints import fire
from repro.storage.buffer import FLUSH_BATCH, BufferPool
from repro.storage.constants import META_PAGE_ID, PTT_ROOT_PAGE_ID
from repro.repair.manager import MediaRecoveryManager
from repro.storage.device import Device, file_devices
from repro.storage.disk import PageStore, RetryPolicy
from repro.storage.page import DataPage, MetaPage, Page
from repro.timestamp.eager import EagerTimestampManager
from repro.timestamp.manager import TimestampManager
from repro.timestamp.ptt import PersistentTimestampTable, PTTNodePage
from repro.wal.checkpoint import CheckpointManager
from repro.wal.filelog import FileLogManager
from repro.wal.log import LogManager, log_smo
from repro.wal.recovery import RecoveryReport, run_recovery
from repro.wal.records import SMOReason
from repro.access.btree import BTree
from repro.access.tsbtree import TSBHistoryIndex, TSBIndexPage

ColumnsArg = list[tuple[str, ColumnType | str]]


class ImmortalDB:
    """A transaction-time database engine (the paper's Immortal DB)."""

    def __init__(
        self,
        path: str | None = None,
        *,
        buffer_pages: int = 1024,
        timestamping: str = "lazy",
        use_tsb_index: bool = False,
        key_split_threshold: float = 0.70,
        ms_per_commit: float = 5.0,
        clock: SimClock | None = None,
        devices: Callable[[str], Device | None] | None = None,
        group_commit_window: int = 1,
        asof_route_cache: bool = False,
        media_recovery: bool = False,
        read_ahead: int = 0,
        archive=None,
        eviction: str = "2q",
        flush_batch: int = FLUSH_BATCH,
        page_checksums: bool = True,
    ) -> None:
        # One value each, for benchmarks/e2e/adapter.py (ROADMAP 3a deletes
        # the three names together with adapter.TUNED).
        if (eviction, flush_batch, page_checksums) != ("2q", FLUSH_BATCH, True):
            raise ValueError(
                "the pool evicts 2Q, writes back in batches of "
                f"{FLUSH_BATCH} and checksums every page: eviction='2q', "
                f"flush_batch={FLUSH_BATCH} and page_checksums=True are the "
                "only values"
            )
        if timestamping not in ("lazy", "eager"):
            raise ValueError("timestamping must be 'lazy' or 'eager'")
        if devices is not None and path is not None:
            raise ValueError("pass either a path or devices, not both")
        # Each store's device by name: files beside ``path``, or an opener's
        # ("pages", "log", "master", "archive"; None is memory).
        if devices is None:
            devices = file_devices(str(path)) if path else lambda name: None
        self.disk = PageStore(devices("pages"))
        self.clock = clock or SimClock(ms_per_timestamp=ms_per_commit)
        log_device = devices("log")
        self.log: LogManager = (
            FileLogManager(log_device, devices("master"))
            if log_device is not None else LogManager()
        )
        # 2Q eviction and batched write-back (DESIGN.md "Buffer
        # management"); ``read_ahead`` prefetches past sequential misses.
        self.buffer = BufferPool(self.disk, buffer_pages, read_ahead=read_ahead)
        self.buffer.log_force = self.log.force
        self.buffer.durable_lsn = lambda: self.log.flushed_lsn
        self.timestamping = timestamping
        self.use_tsb_index = use_tsb_index
        self.key_split_threshold = key_split_threshold

        # An empty log is a new database, whose first record logs its boot
        # page and PTT root; an existing one's catalog is read by recovery.
        fresh = not len(self.log)
        self.catalog = Catalog()
        if fresh:
            # Ids a creation grew the page file by before its record was
            # lost are named by nothing; the PTT root takes the smallest.
            self.disk.free_list.update(range(1, self.disk.page_count))
            ptt_root = PTTNodePage(
                self.disk.allocate(), page_size=self.disk.page_size
            )
        self.ptt = PersistentTimestampTable(
            self.buffer, self.log, PTT_ROOT_PAGE_ID
        )
        manager_cls = (
            EagerTimestampManager if timestamping == "eager" else TimestampManager
        )
        self.tsmgr: TimestampManager = manager_cls(self.log, self.buffer, self.ptt)
        self.tsmgr.locator = self.locate_current_page
        self.locks = LockManager()
        self.txn_mgr = TransactionManager(
            self.clock, self.log, self.tsmgr, self.locks, self,
            group_commit_window=group_commit_window,
        )
        # Until enable_concurrency() (DESIGN.md "Concurrent execution") the
        # engine latch is a plain RLock.  Transactions and table operations
        # take it by hand: a ``with`` on a C lock costs twice as much.
        self.concurrent = False
        self._latch: threading.RLock | ReentrantLatch = threading.RLock()
        self.checkpoints = CheckpointManager(self.log, self.buffer)
        # Media robustness, off by default so the figure benchmarks and
        # crash-point enumeration are untouched.  ``media_recovery`` attaches
        # the archive/backup/restore machinery, retries transient I/O errors
        # at the disk seam with deterministic backoff, and turns on write
        # read-back verification (the only inline defense against silently
        # dropped writes).
        self.scrubber = None     # a repair.Scrubber registers itself here
        self.repair: MediaRecoveryManager | None = None
        if media_recovery:
            self.disk.retry = RetryPolicy(3, seed=0)
            self.disk.verify_writes = True
            self.repair = MediaRecoveryManager(self)
        self.snapshots = SnapshotRegistry()
        self.asof_stats = AsOfStats()
        # A ServiceCore (repro.service) registers its counters here; the
        # engine only reads them in stats(), so with no service attached
        # every service_* counter is a literal zero.
        self.service_stats = None
        # Optional historical-read accelerators.  Off by default: the plain
        # as-of path stays counter-for-counter identical to the original
        # implementation, which the figure benchmarks depend on.
        self.route_cache = (
            AsOfRouteCache(self.buffer, self.asof_stats)
            if asof_route_cache else None
        )
        self.page_views = (
            PageViewCache(self.asof_stats) if asof_route_cache else None
        )
        # Cold-history archive tiering (opt-in, see DESIGN.md "Cold-history
        # tiering").  ``archive`` accepts True, an ArchiveConfig, or a dict
        # of its fields; the default None attaches nothing, keeping
        # behaviour and on-disk images byte-identical to the pre-archive
        # engine.
        self.archive = None
        if archive:
            from repro.archive.manager import ArchiveConfig, ArchiveManager

            if archive is True:
                archive_config = ArchiveConfig()
            elif isinstance(archive, dict):
                archive_config = ArchiveConfig(**archive)
            else:
                archive_config = archive
            self.archive = ArchiveManager(
                self, archive_config, devices("archive")
            )
        self.version_ops = 0       # record versions created (cost model)
        self.tables: dict[str, Table] = {}
        self._tables_by_id: dict[int, Table] = {}
        if fresh:
            self._save_meta([ptt_root])
        else:
            # Restart recovery: after a clean shutdown a cheap scan from the
            # last checkpoint, after a hard kill redo/undo as needed.  Either
            # way it also restores the TID floor so TIDs never repeat.
            self.recover()

    # -- catalog / DDL -------------------------------------------------------

    def _save_meta(
        self, pages: Sequence[Page] = (), freed: Sequence[int] = ()
    ) -> None:
        """Commit a catalog change: one forced record carries the boot
        page's new image, the pages the statement creates and the ids it
        frees.  Until the record is durable, restart knows nothing of it."""
        fire("engine.save_meta")
        meta = MetaPage(
            META_PAGE_ID, self.catalog.to_blob(), page_size=self.disk.page_size
        )
        log_smo(self.log, self.buffer, SMOReason.CATALOG, [meta, *pages], freed)
        self.log.force()

    def open_catalog(self) -> None:
        """Read the catalog from the boot page and open its tables (recovery
        calls this once redo has brought the page up to date)."""
        meta = self.buffer.get_page(META_PAGE_ID)
        self.catalog = Catalog.from_blob(meta.blob)
        self.tables.clear()
        self._tables_by_id.clear()
        for schema in self.catalog.tables.values():
            self._attach_table(schema)

    def _attach_table(self, schema: TableSchema) -> Table:
        btree = BTree(
            self.buffer,
            self.log,
            self.clock,
            schema.table_id,
            immortal=schema.immortal,
            root_pid=schema.root_pid,
            key_split_threshold=self.key_split_threshold,
        )
        history_index = None
        if schema.tsb_root_pid:
            history_index = TSBHistoryIndex(
                self.buffer, schema.table_id, schema.tsb_root_pid
            )
        btree.stamp_page = self.tsmgr.stamp_page_for_split
        btree.history_index = history_index
        btree.route_cache = self.route_cache
        table = Table(self, schema, btree, history_index)
        if not schema.immortal:
            btree.prune_page = self._make_prune_hook(table)
        self.tables[schema.name] = table
        self._tables_by_id[schema.table_id] = table
        return table

    def _make_prune_hook(self, table: Table):
        def prune(leaf: DataPage):
            self.tsmgr.stamp_page(leaf)
            return prune_conventional_page(
                leaf, self.snapshots.oldest(), table._resolve
            )

        return prune

    def create_table(
        self,
        name: str,
        columns: ColumnsArg,
        key: str,
        *,
        immortal: bool = False,
        snapshot: bool = False,
    ) -> Table:
        """Create a table.  ``immortal=True`` ⇔ ``CREATE IMMORTAL TABLE``."""
        if name in self.catalog.tables:
            from repro.errors import TableExistsError

            raise TableExistsError(f"table {name!r} already exists")
        if not columns:
            raise SchemaError("a table needs at least one column")
        defs = [
            ColumnDef(col, ColumnType(ct) if isinstance(ct, str) else ct)
            for col, ct in columns
        ]
        if key not in {c.name for c in defs}:
            raise SchemaError(f"key column {key!r} is not in the column list")
        table_id = self.catalog.allocate_table_id()
        size = self.disk.page_size
        roots: list[Page] = [DataPage(
            self.disk.allocate(), page_size=size, table_id=table_id,
            immortal=immortal,
        )]
        if self.use_tsb_index and immortal:
            roots.append(TSBIndexPage(self.disk.allocate(), page_size=size))
        schema = TableSchema(
            name=name,
            table_id=table_id,
            columns=defs,
            key_column=key,
            immortal=immortal,
            snapshot_enabled=snapshot,
            root_pid=roots[0].page_id,
            tsb_root_pid=roots[1].page_id if len(roots) > 1 else 0,
        )
        self.catalog.add_table(schema)
        # The empty roots' images commit with the boot page that names them.
        self._save_meta(roots)
        return self._attach_table(schema)

    def enable_snapshot_isolation(self, name: str) -> None:
        """``ALTER TABLE name ENABLE SNAPSHOT``: version a conventional table."""
        schema = self.catalog.get(name)
        if schema.immortal:
            return  # immortal tables already keep every version
        schema.snapshot_enabled = True
        self._save_meta()

    def drop_table(self, name: str) -> None:
        """Remove a table from the catalog and free its pages: one forced
        record carries the boot page without the table and frees every page
        it reached, so a crash leaves the table whole or gone, never an id
        named twice or by nothing."""
        table = self.table(name)
        freed = sorted(pid for pid, kind in table_pages(self, table).items()
                       if kind != "archived")
        self.catalog.remove_table(name)
        del self.tables[name]
        self._tables_by_id.pop(table.table_id, None)
        self._save_meta(freed=freed)
        for pid in freed:
            self.buffer.discard_page(pid)
            self.disk.free_list.add(pid)
        for cache in (self.route_cache, self.page_views):
            if cache is not None:
                cache.clear()

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise TableNotFoundError(f"table {name!r} does not exist") from None

    # -- RecoverySupport ------------------------------------------------------------

    def locate_current_page(self, table_id: int, key: bytes) -> DataPage | None:
        table = self._tables_by_id.get(table_id)
        if table is None:
            return None
        return table.btree.search_leaf(key)

    # -- concurrent execution -----------------------------------------------------------

    def enable_concurrency(self) -> "ImmortalDB":
        """Switch the engine to thread-safe operation (idempotent).

        Both modes take the same mutexes; only what must wait or be fair
        changes: the lock manager turns blocking, and the engine latch and
        the log's force-order lock become FIFO ``ReentrantLatch`` objects,
        whose handoff the interleaving harness can replay.  The same
        operations happen in the same order either way, which is why the
        worker pool can call this lazily on an engine built with defaults.
        """
        if self.concurrent:
            return self
        self.concurrent = True
        self._latch = ReentrantLatch()
        self.locks.blocking = True
        self.log.force_order = ReentrantLatch()
        return self

    # -- transactions ------------------------------------------------------------------

    def begin(
        self,
        mode: TxnMode = TxnMode.SERIALIZABLE,
        *,
        as_of: Timestamp | _dt.datetime | str | None = None,
    ) -> Transaction:
        if as_of is not None:
            mode = TxnMode.AS_OF
            as_of = self.to_timestamp(as_of)
        latch = self._latch
        latch.acquire()
        try:
            txn = self.txn_mgr.begin(mode, as_of=as_of)
            if mode is TxnMode.SNAPSHOT:
                assert txn.snapshot_ts is not None
                self.snapshots.register(txn.tid, txn.snapshot_ts)
            return txn
        finally:
            latch.release()

    def commit(self, txn: Transaction) -> Timestamp | None:
        latch = self._latch
        latch.acquire()
        try:
            ts = self.txn_mgr.commit(txn)
            if txn.mode is TxnMode.SNAPSHOT:
                self.snapshots.unregister(txn.tid)
            return ts
        finally:
            latch.release()

    # Two-phase commit participant surface (used by repro.cluster).  The
    # single-engine commit path above is untouched: prepare/commit_prepared
    # only run when a ShardRouter drives a cross-shard transaction.

    def prepare(self, txn: Transaction, gtid: int) -> int:
        """2PC phase one: durable yes vote; locks held until the decision."""
        with self._latch:
            return self.txn_mgr.prepare(txn, gtid)

    def commit_prepared(self, txn: Transaction, ts: Timestamp) -> Timestamp:
        """2PC phase two (commit): apply the coordinator's timestamp."""
        with self._latch:
            out = self.txn_mgr.commit_prepared(txn, ts)
            self.snapshots.unregister(txn.tid)
            return out

    @property
    def in_doubt(self) -> dict[int, Transaction]:
        """Prepared-but-undecided transactions by gtid (2PC participants)."""
        return self.txn_mgr.in_doubt

    def abort(self, txn: Transaction) -> None:
        with self._latch:
            self.txn_mgr.abort(txn)
            self.snapshots.unregister(txn.tid)

    def flush_commits(self) -> None:
        """Force the log now if group-committed transactions await their ack.

        With ``group_commit_window=1`` (the default) every commit forces the
        log itself and this is a no-op.  The latch is let go for the device
        write (see :meth:`LogManager.force`): other threads keep reading and
        appending while this one waits for its ``fsync``.
        """
        with self._latch:
            self.txn_mgr.flush_commits(unlatch=self._latch)

    @contextmanager
    def transaction(
        self,
        mode: TxnMode = TxnMode.SERIALIZABLE,
        *,
        as_of: Timestamp | _dt.datetime | str | None = None,
    ) -> Iterator[Transaction]:
        """``with db.transaction() as txn: …`` — commit on success."""
        txn = self.begin(mode, as_of=as_of)
        try:
            yield txn
        except BaseException:
            if txn.state.value == "active":
                self.abort(txn)
            raise
        else:
            if txn.state.value == "active":
                self.commit(txn)

    # -- time ----------------------------------------------------------------------------

    def now(self) -> Timestamp:
        return self.clock.now()

    def advance_time(self, ms: float) -> None:
        self.clock.advance_ms(ms)

    @staticmethod
    def to_timestamp(value: Timestamp | _dt.datetime | str) -> Timestamp:
        """Accept a Timestamp, a datetime, or an ISO / SQL datetime string."""
        if isinstance(value, Timestamp):
            return value
        if isinstance(value, str):
            value = _dt.datetime.fromisoformat(value)
        if isinstance(value, _dt.datetime):
            return Timestamp.from_datetime(value, sn=0xFFFFFFFE)
        raise CatalogError(f"cannot interpret {value!r} as a timestamp")

    # -- checkpoints and garbage collection ----------------------------------------------------

    def checkpoint(self, *, flush: bool = False) -> int:
        """Take a checkpoint, then run PTT garbage collection.

        The boot page is written like any dirty page, by a flushing
        checkpoint or by write-back; the clock's high water goes in the
        checkpoint record.  Returns the number of PTT entries collected.
        """
        self.checkpoints.take(
            self.txn_mgr.att_snapshot(), flush=flush,
            max_tid=self.txn_mgr.next_tid - 1, high_water=self.clock.now(),
        )
        horizon = self.checkpoints.redo_scan_start()
        if self.repair is not None:
            # Restore's stamping pass resolves TIDs for versions replayed
            # from the archive; a mapping may only be dropped once the pages
            # it stamped are captured in the backup (see MediaRecoveryManager).
            horizon = min(horizon, self.repair.backup_gc_horizon)
        collected = self.tsmgr.garbage_collect(horizon)
        if self.archive is not None and self.archive.config.auto:
            # Budgeted cold-history migration rides along with checkpoints,
            # the same piggybacking the PR-4 scrubber uses.
            self.archive.step()
        return collected

    # -- crash and recovery ------------------------------------------------------------------------

    def crash(self) -> None:
        """Lose all volatile state, as a killed process would: each store
        reopens from what its device kept (a plain device keeps every write;
        a power loss is :class:`~repro.faults.models.FaultyDevice`'s)."""
        self.buffer.discard_all()
        self.disk.crash()
        self.log.crash()
        self.txn_mgr.discard_pending_commits()
        self.tsmgr.rebuild_after_crash()
        # Cached as-of routes and page views refer to pre-crash page objects;
        # recovery must rebuild them from durable state, never serve them.
        if self.route_cache is not None:
            self.route_cache.clear()
        if self.page_views is not None:
            self.page_views.clear()
        for table in self.tables.values():
            if table.history_index is not None:
                table.history_index.clear_cache()
        self.snapshots.clear()
        # A fresh lock table (all locks die with the process), but the
        # concurrent-mode configuration survives the restart.
        old_locks = self.locks
        self.locks = LockManager(
            blocking=old_locks.blocking,
            wait_timeout_s=old_locks.wait_timeout_s,
            victim_policy=old_locks.victim_policy,
        )
        self.locks.wait_hooks = old_locks.wait_hooks
        self.txn_mgr.locks = self.locks
        self.txn_mgr.active.clear()
        self.txn_mgr.in_doubt.clear()
        if self.repair is not None:
            self.repair.on_crash()
        if self.archive is not None:
            self.archive.on_crash()

    def recover(self) -> RecoveryReport:
        """Restart after :meth:`crash`: analysis, redo, the catalog read from
        the redone boot page (:meth:`open_catalog`), undo, re-open."""
        report = run_recovery(self)
        self.txn_mgr.adopt_tid_floor(self._max_tid_seen(report))
        # Restore commit-timestamp monotonicity: the clock must never again
        # issue a time at or below any durable commit timestamp (the last
        # checkpoint's high water, raised by the commits redo read after it).
        if report.max_commit_ts is not None:
            self.clock.adopt_floor(report.max_commit_ts)
        # Prepared transactions survive the crash in doubt: locks re-taken,
        # versions still TID-marked, outcome awaiting the 2PC coordinator.
        # Must run before the recovery checkpoint below, whose flush would
        # otherwise try to resolve their TIDs while stamping.
        if report.in_doubt:
            self.txn_mgr.reinstate_in_doubt(
                report.in_doubt, self.locks.lock_record_exclusive
            )
        self.tsmgr.recovery_fallback = self.clock.now()
        if self.repair is not None:
            self.repair.after_restart()
        self.checkpoint(flush=True)
        return report

    def crash_and_recover(self) -> RecoveryReport:
        self.crash()
        return self.recover()

    def _max_tid_seen(self, report: RecoveryReport) -> int:
        # TIDs allocated before the last checkpoint are covered by the TID
        # floor it persisted (and by the PTT); analysis and redo between
        # them read every record after it.  A pre-max_tid checkpoint
        # reports 0, and only then is the whole log read again.
        floor = self.checkpoints.checkpointed_max_tid()
        tids = () if floor or not self.log.master_checkpoint_lsn else (
            rec.tid for rec in self.log.records_from(0))
        return max(self.ptt.max_tid(), floor, report.max_tid, *tids)

    # -- SQL convenience ----------------------------------------------------------------------------

    def sql(self, statement: str):
        """Execute one SQL statement on the engine's default session.

        ``db.sql("SELECT * FROM t WHERE k = 1").rows`` — the session is
        created lazily and persists, so ``BEGIN TRAN … COMMIT TRAN``
        bracketing works across calls.  For multiple independent sessions
        use :class:`repro.sql.Session` directly.
        """
        if not hasattr(self, "_default_session"):
            from repro.sql.executor import Session

            self._default_session = Session(self)
        return self._default_session.execute(statement)

    # -- lifecycle -------------------------------------------------------------------------------------

    def close(self) -> None:
        """Clean shutdown: flush everything, checkpoint, close the disk."""
        self.checkpoint(flush=True)
        self.log.close()
        if self.archive is not None:
            self.archive.close()
        self.disk.close()

    def __enter__(self) -> "ImmortalDB":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- instrumentation ----------------------------------------------------------------------------------

    def stats(self) -> dict:
        """A flat snapshot of every counter the cost model consumes."""
        disk = self.disk.stats
        log = self.log.stats
        buf = self.buffer.stats
        ts = self.tsmgr.stats
        return {
            "disk_reads": disk.reads,
            "disk_writes": disk.writes,
            "disk_sequential_reads": disk.sequential_reads,
            "disk_sequential_writes": disk.sequential_writes,
            "log_appends": log.appends,
            "log_bytes": log.bytes_appended,
            "log_forces": log.forces,
            "log_forced_bytes": log.forced_bytes,
            "log_image_records": log.image_records,
            "log_image_bytes": log.image_bytes,
            "group_commit_acks": self.txn_mgr.group_commit_acks,
            "buffer_hits": buf.hits,
            "buffer_misses": buf.misses,
            "buffer_evictions": buf.evictions,
            "page_flushes": buf.page_flushes,
            # Eviction/flush-scheduling detail.
            "buffer_dirty_evictions": buf.dirty_evictions,
            "flush_batches": buf.flush_batches,
            "flush_coalesced_writes": buf.flush_coalesced_writes,
            "evict_scan_skips": buf.evict_scan_skips,
            "buffer_prefetches": buf.prefetches,
            "buffer_prefetch_hits": buf.prefetch_hits,
            "version_ops": self.version_ops,
            "stamps": ts.stamps,
            "vtt_hits": ts.vtt_hits,
            "ptt_lookups": ts.ptt_lookups,
            "ptt_inserts": ts.ptt_inserts,
            "ptt_deletes": ts.ptt_deletes,
            "commit_revisit_pages": ts.commit_revisit_pages,
            "commits": self.txn_mgr.commits,
            "aborts": self.txn_mgr.aborts,
            "asof_queries": self.asof_stats.queries,
            "asof_chain_hops": self.asof_stats.chain_hops,
            "asof_pages_examined": self.asof_stats.pages_examined,
            "tsb_lookups": self.asof_stats.tsb_lookups,
            "asof_page_reads": self.asof_stats.page_reads,
            "asof_chain_steps": self.asof_stats.chain_steps,
            "route_cache_hits": self.asof_stats.route_cache_hits,
            "route_cache_misses": self.asof_stats.route_cache_misses,
            # Media robustness (all zero with the defaults off).
            "io_read_retries": disk.read_retries,
            "io_write_retries": disk.write_retries,
            "io_backoff_steps": disk.backoff_steps,
            "io_verify_failures": disk.verify_failures,
            "repair_page_faults":
                self.repair.stats.page_faults if self.repair else 0,
            "pages_repaired":
                self.repair.stats.pages_repaired if self.repair else 0,
            "repair_records_replayed":
                self.repair.stats.repair_records_replayed if self.repair else 0,
            "pages_quarantined":
                self.repair.stats.pages_quarantined if self.repair else 0,
            "degraded_reads":
                self.repair.stats.degraded_reads if self.repair else 0,
            "archive_records":
                self.repair.redo_index.records_indexed if self.repair else 0,
            "backup_refreshes":
                self.repair.stats.backup_refreshes if self.repair else 0,
            "scrub_steps": self.scrubber.stats.steps if self.scrubber else 0,
            "scrub_pages":
                self.scrubber.stats.pages_scanned if self.scrubber else 0,
            "scrub_findings":
                self.scrubber.stats.findings if self.scrubber else 0,
            # Cold-history archive tiering (all zero with archiving off;
            # "archive_records" above counts the log records media recovery
            # indexed, unrelated).
            "archive_pages_migrated":
                self.archive.stats.pages_migrated if self.archive else 0,
            "archive_pages_freed":
                self.archive.stats.pages_freed if self.archive else 0,
            "archive_blocks": len(self.archive.store) if self.archive else 0,
            "archive_block_reads":
                self.archive.stats.block_reads if self.archive else 0,
            "archive_bytes_raw":
                self.archive.store.raw_bytes if self.archive else 0,
            "archive_bytes_stored":
                self.archive.store.stored_bytes if self.archive else 0,
            # Service layer (all zero without a network service attached).
            "service_accepts":
                self.service_stats.accepts if self.service_stats else 0,
            "service_rejects":
                self.service_stats.rejects if self.service_stats else 0,
            "service_timeouts":
                self.service_stats.timeouts if self.service_stats else 0,
            "service_aborted_on_disconnect":
                self.service_stats.aborted_on_disconnect
                if self.service_stats else 0,
            "service_degraded_replies":
                self.service_stats.degraded_replies
                if self.service_stats else 0,
            # Concurrent execution (all zero in single-threaded runs).
            "lock_waits": self.locks.stats.lock_waits,
            "lock_wait_ns": self.locks.stats.lock_wait_ns,
            "deadlocks_detected": self.locks.stats.deadlocks_detected,
            "txn_retries": self.txn_mgr.txn_retries,
        }
