"""The table layer: versioned inserts/updates/deletes and temporal reads.

Every mutation follows the paper's protocol:

* a new record version is written carrying the transaction's **TID** in its
  Ttime field (lazy timestamping stage II),
* updating a record first timestamps every committed version in its chain
  (the "update a non-timestamped version" trigger of Section 2.2),
* a delete writes a **delete stub** — "a special new version … that
  indicates when the record was deleted" — rather than removing anything,
* conventional (non-immortal, non-snapshot) tables update **in place**, so
  the Fig-5 baseline pays exactly a conventional table's costs.

Reads dispatch on the transaction mode: current reads take record locks
(serializable), snapshot reads use the lock-free visibility rules, and
AS OF reads route through the time-split page chain (or the TSB-tree) to
the single page that must contain the version of interest.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import TYPE_CHECKING, Iterator

from repro.clock import TID_FLAG, Timestamp
from repro.concurrency.snapshot import visible_version
from repro.concurrency.transaction import Transaction, TxnMode
from repro.core.asof import page_for_time, visible_row
from repro.core.catalog import TableSchema
from repro.core.rowcodec import RowCodec
from repro.faults.failpoints import fire
from repro.errors import (
    DuplicateKeyError,
    KeyNotFoundError,
    PageFullError,
    PageQuarantinedError,
    SQLExecutionError,
    TimestampOrderError,
    WriteConflictError,
)
from repro.repair.quarantine import Degraded
from repro.storage.constants import DELETE_STUB
from repro.storage.page import DataPage
from repro.storage.record import RecordVersion
from repro.wal.records import InPlaceUpdate, VersionOp, VersionOpKind
from repro.access.btree import BTree
from repro.access.tsbtree import TSBHistoryIndex

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import ImmortalDB


class Table:
    """One table: schema + primary B-tree (+ optional TSB history index)."""

    def __init__(
        self,
        engine: "ImmortalDB",
        schema: TableSchema,
        btree: BTree,
        history_index: TSBHistoryIndex | None = None,
    ) -> None:
        self.engine = engine
        self.schema = schema
        self.btree = btree
        self.history_index = history_index
        self.codec = RowCodec(
            [(c.name, c.column_type) for c in schema.columns],
            schema.key_column,
        )

    # -- identity ------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def table_id(self) -> int:
        return self.schema.table_id

    @property
    def immortal(self) -> bool:
        return self.schema.immortal

    @property
    def versioned(self) -> bool:
        """True when updates create versions instead of overwriting."""
        return self.schema.immortal or self.schema.snapshot_enabled

    # -- internal helpers ---------------------------------------------------------

    def _resolve(self, tid: int) -> tuple[Timestamp | None, bool]:
        return self.engine.tsmgr.resolve_with_fallback(
            tid, immortal=self.immortal
        )

    def _stamp_chain(self, leaf: DataPage, chain: list[RecordVersion]) -> int:
        """Lazy-timestamping trigger: stamp committed versions of one record
        (``chain`` is ``leaf.chain(key)``, walked once for every step)."""
        stamped = 0
        for version in chain:
            if version.ttime_field & TID_FLAG \
                    and self.engine.tsmgr.stamp_version(version):
                stamped += 1
        if stamped:
            self.engine.buffer.mark_dirty_page(leaf)
        return stamped

    def _horizon(self, txn: Transaction) -> tuple[Timestamp | None, bool]:
        """(visibility horizon, inclusive?) for a transaction's reads.

        Both snapshot and AS OF horizons are inclusive: the clock guarantees
        every timestamp issued after a ``now()`` read is strictly greater,
        so "ts <= horizon" means "committed before this moment".
        """
        if txn.mode is TxnMode.AS_OF:
            # "Immortal tables enable AS OF historical queries" (§4.1) —
            # conventional tables garbage collect versions, so an old AS OF
            # answer would be silently wrong rather than historical.
            self._require_immortal_for_asof()
            assert txn.snapshot_ts is not None
            return txn.snapshot_ts, True
        if txn.mode is TxnMode.SNAPSHOT:
            assert txn.snapshot_ts is not None
            return txn.snapshot_ts, True
        return None, False

    def _require_immortal_for_asof(self) -> None:
        if not self.immortal:
            raise SQLExecutionError(
                f"table {self.name!r} is not IMMORTAL: it keeps only the "
                f"recent versions snapshot isolation needs, so AS OF "
                f"queries are not supported (paper Section 4.1)"
            )

    def _validate_pinned(self, txn: Transaction, ts: Timestamp | None) -> None:
        """CURRENT TIME validation: pinned transactions cannot touch data
        committed after their pinned timestamp (see §7.2 extension)."""
        if txn.pinned_ts is not None and ts is not None and ts > txn.pinned_ts:
            raise TimestampOrderError(
                f"transaction {txn.tid} answered CURRENT TIME as "
                f"{txn.pinned_ts} but touched data committed at {ts}; "
                f"it must abort and retry"
            )

    def _check_write_conflict(
        self, txn: Transaction, chain: list[RecordVersion], key: bytes
    ) -> None:
        """First-committer-wins for snapshot writers (Section 1.1 [3]),
        plus CURRENT TIME validation for pinned transactions."""
        if not chain:
            return
        head = chain[0]
        if txn.pinned_ts is not None and head.is_timestamped:
            self._validate_pinned(txn, head.timestamp)
        if txn.mode is not TxnMode.SNAPSHOT:
            return
        if not head.is_timestamped:
            ts, committed = self._resolve(head.tid)
            if not committed:
                if head.tid != txn.tid:
                    raise WriteConflictError(
                        f"key {key!r}: concurrent uncommitted writer "
                        f"(TID {head.tid})"
                    )
                return
        else:
            ts = head.timestamp
        assert txn.snapshot_ts is not None and ts is not None
        if ts > txn.snapshot_ts:
            raise WriteConflictError(
                f"key {key!r} was modified at {ts} after this snapshot "
                f"transaction began at {txn.snapshot_ts}"
            )

    def _current_for_write(
        self, txn: Transaction, key: bytes
    ) -> tuple[list[RecordVersion], RecordVersion | None]:
        """The shared head of insert/update/delete: find, stamp, validate.

        "When we update a non-timestamped version of a record with a later
        version, all existing versions must be committed, and we timestamp
        them all" (§2.2) — except our own uncommitted versions.  Returns the
        record's chain (walked once) and the version this transaction sees.
        """
        leaf = self.btree.search_leaf(key)
        chain = leaf.chain(key)
        self._stamp_chain(leaf, chain)
        self._check_write_conflict(txn, chain, key)
        return chain, visible_version(
            chain, horizon=None, inclusive=False,
            resolve=self._resolve, own_tid=txn.tid,
        )

    def _log_and_apply_version(
        self,
        txn: Transaction,
        kind: VersionOpKind,
        key: bytes,
        payload: bytes,
    ) -> None:
        """The shared tail of insert/update/delete: log, stamp-II, apply."""
        engine = self.engine
        schema = self.schema
        table_id = schema.table_id
        record = RecordVersion.new(
            key, payload, txn.tid, delete_stub=kind == VersionOpKind.DELETE
        )
        leaf = self.btree.leaf_for_insert(record)
        lsn = engine.txn_mgr.log_update(
            txn,
            VersionOp(
                kind=kind, table_id=table_id, page_id=leaf.page_id,
                key=key, payload=payload,
            ),
        )
        engine.tsmgr.on_version_created(txn.tid, table_id, leaf.page_id, key)
        self.btree.apply_insert(leaf, record, lsn)
        engine.version_ops += 1
        txn.writes.add((table_id, key))
        txn.version_count += 1
        if schema.immortal:
            txn.touched_immortal = True

    # -- mutations -------------------------------------------------------------------

    def insert(self, txn: Transaction, row: dict) -> None:
        """Insert a new record (fails if a live record already has the key)."""
        txn.require_writable()
        key, payload = self.codec.encode_row(row)
        # Lock-then-latch discipline: the (possibly blocking) record lock is
        # taken first; the engine latch is only held for the structural work
        # and never across a lock wait (see DESIGN.md "Concurrent execution").
        self.engine.locks.lock_record_exclusive(txn.tid, self.table_id, key)
        with self.engine._latch:
            _, visible = self._current_for_write(txn, key)
            if visible is not None and not visible.is_delete_stub:
                raise DuplicateKeyError(
                    f"table {self.name}: key "
                    f"{row[self.codec.key_column]!r} already exists"
                )
            self._log_and_apply_version(
                txn, VersionOpKind.INSERT, key, payload
            )

    def update(self, txn: Transaction, key_value, updates: dict) -> None:
        """Update a record: a new version (versioned) or in place (plain)."""
        txn.require_writable()
        if self.codec.key_column in updates and \
                updates[self.codec.key_column] != key_value:
            raise SQLExecutionError("primary key columns cannot be updated")
        key = self.codec.encode_key(key_value)
        self.engine.locks.lock_record_exclusive(txn.tid, self.table_id, key)
        with self.engine._latch:
            chain, current = self._current_for_write(txn, key)
            if current is None or current.is_delete_stub:
                raise KeyNotFoundError(
                    f"table {self.name}: no record with key {key_value!r}"
                )
            row = self.codec.decode_payload(current.payload)
            row.update(
                {k: v for k, v in updates.items()
                 if k != self.codec.key_column}
            )
            payload = self.codec.encode_payload(row)
            # ``current`` exists, so the chain has a head (stamping above
            # changed its Ttime field in place, not the list).
            head = chain[0]
            if self.versioned and not (
                not head.is_timestamped
                and head.tid == txn.tid and not head.is_delete_stub
            ):
                self._log_and_apply_version(
                    txn, VersionOpKind.UPDATE, key, payload
                )
            else:
                # Conventional table — or a re-update of this transaction's
                # own uncommitted version: one version per (record,
                # transaction), so a chain never carries two versions with
                # the same commit timestamp.
                self._update_in_place(txn, key, current.payload, payload)

    def _update_in_place(
        self, txn: Transaction, key: bytes, before: bytes, after: bytes
    ) -> None:
        """Conventional-table update: overwrite the payload, log both images."""
        for _ in range(2):
            leaf = self.btree.search_leaf(key)
            try:
                lsn = self.engine.txn_mgr.log_update(
                    txn,
                    InPlaceUpdate(
                        table_id=self.table_id, page_id=leaf.page_id,
                        key=key, before=before, after=after,
                    ),
                )
                leaf.replace_payload_in_place(key, after)
                leaf.lsn = lsn
                self.engine.buffer.mark_dirty_page(leaf, lsn)
                self.engine.version_ops += 1  # an in-place write is the same
                # page work as a version write; the cost model prices both.
                txn.writes.add((self.table_id, key))
                return
            except PageFullError:
                # Make room as if inserting a record of the new size, then
                # retry once; the logged-but-unapplied record is harmless
                # (redo is page-LSN-guarded and undo restores `before`).
                probe = RecordVersion.new(key, after, txn.tid)
                self.btree.leaf_for_insert(probe)
        raise PageFullError(
            f"table {self.name}: in-place update of {key!r} does not fit"
        )

    def delete(self, txn: Transaction, key_value) -> None:
        """Delete a record by writing a delete stub version."""
        txn.require_writable()
        key = self.codec.encode_key(key_value)
        self.engine.locks.lock_record_exclusive(txn.tid, self.table_id, key)
        with self.engine._latch:
            _, current = self._current_for_write(txn, key)
            if current is None or current.is_delete_stub:
                raise KeyNotFoundError(
                    f"table {self.name}: no record with key {key_value!r}"
                )
            self._log_and_apply_version(txn, VersionOpKind.DELETE, key, b"")

    # -- point reads -----------------------------------------------------------------------

    def read(self, txn: Transaction, key_value) -> dict | None:
        """Read one record under the transaction's isolation rules.

        With media recovery enabled, a read that hits a quarantined page
        degrades instead of raising: as-of reads whose horizon the stale
        backup image still covers are answered exactly (history pages are
        immutable), anything else returns a falsy, typed
        :class:`~repro.repair.quarantine.Degraded` result.
        """
        txn.require_active()
        key = self.codec.encode_key(key_value)
        if txn.mode is TxnMode.SERIALIZABLE:
            self.engine.locks.lock_record_shared(txn.tid, self.table_id, key)
        horizon, inclusive = self._horizon(txn)
        with self.engine._latch:
            try:
                return self._read_at(txn, key, horizon, inclusive)
            except PageQuarantinedError as exc:
                return self._degraded_read(txn, key, horizon, inclusive, exc)

    def _read_at(
        self,
        txn: Transaction,
        key: bytes,
        horizon: Timestamp | None,
        inclusive: bool,
    ) -> dict | None:
        leaf = self.btree.search_leaf(key)
        if horizon is not None and self.engine.route_cache is not None \
                and txn.pinned_ts is None:  # CURRENT TIME validates below
            return self._read_cached(txn, leaf, key, horizon, inclusive)
        if horizon is None or horizon >= leaf.split_ts:
            page: DataPage | None = leaf
        else:
            page = self._route(leaf, key, horizon)
        if page is None:
            return None
        chain = page.chain(key)
        if horizon is None:
            # Reading triggers lazy timestamping (stage IV).
            self._stamp_chain(leaf, chain)
        version = visible_version(
            chain, horizon=horizon, inclusive=inclusive,
            resolve=self._resolve, own_tid=txn.tid,
            stats=self.engine.asof_stats,
        )
        if version is None or version.is_delete_stub:
            return None
        if txn.pinned_ts is not None and version.is_timestamped:
            self._validate_pinned(txn, version.timestamp)
        return self.codec.decode_row(key, version.payload)

    def _degraded_read(
        self,
        txn: Transaction,
        key: bytes,
        horizon: Timestamp | None,
        inclusive: bool,
        exc: PageQuarantinedError,
    ):
        """Serve what the quarantine's stale backup image still proves.

        The stale image misses only changes made after its capture, and a
        current page's ``split_ts`` only ever grows — so any horizon below
        the stale image's start time routes through history pages that were
        already immutable when the image was taken.  Horizons the image
        cannot vouch for come back as :class:`Degraded` rather than a
        silently wrong answer.
        """
        repair = self.engine.repair
        if repair is not None:
            repair.stats.degraded_reads += 1
            entry = repair.quarantine.get(exc.page_id)
        else:  # pragma: no cover - quarantine implies a manager
            entry = None
        stale = entry.stale_page() if entry is not None else None
        if horizon is not None and isinstance(stale, DataPage):
            page: DataPage | None = None
            if stale.is_history:
                # History pages are immutable: the stale image IS the page.
                if stale.split_ts <= horizon < stale.end_ts:
                    page = stale
            elif horizon < stale.split_ts:
                page = self._route(stale, key, horizon)
            if page is not None or (
                not stale.is_history and horizon < stale.split_ts
            ):
                if page is None:
                    return None
                version = visible_version(
                    page.chain(key), horizon=horizon, inclusive=inclusive,
                    resolve=self._resolve, own_tid=txn.tid,
                    stats=self.engine.asof_stats,
                )
                if version is None or version.is_delete_stub:
                    return None
                return self.codec.decode_row(key, version.payload)
        return Degraded(page_id=exc.page_id, reason=str(exc))

    def _read_cached(
        self,
        txn: Transaction,
        leaf: DataPage,
        key: bytes,
        horizon: Timestamp,
        inclusive: bool,
    ) -> dict | None:
        """Historical point read through the route cache and the page's view."""
        engine = self.engine
        stats = engine.asof_stats
        stats.queries += 1
        if self.history_index is not None and horizon < leaf.split_ts:
            page: DataPage | None = self._route_tsb_cached(leaf, key, horizon)
        else:
            page = engine.route_cache.route(leaf, horizon)
        if page is None:
            return None
        chain_view = engine.page_views.view(page)[key]
        if chain_view is None:
            return None
        memo: dict = {}
        if chain_view.linear or chain_view.unstamped:
            engine.tsmgr.resolve_many(chain_view.tids(), memo, immortal=self.immortal)
        return visible_row(
            chain_view, key, self.codec, horizon.ttime << 32 | horizon.sn,
            inclusive, memo, txn.tid, stats,
        )

    def _route_tsb_cached(
        self, leaf: DataPage, key: bytes, ts: Timestamp
    ) -> DataPage | None:
        """Memoized TSB-tree routing (the indexed flavour of the route cache)."""
        stats = self.engine.asof_stats
        pid, from_cache = self.history_index.cached_search(key, ts)
        if from_cache:
            fire("asof.route.hit")
            stats.route_cache_hits += 1
        else:
            fire("asof.route.miss")
            stats.route_cache_misses += 1
            stats.tsb_lookups += 1
        if pid is None:
            return None
        page = self.engine.buffer.get_page(pid)
        if not isinstance(page, DataPage):
            return None
        stats.pages_examined += 1
        stats.page_reads += 1
        return page

    def read_as_of(self, ts: Timestamp, key_value) -> dict | None:
        """Convenience: autocommitted AS OF point read."""
        txn = self.engine.begin(TxnMode.AS_OF, as_of=ts)
        try:
            return self.read(txn, key_value)
        finally:
            self.engine.commit(txn)

    def _route(
        self, leaf: DataPage, key: bytes, ts: Timestamp
    ) -> DataPage | None:
        """Find the page containing ``key``'s version at ``ts``."""
        stats = self.engine.asof_stats
        stats.queries += 1
        if self.history_index is not None:
            stats.tsb_lookups += 1
            pid = self.history_index.search(key, ts)
            if pid is None:
                return None
            page = self.engine.buffer.get_page(pid)
            if not isinstance(page, DataPage):
                return None
            stats.pages_examined += 1
            return page
        return page_for_time(self.engine.buffer, leaf, ts, stats)

    # -- scans ------------------------------------------------------------------------------------

    def scan(self, txn: Transaction) -> list[dict]:
        """All live records visible to the transaction, in key order."""
        return list(self.scan_iter(txn))

    def scan_iter(self, txn: Transaction) -> Iterator[dict]:
        """Streaming :meth:`scan`: rows are produced lazily, in key order.

        Locking and validation happen eagerly at call time; row production
        (page routing, visibility, decoding) happens as the iterator is
        consumed, so a ``LIMIT``-style consumer stops the scan early instead
        of paying for the whole table.
        """
        txn.require_active()
        if txn.mode is TxnMode.SERIALIZABLE:
            self.engine.locks.lock_table_shared(txn.tid, self.table_id)
        horizon, inclusive = self._horizon(txn)
        if horizon is not None:
            gen = self._scan_at_iter(horizon, inclusive, own_tid=txn.tid)
        else:
            gen = self._scan_current_gen(txn)
        return self._materialized_if_concurrent(gen)

    def _materialized_if_concurrent(self, gen: Iterator) -> Iterator:
        """Concurrent mode trades scan laziness for consistency.

        A lazily-consumed scan would touch pages between other threads'
        mutations; under the engine latch the whole scan runs as one
        critical section and the caller iterates a stable snapshot of rows.
        Single-threaded mode returns the generator untouched (streaming
        semantics, identical costs).
        """
        if not self.engine.concurrent:
            return gen
        with self.engine._latch:
            return iter(list(gen))

    def _scan_current_gen(self, txn: Transaction) -> Iterator[dict]:
        stats = self.engine.asof_stats
        for leaf in self.btree.leaves():
            # Reading triggers lazy timestamping (stage IV) — the same
            # policy point reads follow; the per-version durability gate
            # (group commit) is enforced inside stamp_page.
            self.engine.tsmgr.stamp_page(leaf)
            stats.page_reads += 1
            for key in leaf.keys():
                version = visible_version(
                    leaf.chain(key), horizon=None, inclusive=False,
                    resolve=self._resolve, own_tid=txn.tid, stats=stats,
                )
                if version is not None and not version.is_delete_stub:
                    yield self.codec.decode_row(key, version.payload)

    def scan_as_of(self, ts: Timestamp) -> list[dict]:
        """Full table scan AS OF ``ts`` (the Fig-6 query)."""
        return list(self.scan_as_of_iter(ts))

    def scan_as_of_iter(self, ts: Timestamp) -> Iterator[dict]:
        """Streaming :meth:`scan_as_of` (see :meth:`scan_iter`)."""
        self._require_immortal_for_asof()
        return self._materialized_if_concurrent(
            self._scan_at_iter(ts, inclusive=True, own_tid=None)
        )

    def _scan_at_iter(
        self, ts: Timestamp, inclusive: bool, own_tid: int | None
    ) -> Iterator[dict]:
        if self.engine.route_cache is not None:
            return self._scan_at_cached_gen(ts, inclusive, own_tid)
        return self._scan_at_plain_gen(ts, inclusive, own_tid)

    def _scan_at_plain_gen(
        self, ts: Timestamp, inclusive: bool, own_tid: int | None
    ) -> Iterator[dict]:
        stats = self.engine.asof_stats
        for leaf, key_low, key_high in self.btree.leaves_with_bounds():
            stats.queries += 1
            page = page_for_time(self.engine.buffer, leaf, ts, stats)
            if page is None:
                continue
            for key in page.keys():
                # Sibling leaves can share history pages after a key split;
                # each leaf only accounts for keys inside its own bounds.
                if key < key_low or (key_high is not None and key >= key_high):
                    continue
                version = visible_version(
                    page.chain(key), horizon=ts, inclusive=inclusive,
                    resolve=self._resolve, own_tid=own_tid, stats=stats,
                )
                if version is not None and not version.is_delete_stub:
                    yield self.codec.decode_row(key, version.payload)

    def _scan_at_cached_gen(
        self, ts: Timestamp, inclusive: bool, own_tid: int | None,
        low_img: bytes | None = None, high_img: bytes | None = None,
    ) -> Iterator[dict]:
        """As-of scan of ``low_img <= key <= high_img`` through the route
        cache and page views, with batched TID resolution."""
        engine, codec = self.engine, self.codec
        stats = engine.asof_stats
        route = engine.route_cache
        views = engine.page_views
        at = ts.ttime << 32 | ts.sn
        memo: dict = {}
        for leaf, key_low, key_high in self.btree.leaves_with_bounds(
            start_key=low_img
        ):
            if high_img is not None and key_low > high_img:
                return
            stats.queries += 1
            page = route.route(leaf, ts)
            if page is None:
                continue
            view = views.view(page)
            keys = page.keys()
            tids = view.complete(keys)
            if tids:
                engine.tsmgr.resolve_many(tids, memo, immortal=self.immortal)
            # Sibling leaves can share history pages after a key split;
            # each leaf only accounts for keys inside its own bounds.
            first = bisect_left(
                keys, key_low if low_img is None else max(key_low, low_img)
            )
            last = len(keys) if key_high is None else bisect_left(keys, key_high)
            if high_img is not None:
                last = min(last, bisect_right(keys, high_img))
            for key in keys[first:last]:
                row = visible_row(
                    view[key], key, codec, at, inclusive, memo, own_tid, stats
                )
                if row is not None:
                    yield row

    # -- time travel --------------------------------------------------------------------------------

    def history(
        self,
        key_value,
        t_low: Timestamp | None = None,
        t_high: Timestamp | None = None,
    ) -> list[tuple[Timestamp, dict | None]]:
        """The full version history of one record, oldest first.

        Each element is ``(start_time, row)``; a deleted interval appears as
        ``(stub_time, None)``.  Bounds restrict to versions whose start time
        falls in ``[t_low, t_high]``.
        """
        return list(self.history_iter(key_value, t_low, t_high))

    def history_iter(
        self,
        key_value,
        t_low: Timestamp | None = None,
        t_high: Timestamp | None = None,
    ) -> Iterator[tuple[Timestamp, dict | None]]:
        """Streaming :meth:`history`: rows decode lazily as consumed.

        The chain walk and timestamp ordering still happen up front (the
        output is sorted oldest-first), but payload decoding — the dominant
        per-row cost — is deferred to iteration, so a consumer that stops
        after the first few versions never decodes the rest.
        """
        self._require_immortal_for_asof()
        gen = (
            self._history_gen if self.engine.route_cache is None
            else self._history_cached_gen
        )
        return self._materialized_if_concurrent(gen(key_value, t_low, t_high))

    def _history_gen(
        self,
        key_value,
        t_low: Timestamp | None,
        t_high: Timestamp | None,
    ) -> Iterator[tuple[Timestamp, dict | None]]:
        key = self.codec.encode_key(key_value)
        leaf = self.btree.search_leaf(key)
        stats = self.engine.asof_stats
        out: dict[Timestamp, RecordVersion] = {}
        page: DataPage | None = leaf
        while page is not None:
            stats.page_reads += 1
            for version in page.chain(key):
                stats.chain_steps += 1
                if not version.is_timestamped:
                    ts, committed = self._resolve(version.tid)
                    if not committed:
                        continue
                else:
                    ts = version.timestamp
                assert ts is not None
                if t_low is not None and ts < t_low:
                    continue
                if t_high is not None and ts > t_high:
                    continue
                if ts not in out:  # spanning copies appear in two pages
                    out[ts] = version
            next_pid = page.history_page_id
            page = (
                self.engine.buffer.get_page(next_pid)  # type: ignore[assignment]
                if next_pid
                else None
            )
        for ts in sorted(out):
            version = out[ts]
            yield (
                ts,
                None
                if version.is_delete_stub
                else self.codec.decode_row(key, version.payload),
            )

    def _history_cached_gen(
        self, key_value, t_low: Timestamp | None, t_high: Timestamp | None
    ) -> Iterator[tuple[Timestamp, dict | None]]:
        """:meth:`_history_gen` over the cached route's pages, newest first,
        one chain view each.  Spanning copies dedupe on the int timestamp
        key; rows a reader already decoded come from the view's memo, which
        history never fills (one deep chain would pin every row it touched)."""
        engine = self.engine
        key = self.codec.encode_key(key_value)
        leaf = self.btree.search_leaf(key)
        stats, views, buffer = engine.asof_stats, engine.page_views, engine.buffer
        low = 0 if t_low is None else t_low.key
        high = Timestamp.MAX.key if t_high is None else t_high.key
        memo: dict[int, tuple[Timestamp | None, bool]] = {}
        found: dict[int, object] = {}   # start key -> memoized row, else version
        for pid in reversed(engine.route_cache.entry(leaf).pids):
            page = leaf if pid == leaf.page_id else buffer.get_page(pid)
            stats.page_reads += 1
            chain_view = views.view(page)[key]
            if chain_view is None:
                continue
            for version in chain_view.linear or chain_view.unstamped:
                stats.chain_steps += 1
                if version.ttime_field & TID_FLAG:
                    tid = version.ttime_field ^ TID_FLAG
                    if tid not in memo:
                        memo[tid] = self._resolve(tid)
                    ts, committed = memo[tid]
                    if not committed:
                        continue
                    at = ts.key
                else:
                    at = version.ttime_field << 32 | version.sn
                if low <= at <= high:
                    found.setdefault(at, version)
            keys = chain_view.keys
            stats.chain_steps += len(keys)
            for i in range(bisect_left(keys, low), bisect_right(keys, high)):
                if keys[i] not in found:
                    found[keys[i]] = chain_view.rows[i] or chain_view.versions[i]
        for at in sorted(found):
            hit = found[at]
            if type(hit) is dict:
                row = dict(hit)
            else:
                row = None if hit.flags & DELETE_STUB \
                    else self.codec.decode_row(key, hit.payload)
            yield Timestamp(at >> 32, at & 0xFFFFFFFF), row

    def scan_range(
        self,
        txn: Transaction,
        low=None,
        high=None,
    ) -> list[dict]:
        """Records with ``low <= key <= high``, under the txn's isolation.

        Bounds are key-column values; None leaves an end open.  Uses the
        B-tree to start at the right leaf instead of scanning from the
        first one.
        """
        return list(self.scan_range_iter(txn, low, high))

    def scan_range_iter(
        self,
        txn: Transaction,
        low=None,
        high=None,
    ) -> Iterator[dict]:
        """Streaming :meth:`scan_range` (see :meth:`scan_iter`).

        Stops walking leaves as soon as a key above ``high`` is seen, and
        descends the B-tree to skip leaves entirely below ``low``.
        """
        txn.require_active()
        low_img = self.codec.encode_key(low) if low is not None else None
        high_img = self.codec.encode_key(high) if high is not None else None
        if txn.mode is TxnMode.SERIALIZABLE:
            self.engine.locks.lock_table_shared(txn.tid, self.table_id)
        horizon, inclusive = self._horizon(txn)
        if horizon is not None and self.engine.route_cache is not None:
            gen = self._scan_at_cached_gen(
                horizon, inclusive, txn.tid, low_img, high_img
            )
        else:
            gen = self._scan_range_gen(txn, low_img, high_img, horizon, inclusive)
        return self._materialized_if_concurrent(gen)

    def _scan_range_gen(
        self,
        txn: Transaction,
        low_img: bytes | None,
        high_img: bytes | None,
        horizon: Timestamp | None,
        inclusive: bool,
    ) -> Iterator[dict]:
        stats = self.engine.asof_stats
        for leaf, key_low, key_high in self.btree.leaves_with_bounds(
            start_key=low_img
        ):
            if horizon is None:
                page = leaf
                # Current-time reads trigger lazy timestamping, exactly as
                # point reads do (stage IV of the stamping protocol).
                self.engine.tsmgr.stamp_page(leaf)
                stats.page_reads += 1
            else:
                page = page_for_time(
                    self.engine.buffer, leaf, horizon, stats
                )
                if page is None:
                    continue
            for key in page.keys():
                if key < key_low or (key_high is not None and key >= key_high):
                    continue
                if low_img is not None and key < low_img:
                    continue
                if high_img is not None and key > high_img:
                    return
                version = visible_version(
                    page.chain(key), horizon=horizon, inclusive=inclusive,
                    resolve=self._resolve, own_tid=txn.tid, stats=stats,
                )
                if version is not None and not version.is_delete_stub:
                    yield self.codec.decode_row(key, version.payload)

    def changes_between(
        self, t_old: Timestamp, t_new: Timestamp
    ) -> dict[object, tuple[dict | None, dict | None]]:
        """Diff of two database states: {key: (row at t_old, row at t_new)}.

        Only keys whose visible row differs appear; a None side means the
        record did not exist at that time.  This is the audit primitive —
        "what did that batch job actually change?" — built on two AS OF
        scans.
        """
        if t_new < t_old:
            raise SQLExecutionError("changes_between needs t_old <= t_new")
        old_rows = {
            row[self.codec.key_column]: row for row in self.scan_as_of(t_old)
        }
        new_rows = {
            row[self.codec.key_column]: row for row in self.scan_as_of(t_new)
        }
        diff: dict[object, tuple[dict | None, dict | None]] = {}
        for key in old_rows.keys() | new_rows.keys():
            before = old_rows.get(key)
            after = new_rows.get(key)
            if before != after:
                diff[key] = (before, after)
        return diff

    # -- maintenance hooks (wired into the B-tree by the engine) -------------------------------------

    def iter_all_pages(self) -> Iterator[DataPage]:
        """Every *readable* data page: current leaves then their history.

        A quarantined archive block ends that leaf's chain walk — the
        damage itself is reported by the archive integrity checks.
        """
        for leaf in self.btree.leaves():
            yield leaf
            pid = leaf.history_page_id
            while pid:
                try:
                    page = self.engine.buffer.get_page(pid)
                except PageQuarantinedError:
                    break
                assert isinstance(page, DataPage)
                yield page
                pid = page.history_page_id
