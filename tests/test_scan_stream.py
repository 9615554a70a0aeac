"""Streaming scans, the as-of route cache, and batched version resolution.

The load-bearing property: every cached/streaming read path must return
exactly what a naive, uncached oracle computes from the raw page chains —
across seeds, as-of times, concurrent updates, and mid-scan aborts.  The
cache-invalidation tests then check the sharper claim that no stale route
is ever served after splits, crashes, or in-place mutations.
"""

from __future__ import annotations

import random

import pytest

from repro import ColumnType, ImmortalDB
from repro.core.asof import (
    AsOfRouteCache,
    AsOfStats,
    PageViewCache,
    page_for_time,
)
from repro.faults.failpoints import FailpointRegistry, installed

COLS = [("k", ColumnType.INT), ("v", ColumnType.TEXT)]


def _db(**kwargs) -> ImmortalDB:
    kwargs.setdefault("buffer_pages", 4096)
    return ImmortalDB(asof_route_cache=True, use_tsb_index=True, **kwargs)


def _table(db: ImmortalDB):
    return db.create_table("t", COLS, key="k", immortal=True)


def _naive_scan_as_of(db: ImmortalDB, table, ts) -> list[dict]:
    """Uncached oracle: raw chain routing + linear visibility, no caches."""
    from repro.concurrency.snapshot import visible_version

    rows = []
    stats = AsOfStats()
    for leaf, key_low, key_high in table.btree.leaves_with_bounds():
        page = page_for_time(db.buffer, leaf, ts, stats)
        if page is None:
            continue
        for key in page.keys():
            if key < key_low or (key_high is not None and key >= key_high):
                continue
            version = visible_version(
                page.chain(key), horizon=ts, inclusive=True,
                resolve=table._resolve, own_tid=None,
            )
            if version is not None and not version.is_delete_stub:
                rows.append(table.codec.decode_row(key, version.payload))
    return rows


def _grow(db: ImmortalDB, table, rng: random.Random, keys: int,
          rounds: int, live: set[int] | None = None) -> list:
    """Seeded insert/update/delete churn; returns the time marks."""
    marks = []
    live = set() if live is None else live
    for _ in range(rounds):
        for k in range(keys):
            roll = rng.random()
            with db.transaction() as txn:
                if k not in live:
                    table.insert(txn, {"k": k, "v": f"v{rng.random():.8f}"})
                    live.add(k)
                elif roll < 0.15:
                    table.delete(txn, k)
                    live.discard(k)
                elif roll < 0.70:
                    table.update(txn, k, {"v": f"v{rng.random():.8f}"})
        db.clock.advance_ms(300.0)
        marks.append(db.clock.now())
    return marks


class TestStreamingMatchesOracle:
    @pytest.mark.parametrize("seed", [3, 17, 92])
    def test_scan_as_of_equals_naive_oracle(self, seed):
        db = _db()
        table = _table(db)
        rng = random.Random(seed)
        marks = _grow(db, table, rng, keys=50, rounds=5)
        for ts in marks:
            expected = _naive_scan_as_of(db, table, ts)
            assert table.scan_as_of(ts) == expected
            # Second pass rides the warmed route/page-view caches.
            assert table.scan_as_of(ts) == expected

    def test_scan_range_as_of_equals_oracle_slice(self):
        db = _db()
        table = _table(db)
        marks = _grow(db, table, random.Random(7), keys=60, rounds=4)
        for ts in marks[::2]:
            oracle = [r for r in _naive_scan_as_of(db, table, ts)
                      if 10 <= r["k"] <= 40]
            from repro.concurrency.transaction import TxnMode

            txn = db.txn_mgr.begin(TxnMode.AS_OF, as_of=ts)
            try:
                assert table.scan_range(txn, 10, 40) == oracle
            finally:
                db.txn_mgr.commit(txn)

    def test_streaming_iterators_are_lazy_and_complete(self):
        db = _db()
        table = _table(db)
        marks = _grow(db, table, random.Random(5), keys=40, rounds=3)
        it = table.scan_as_of_iter(marks[-1])
        first = next(it)
        rest = list(it)
        assert [first] + rest == table.scan_as_of(marks[-1])
        with db.transaction() as txn:
            rows = list(table.scan_range_iter(txn, 5, 15))
            assert rows == table.scan_range(txn, 5, 15)

    def test_concurrent_uncommitted_writer_stays_invisible(self):
        db = _db()
        table = _table(db)
        marks = _grow(db, table, random.Random(11), keys=30, rounds=3)
        writer = db.txn_mgr.begin()
        table.update(writer, 3, {"v": "in-flight"})
        ts = db.clock.now()
        rows = {r["k"]: r["v"] for r in table.scan_as_of(ts)}
        assert rows[3] != "in-flight"
        assert table.scan_as_of(ts) == _naive_scan_as_of(db, table, ts)
        db.txn_mgr.abort(writer)

    def test_mid_scan_abort_of_concurrent_writer(self):
        """A writer aborting while a streaming scan is suspended mid-way
        must not corrupt the scan: re-running it matches the oracle."""
        db = _db()
        table = _table(db)
        _grow(db, table, random.Random(13), keys=40, rounds=3)
        writer = db.txn_mgr.begin()
        table.update(writer, 35, {"v": "doomed"})
        ts = db.clock.now()
        it = table.scan_as_of_iter(ts)
        consumed = [next(it) for _ in range(5)]
        db.txn_mgr.abort(writer)
        remaining = list(it)
        full = consumed + remaining
        assert {r["k"] for r in full} == {
            r["k"] for r in _naive_scan_as_of(db, table, ts)
        }
        # A fresh scan after the abort is exactly the oracle.
        assert table.scan_as_of(ts) == _naive_scan_as_of(db, table, ts)

    def test_history_matches_plain_engine(self):
        cached = _db()
        plain = ImmortalDB(buffer_pages=4096, use_tsb_index=True)
        rows_c, rows_p = _table(cached), _table(plain)
        for db, table in ((cached, rows_c), (plain, rows_p)):
            _grow(db, table, random.Random(29), keys=25, rounds=5)
        for k in range(25):
            assert rows_c.history(k) == rows_p.history(k)

    def test_returned_rows_are_private_copies(self):
        """Memoized decoding must never let one caller's mutation leak."""
        db = _db()
        table = _table(db)
        marks = _grow(db, table, random.Random(31), keys=10, rounds=2)
        first = table.scan_as_of(marks[-1])
        first[0]["v"] = "mutated by caller"
        again = table.scan_as_of(marks[-1])
        assert again[0]["v"] != "mutated by caller"
        with db.transaction() as txn:
            table.scan(txn)         # stamps the chains: their rows memoize
        memoized = table.scan_as_of(marks[-1])
        for _, row in table.history(memoized[0]["k"]):  # read from the memo
            if row is not None:
                row["v"] = "mutated by caller"
        assert table.scan_as_of(marks[-1]) == memoized


class TestRouteCacheInvalidation:
    def test_no_stale_route_after_heavy_churn(self):
        """Interleave scans with churn that forces time and key splits;
        every scan must match the oracle (i.e. no stale cached route)."""
        db = _db()
        table = _table(db)
        rng = random.Random(41)
        marks: list = []
        live: set[int] = set()
        for _ in range(6):
            marks.extend(_grow(db, table, rng, keys=45, rounds=1, live=live))
            for ts in marks:
                assert table.scan_as_of(ts) == _naive_scan_as_of(
                    db, table, ts
                )

    def test_crash_discards_cached_routes(self):
        """Recovery must rebuild routing from durable state, not serve
        pre-crash cached routes."""
        db = _db()
        table = _table(db)
        marks = _grow(db, table, random.Random(43), keys=40, rounds=4)
        warm = {ts: table.scan_as_of(ts) for ts in marks}
        assert len(db.route_cache) > 0
        db.crash_and_recover()
        assert len(db.route_cache) == 0
        table = db.tables["t"]
        for ts, rows in warm.items():
            assert table.scan_as_of(ts) == _naive_scan_as_of(db, table, ts)

    def test_failpoints_fire_on_hit_miss_invalidate(self):
        reg = FailpointRegistry()
        reg.trace_on()
        with installed(reg):
            db = _db()
            table = _table(db)
            rng = random.Random(47)
            live: set[int] = set()
            marks = _grow(db, table, rng, keys=40, rounds=4, live=live)
            table.scan_as_of(marks[0])
            table.scan_as_of(marks[0])
            # More churn splits cached leaves, which must invalidate or
            # re-seed their routes; the follow-up scan still matches.
            marks += _grow(db, table, rng, keys=40, rounds=3, live=live)
            assert table.scan_as_of(marks[0]) == _naive_scan_as_of(
                db, table, marks[0]
            )
        trace = reg.trace or []
        assert "asof.route.miss" in trace
        assert "asof.route.hit" in trace
        stats = db.asof_stats
        assert stats.route_cache_hits > 0
        assert stats.route_cache_misses > 0

    def test_route_counters_reported_in_engine_stats(self):
        db = _db()
        table = _table(db)
        marks = _grow(db, table, random.Random(53), keys=30, rounds=3)
        table.scan_as_of(marks[-1])
        table.scan_as_of(marks[-1])
        s = db.stats()
        for key in ("asof_page_reads", "asof_chain_steps",
                    "route_cache_hits", "route_cache_misses"):
            assert key in s
        assert s["route_cache_hits"] > 0
        assert s["asof_page_reads"] > 0

    def test_cache_disabled_engine_has_no_route_counters_activity(self):
        """Default engines never touch the cache: counter identity with the
        original implementation is what keeps the figure benchmarks stable."""
        db = ImmortalDB(buffer_pages=1024)
        table = _table(db)
        _grow(db, table, random.Random(59), keys=20, rounds=2)
        table.scan_as_of(db.clock.now())
        s = db.stats()
        assert db.route_cache is None
        assert s["route_cache_hits"] == 0
        assert s["route_cache_misses"] == 0


class TestRouteCacheUnit:
    def test_route_matches_page_for_time_at_interval_edges(self):
        db = _db()
        table = _table(db)
        marks = _grow(db, table, random.Random(61), keys=40, rounds=5)
        cache = AsOfRouteCache(db.buffer, AsOfStats())
        probe_stats = AsOfStats()
        for leaf, _, _ in table.btree.leaves_with_bounds():
            probes = [leaf.split_ts] + marks
            for ts in probes:
                want = page_for_time(db.buffer, leaf, ts, probe_stats)
                got = cache.route(leaf, ts)
                assert (got is None) == (want is None)
                if got is not None:
                    assert got.page_id == want.page_id

    def test_eviction_bounds_cache_size(self):
        db = _db()
        table = _table(db)
        _grow(db, table, random.Random(67), keys=30, rounds=3)
        cache = AsOfRouteCache(db.buffer, AsOfStats(), max_entries=2)
        leaves = [leaf for leaf, _, _ in table.btree.leaves_with_bounds()]
        for leaf in leaves:
            cache.route(leaf, db.clock.now())
        assert len(cache) <= 2

    def test_full_caches_evict_only_their_oldest_entry(self):
        """One page over the cap costs one rebuild, not all of them (both
        caches used to ``clear()`` when full)."""
        db = ImmortalDB(buffer_pages=4096)
        table = _table(db)
        with db.transaction() as txn:
            for k in range(400):
                table.insert(txn, {"k": k, "v": "x" * 120})
        leaves = [leaf for leaf, _, _ in table.btree.leaves_with_bounds()]
        assert len(leaves) >= 6
        now = db.clock.now()
        stats = AsOfStats()
        routes = AsOfRouteCache(db.buffer, stats, max_entries=4)
        views = PageViewCache(stats, max_pages=4)
        first = [views.view(leaf) for leaf in leaves[:4]]
        for leaf in leaves[:4]:
            routes.route(leaf, now)
        assert stats.route_cache_misses == 4
        # A fifth page pushes out the first and nothing else.
        views.view(leaves[4])
        routes.route(leaves[4], now)
        assert all(
            views.view(leaf) is view
            for leaf, view in zip(leaves[1:4], first[1:])
        )
        for leaf in leaves[1:5]:
            routes.route(leaf, now)
        assert (stats.route_cache_misses, stats.route_cache_hits) == (5, 4)
        assert len(routes) == 4 and len(views._views) == 4
        assert views.view(leaves[0]) is not first[0]
        routes.route(leaves[0], now)
        assert stats.route_cache_misses == 6
