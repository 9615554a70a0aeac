"""One read path, two profiles, two history routes: all answer alike.

``paper`` reads history the way the paper describes it — walk the
time-split chain, walk the record's chain, compare ``Timestamp``s.
``tuned`` reads it through the as-of route cache, lazy per-key chain views
with int timestamps and a row memo, and archive blocks that build their
versions on demand.  A third engine is ``tuned`` with ``use_tsb_index``:
it routes a historical read through the TSB-tree's memoized search instead
of the route cache (and, having an index whose terms hold raw page ids,
keeps its history out of the archive).  The same seeded workload runs on
all three — inserts, updates, deletes and re-inserts, enough volume for
key and time splits, a writer left open across the reads, archive
migration behind a two-block LRU on the tuned side — and every historical
read must come out equal, at every mark, twice over (the second pass reads
through warm views and memos).

Tier-1 runs three seeds; the nightly CI job runs fifty
(``IMMORTAL_READPATH_SEEDS=50``).
"""

from __future__ import annotations

import os
import random

import pytest

from repro import PROFILES, ImmortalDB
from repro.concurrency.transaction import TxnMode

SEEDS = int(os.environ.get("IMMORTAL_READPATH_SEEDS", "3"))
KEYS = 90
ARCHIVE = dict(cold_ms=400.0, pages_per_step=64, max_cached_pages=2)


def _value(rng: random.Random) -> str:
    return "%05d" % rng.randrange(10**5) + "x" * rng.choice((10, 60, 300))


class Twin:
    """A ``paper`` engine, a ``tuned`` + archive engine and a ``tuned`` +
    TSB-index engine fed the same ops."""

    def __init__(self, directory) -> None:
        self.dbs = [
            ImmortalDB(buffer_pages=256),
            ImmortalDB(str(directory / "db.pages"), buffer_pages=256,
                       archive=dict(ARCHIVE), **PROFILES["tuned"]),
            ImmortalDB(buffer_pages=256, use_tsb_index=True,
                       **PROFILES["tuned"]),
        ]
        self.tables = [
            db.create_table("kv", [("k", "int"), ("v", "text")], key="k",
                            immortal=True)
            for db in self.dbs
        ]
        self.marks: list = []

    def write(self, ops: list[tuple]) -> None:
        """One transaction of (kind, key, value) on every engine."""
        for db, table in zip(self.dbs, self.tables):
            with db.transaction() as txn:
                self._apply(table, txn, ops)

    @staticmethod
    def _apply(table, txn, ops) -> None:
        for kind, key, value in ops:
            if kind == "insert":
                table.insert(txn, {"k": key, "v": value})
            elif kind == "update":
                table.update(txn, key, {"v": value})
            else:
                table.delete(txn, key)

    def open_writer(self, ops: list[tuple]) -> list:
        txns = []
        for db, table in zip(self.dbs, self.tables):
            txn = db.begin()
            self._apply(table, txn, ops)
            txns.append(txn)
        return txns

    def mark(self, *, checkpoint: bool) -> None:
        for db in self.dbs:
            db.advance_time(100)
            if checkpoint:
                db.checkpoint()       # the tuned side migrates cold history
        now = {db.now() for db in self.dbs}
        assert len(now) == 1, "the clocks drifted apart"
        self.marks.append(now.pop())
        for db in self.dbs:
            db.advance_time(100)

    def same(self, read) -> None:
        """``read(db, table)`` must give ``paper``'s answer on every engine."""
        paper, tuned, indexed = (
            read(db, t) for db, t in zip(self.dbs, self.tables)
        )
        assert tuned == paper
        assert indexed == paper

    def close(self) -> None:
        for db in self.dbs:
            db.close()


def _run_workload(twin: Twin, rng: random.Random) -> set[int]:
    live: set[int] = set()
    for base in range(0, KEYS, 15):
        twin.write([("insert", k, _value(rng)) for k in range(base, base + 15)])
        live.update(range(base, base + 15))
    twin.mark(checkpoint=False)
    for round_no in range(14):
        for _ in range(60):
            # A hot head takes most updates: its chains time-split pages;
            # the long values among the rest key-split them.
            key = rng.randrange(6) if rng.random() < 0.5 else rng.randrange(KEYS)
            if key not in live:
                twin.write([("insert", key, _value(rng))])
                live.add(key)
            elif rng.random() < 0.08 and key >= 6:
                twin.write([("delete", key, None)])
                live.discard(key)
            else:
                twin.write([("update", key, _value(rng))])
        twin.mark(checkpoint=round_no % 3 == 2)
    return live


def _check_reads(twin: Twin, rng: random.Random) -> None:
    marks = twin.marks
    for mark in marks:
        twin.same(lambda db, t: [t.read_as_of(mark, k) for k in range(KEYS)])
        twin.same(lambda db, t: t.scan_as_of(mark))
        low = rng.randrange(KEYS)
        high = low + rng.randrange(25)

        def ranged(db, table, mark=mark, low=low, high=high):
            with db.transaction(as_of=mark) as txn:
                return (table.scan_range(txn, low, high),
                        table.scan_range(txn, None, high),
                        table.scan_range(txn, low, None))

        twin.same(ranged)

    def snapshot_range(db, table):
        with db.transaction(TxnMode.SNAPSHOT) as txn:
            return table.scan_range(txn, 3, 40), table.scan(txn)

    twin.same(snapshot_range)
    for key in range(KEYS):
        twin.same(lambda db, t: t.history(key))
    for key in rng.sample(range(KEYS), 25):
        t_low, t_high = sorted(rng.sample(marks, 2))
        twin.same(lambda db, t: (t.history(key, t_low, t_high),
                                 t.history(key, t_low=t_low),
                                 t.history(key, t_high=t_high)))
    for _ in range(6):
        t_old, t_new = sorted(rng.sample(marks, 2))
        twin.same(lambda db, t: t.changes_between(t_old, t_new))
    # Marks fall between commits; a version's own start time is the
    # inclusive edge of every bisect on the way.
    for key in rng.sample(range(KEYS), 12):
        for start, row in twin.tables[0].history(key):
            twin.same(lambda db, t: t.read_as_of(start, key))
            assert twin.tables[1].read_as_of(start, key) == row
        twin.same(lambda db, t: t.scan_as_of(start))
        twin.same(lambda db, t: t.history(key, t_low=start, t_high=start))


@pytest.mark.parametrize("seed", range(SEEDS))
def test_paper_and_tuned_read_paths_agree(seed, tmp_path):
    rng = random.Random(f"readpath/{seed}")
    twin = Twin(tmp_path)
    try:
        live = _run_workload(twin, rng)
        tuned_table = twin.tables[1].btree.stats
        assert tuned_table.time_splits >= 5 and tuned_table.key_splits >= 2
        archive = twin.dbs[1].archive
        assert archive.stats.pages_migrated > ARCHIVE["max_cached_pages"]
        # A writer left open across every read: its versions are TID-marked
        # heads (and one brand-new key) no historical reader may see.
        writers = twin.open_writer([
            ("update", 0, "open"), ("update", max(live), "open"),
            ("insert", KEYS + 1, "open"),
        ])
        for _ in range(2):      # cold views and memos, then warm ones
            _check_reads(twin, random.Random(f"reads/{seed}"))
        assert archive.stats.block_reads > archive.stats.pages_migrated
        assert len(archive._cache) <= ARCHIVE["max_cached_pages"]
        for db, txn in zip(twin.dbs, writers):
            db.commit(txn)
        twin.mark(checkpoint=True)
        _check_reads(twin, random.Random(f"after/{seed}"))
    finally:
        twin.close()
