"""Tests for the lazy timestamping protocol (paper Section 2.2)."""

from __future__ import annotations

import pytest

from repro.access.btree import BTree
from repro.clock import SimClock, Timestamp
from repro.errors import UnknownTransactionError
from repro.storage.buffer import BufferPool
from repro.storage.disk import InMemoryDisk
from repro.storage.page import DataPage, decode_page
from repro.storage.record import RecordVersion
from repro.timestamp.manager import TimestampManager
from repro.timestamp.ptt import PersistentTimestampTable
from repro.wal.log import LogManager
from repro.wal.records import CommitTxn


@pytest.fixture
def env():
    class Env:
        def __init__(self):
            self.disk = InMemoryDisk()
            self.buffer = BufferPool(self.disk, capacity=64)
            self.log = LogManager()
            self.clock = SimClock()
            self.ptt = PersistentTimestampTable(self.buffer, self.log)
            self.tsmgr = TimestampManager(self.log, self.buffer, self.ptt)

        def log_commit(self, tid: int, ts: Timestamp, persistent: bool) -> CommitTxn:
            """Append the commit record as the transaction manager does."""
            rec = CommitTxn(
                tid=tid, ttime=ts.ttime, sn=ts.sn,
                page_id=self.tsmgr.on_commit_prepare(
                    tid, ts, persistent=persistent),
            )
            self.log.append(rec)
            return rec

        def commit(self, tid: int, *, persistent: bool = True) -> Timestamp:
            ts = self.clock.next_timestamp()
            rec = self.log_commit(tid, ts, persistent)
            self.log.force()
            self.tsmgr.on_commit(rec, ts)
            return ts

    return Env()


def new_page(env, *, immortal=True) -> DataPage:
    return env.buffer.new_page(
        lambda pid: DataPage(pid, immortal=immortal, table_id=1)
    )


class TestFourStages:
    def test_commit_writes_single_ptt_entry(self, env):
        env.tsmgr.on_begin(1)
        for _ in range(5):
            env.tsmgr.on_version_created(1, 1, 2, b"k")
        ts = env.commit(1)
        assert env.ptt.lookup(1) == ts
        assert env.tsmgr.stats.ptt_inserts == 1

    def test_resolve_active_transaction(self, env):
        env.tsmgr.on_begin(1)
        assert env.tsmgr.resolve(1) == (None, False)

    def test_resolve_committed_from_vtt(self, env):
        env.tsmgr.on_begin(1)
        ts = env.commit(1)
        assert env.tsmgr.resolve(1) == (ts, True)
        assert env.tsmgr.stats.vtt_hits == 1

    def test_resolve_falls_back_to_ptt_after_crash(self, env):
        env.tsmgr.on_begin(1)
        ts = env.commit(1)
        env.tsmgr.rebuild_after_crash()   # VTT is volatile
        assert env.tsmgr.resolve(1) == (ts, True)
        assert env.tsmgr.stats.ptt_lookups == 1
        # ... and the answer is now cached with undefined refcount.
        assert env.tsmgr.vtt.get(1).refcount is None

    def test_resolve_unknown_tid_raises(self, env):
        with pytest.raises(UnknownTransactionError):
            env.tsmgr.resolve(404)

    def test_stamping_decrements_refcount(self, env):
        page = new_page(env)
        env.tsmgr.on_begin(1)
        for key in (b"a", b"b"):
            page.insert_version(RecordVersion.new(key, b"v", 1))
            env.tsmgr.on_version_created(1, 1, page.page_id, key)
        ts = env.commit(1)
        assert env.tsmgr.stamp_page(page) == 2
        assert page.head(b"a").timestamp == ts
        entry = env.tsmgr.vtt.get(1)
        assert entry.refcount == 0 and entry.done_lsn is not None

    def test_stamping_skips_active_transactions(self, env):
        page = new_page(env)
        env.tsmgr.on_begin(1)
        page.insert_version(RecordVersion.new(b"a", b"v", 1))
        env.tsmgr.on_version_created(1, 1, page.page_id, b"a")
        assert env.tsmgr.stamp_page(page) == 0
        assert not page.head(b"a").is_timestamped


class TestFlushTrigger:
    def test_flush_stamps_committed_versions(self, env):
        """Pages never reach disk with committed-but-unstamped records."""
        page = new_page(env)
        env.tsmgr.on_begin(1)
        page.insert_version(RecordVersion.new(b"a", b"v", 1))
        env.tsmgr.on_version_created(1, 1, page.page_id, b"a")
        ts = env.commit(1)
        env.buffer.flush_page(page.page_id)
        decoded = decode_page(env.disk.read_page(page.page_id))
        assert decoded.head(b"a").is_timestamped
        assert decoded.head(b"a").timestamp == ts

    def test_flush_leaves_active_tids_in_place(self, env):
        page = new_page(env)
        env.tsmgr.on_begin(1)
        page.insert_version(RecordVersion.new(b"a", b"v", 1))
        env.tsmgr.on_version_created(1, 1, page.page_id, b"a")
        env.buffer.flush_page(page.page_id)
        decoded = decode_page(env.disk.read_page(page.page_id))
        assert not decoded.head(b"a").is_timestamped
        assert decoded.head(b"a").tid == 1


class TestGarbageCollection:
    def _one_stamped_txn(self, env, tid: int):
        page = new_page(env)
        env.tsmgr.on_begin(tid)
        page.insert_version(RecordVersion.new(b"a", b"v", tid))
        env.tsmgr.on_version_created(tid, 1, page.page_id, b"a")
        env.commit(tid)
        env.tsmgr.stamp_page(page)
        return page

    def test_gc_waits_for_redo_scan_point(self, env):
        self._one_stamped_txn(env, 1)
        done_lsn = env.tsmgr.vtt.get(1).done_lsn
        # Redo scan start point has not passed the done LSN yet: no GC.
        assert env.tsmgr.garbage_collect(done_lsn) == 0
        assert env.ptt.lookup(1) is not None
        # Once it passes, the entry goes.
        assert env.tsmgr.garbage_collect(done_lsn + 1) == 1
        assert env.ptt.lookup(1) is None
        assert 1 not in env.tsmgr.vtt

    def test_gc_skips_entries_with_pending_stamps(self, env):
        page = new_page(env)
        env.tsmgr.on_begin(1)
        page.insert_version(RecordVersion.new(b"a", b"v", 1))
        env.tsmgr.on_version_created(1, 1, page.page_id, b"a")
        env.commit(1)
        # Not stamped yet: no done_lsn, never collected.
        assert env.tsmgr.garbage_collect(10**9) == 0
        assert env.ptt.lookup(1) is not None

    def test_gc_logs_ptt_deletes(self, env):
        from repro.wal.records import PTTDelete

        self._one_stamped_txn(env, 1)
        env.tsmgr.garbage_collect(env.log.end_lsn + 1)
        deletes = [r for r in env.log.records_from(0) if isinstance(r, PTTDelete)]
        assert [d.subject_tid for d in deletes] == [1]

    def test_undefined_refcount_is_never_collected(self, env):
        """Post-crash entries stay in the PTT forever (paper accepts this)."""
        env.tsmgr.on_begin(1)
        env.commit(1)
        env.tsmgr.rebuild_after_crash()
        env.tsmgr.resolve(1)  # caches with undefined refcount
        assert env.tsmgr.garbage_collect(10**9) == 0
        assert env.ptt.lookup(1) is not None


class TestSnapshotTransactions:
    def test_snapshot_txn_gets_no_ptt_entry(self, env):
        env.tsmgr.on_begin(1, is_snapshot=True)
        env.commit(1, persistent=False)
        assert env.ptt.lookup(1) is None

    def test_snapshot_entry_dropped_at_refcount_zero(self, env):
        page = new_page(env, immortal=False)
        env.tsmgr.on_begin(1, is_snapshot=True)
        page.insert_version(RecordVersion.new(b"a", b"v", 1))
        env.tsmgr.on_version_created(1, 1, page.page_id, b"a")
        env.commit(1, persistent=False)
        assert 1 in env.tsmgr.vtt
        env.tsmgr.stamp_page(page)
        # Paper: "we can drop the VTT entry for a snapshot transaction
        # immediately upon its reference count going to zero."
        assert 1 not in env.tsmgr.vtt


class TestRecoveryFallback:
    def test_conventional_pages_can_use_fallback(self, env):
        page = new_page(env, immortal=False)
        page.insert_version(RecordVersion.new(b"a", b"v", 77))
        env.tsmgr.recovery_fallback = Timestamp(123, 0)
        assert env.tsmgr.stamp_page(page) == 1
        assert page.head(b"a").timestamp == Timestamp(123, 0)

    def test_immortal_pages_never_fall_back(self, env):
        page = new_page(env, immortal=True)
        page.insert_version(RecordVersion.new(b"a", b"v", 77))
        env.tsmgr.recovery_fallback = Timestamp(123, 0)
        with pytest.raises(UnknownTransactionError):
            env.tsmgr.stamp_page(page)


# ---------------------------------------------------------------------------
# The stamping a time split runs, against its predecessor.
#
# ``stamp_page_for_split`` offers each TID-marked version once, offers none
# more of a writer found still active, and forces the log once for the
# writers whose commit record was not durable yet, offering only their
# versions again.  What follows is the sequence it replaced — a stamping
# pass, a walk for committed writers, a force and a second full pass, all
# run again by the B-tree until a pass stamped nothing, with the
# ``stamp_version`` of that time — kept verbatim as the reference: both must
# stamp the same versions and move every counter and VTT entry alike.
# ---------------------------------------------------------------------------


def reference_stamp_version(tsmgr, version, *, immortal=True) -> bool:
    tid = version.tid
    ts, committed = tsmgr.resolve_with_fallback(tid, immortal=immortal)
    if not committed:
        return False
    entry = tsmgr.vtt.get(tid)
    if entry is not None and entry.commit_lsn is not None \
            and entry.commit_lsn >= tsmgr.log.flushed_lsn:
        return False
    version.stamp(ts)
    tsmgr.stats.stamps += 1
    if entry is not None:
        remaining = tsmgr.vtt.decrement(tid, tsmgr.log.end_lsn)
        if remaining == 0 and entry.is_snapshot:
            tsmgr.vtt.drop(tid)
    return True


def reference_stamp_page(tsmgr, page) -> int:
    if not page.has_unstamped_records():
        return 0
    stamped = 0
    for version in page.unstamped_versions():
        if reference_stamp_version(tsmgr, version, immortal=page.immortal):
            stamped += 1
    if stamped:
        tsmgr.buffer.mark_dirty_page(page)
    return stamped


def reference_committed_unstamped(tsmgr, page) -> bool:
    for version in page.unstamped_versions():
        entry = tsmgr.vtt.get(version.tid)
        if entry is not None:
            if not entry.is_active:
                return True
        elif tsmgr.ptt.lookup(version.tid) is not None:
            return True
    return False


def reference_stamp_page_for_split(tsmgr, page) -> int:
    stamped = reference_stamp_page(tsmgr, page)
    if page.has_unstamped_records() \
            and reference_committed_unstamped(tsmgr, page):
        tsmgr.log.force()
        stamped += reference_stamp_page(tsmgr, page)
    return stamped


def reference_split_stamping(tsmgr, page) -> None:
    """The trigger as ``BTree._try_time_split`` ran it."""
    reference_stamp_page_for_split(tsmgr, page)
    while reference_stamp_page_for_split(tsmgr, page):
        pass


DURABLE, BUFFERED, ACTIVE, SNAPSHOT, RESTARTED = 1, 2, 3, 4, 5


def four_writers_leaf(env) -> tuple[BTree, DataPage]:
    """A B-tree whose one leaf holds versions of a committed writer whose
    commit is durable, one whose commit record is still in the group-commit
    buffer, an active one and a snapshot writer (committed, commit not
    durable) — plus one committed before a restart, known only to the PTT."""
    btree = BTree(env.buffer, env.log, env.clock, table_id=1, immortal=True)
    btree.stamp_page = env.tsmgr.stamp_page_for_split
    page = btree.search_leaf(b"")
    writes = {            # writer -> the keys it wrote, in commit order
        RESTARTED: [b"a", b"c"],
        DURABLE: [b"a", b"b", b"d"],
        SNAPSHOT: [b"b", b"e", b"f"],
        BUFFERED: [b"a", b"c", b"e"],
        ACTIVE: [b"b", b"c", b"d", b"f"],
    }
    for tid, keys in writes.items():
        env.tsmgr.on_begin(tid, is_snapshot=tid == SNAPSHOT)
        for key in keys:
            page.insert_version(RecordVersion.new(key, b"v%d" % tid, tid))
            env.tsmgr.on_version_created(tid, 1, page.page_id, key)
        if tid == ACTIVE:
            continue
        ts = env.clock.next_timestamp()
        persistent = tid != SNAPSHOT
        rec = env.log_commit(tid, ts, persistent)
        if tid in (DURABLE, RESTARTED):
            env.log.force()
        env.tsmgr.on_commit(rec, ts)
    env.tsmgr.vtt.drop(RESTARTED)      # as a restart leaves it: PTT only
    return btree, page


def observe(env, page) -> dict:
    stats = env.tsmgr.stats
    return {
        "versions": [(v.key, v.ttime_field, v.sn) for v in page.versions],
        "counters": (stats.stamps, stats.vtt_hits, stats.ptt_lookups,
                     env.ptt.lookups),
        "forces": env.log.stats.forces,
        "vtt": {tid: (entry.refcount, entry.done_lsn, entry.ts)
                for tid, entry in env.tsmgr.vtt.items()},
    }


class TestSplitStampingMatchesItsPredecessor:
    @pytest.fixture
    def pair(self, env):
        reference = type(env)()
        return env, reference

    def test_a_time_split_stamps_as_its_predecessor_did(self, pair):
        env, reference = pair
        btree, page = four_writers_leaf(env)
        old_page = four_writers_leaf(reference)[1]
        assert observe(env, page) == observe(reference, old_page)
        forces = env.log.stats.forces
        writers = [version.tid for version in page.versions]

        offers: list[int] = []
        stamp_version = env.tsmgr.stamp_version

        def counted(version, **kwargs):
            offers.append(id(version))
            return stamp_version(version, **kwargs)

        env.tsmgr.stamp_version = counted
        reference_split_stamping(reference.tsmgr, old_page)
        assert btree._try_time_split([], page) is not None

        new, old = observe(env, page), observe(reference, old_page)
        assert new == old
        assert new["forces"] == forces + 1
        # Everything committed is stamped; the active writer's are not.
        tids = {v.tid for v in page.versions if not v.is_timestamped}
        assert tids == {ACTIVE}
        assert SNAPSHOT not in env.tsmgr.vtt      # dropped at refcount zero
        # Each version is offered once, but a version whose commit was not
        # durable is offered again after the force — and an active writer's
        # only until the first of them declines.
        by_writer: dict[int, list[int]] = {}
        for tid, version in zip(writers, page.versions):
            by_writer.setdefault(tid, []).append(offers.count(id(version)))
        assert by_writer == {
            RESTARTED: [1, 1], DURABLE: [1, 1, 1], SNAPSHOT: [2, 2, 2],
            BUFFERED: [2, 2, 2], ACTIVE: [1, 0, 0, 0],
        }

    def test_nothing_pending_forces_nothing(self, pair):
        env, reference = pair
        for e in pair:
            e.tsmgr.on_begin(1)
        page, old_page = new_page(env), new_page(reference)
        for e, p in ((env, page), (reference, old_page)):
            p.insert_version(RecordVersion.new(b"a", b"v", 1))
            e.tsmgr.on_version_created(1, 1, p.page_id, b"a")
            e.commit(1)
            p.insert_version(RecordVersion.new(b"b", b"w", 2))
            e.tsmgr.on_begin(2)
            e.tsmgr.on_version_created(2, 1, p.page_id, b"b")
        forces = env.log.stats.forces
        reference_split_stamping(reference.tsmgr, old_page)
        assert env.tsmgr.stamp_page_for_split(page) == 1
        assert observe(env, page) == observe(reference, old_page)
        assert env.log.stats.forces == forces
