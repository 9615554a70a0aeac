"""Byte identity of the versioned-update path.

The write path (``Table`` → ``BTree`` → ``DataPage`` → ``TimestampManager``
→ ``LockManager`` → ``TransactionManager`` → ``LogManager``) is tuned for
Python call count, never for behaviour: one seeded workload must leave the
same page file, the same WAL file, the same ``db.stats()`` and the same
sequence of ``fire()`` crossings as it did before the tuning.  The constants
below were recorded from the commit *before* the call-count diet (PR 13's
tip) with ``python tests/test_hotpath_identity.py``; a change that moves any
of them has changed what the engine writes or when it can crash, and every
figure benchmark and crash sweep with it.

Re-recorded once since, narrowly (PR 15): ``stats()`` lost the
``occ_validation_failures`` key with the mode it counted, and the tuned
case's WAL digest moved because a structure modification's pages now enter
the pool after their log record, dirty with *its* LSN — the two
non-flushing checkpoints' dirty-page tables carry those recLSNs where they
carried 0.  Page-file digest, every counter and every crossing are the
recording's.

And once more, narrower still (PR 16): ``history()`` on the tuned engine
walks the as-of route cache's page list instead of the pages' own history
links, so the one ``history(0)`` call of the workload is one more
``asof.route.hit`` crossing — ``route_cache_hits`` 15 → 16, ``crossings``
7306 → 7307 and their digest.  Both file digests, every other counter and
name, and the whole ``paper`` case are the recording's.

And once deliberately, whole (PR 20, the re-recording ROADMAP item 2
reserved): a full page is now split by what is on it.  A page of single
live versions key splits without the time-split attempt that used to come
first, and a history page id is taken only by a split that is then logged —
so the ids failed attempts used to leak are gone, every later page has a
lower id, and both file digests move.  Of ``stats()`` four counters moved,
each for that reason: ``vtt_hits`` 1534 → 1406 (the skipped attempts'
stamping passes made 128 more VTT lookups than the lazy stamping that now
does their work; ``stamps`` is unchanged at 966), ``log_forces`` 120 → 117
(three of those passes forced the log to stamp a group-commit batch;
``txn.groupcommit.force`` 90 → 91 picks one up, ``crossings`` 7307 → 7299),
and ``disk_sequential_writes`` 37 → 41 /
``flush_coalesced_writes`` 31 → 35 (dense ids: four more writes land next
to their predecessor).  On ``paper`` only ``disk_sequential_writes``
37 → 41 moved; every crossing is the recording's.

And once by deletion alone (PR 21): ``stats()`` lost the four keys that
counted the archive's runs, merges and compactions — ``archive_runs``,
``archive_merges``, ``archive_compactions``, ``archive_bytes_reclaimed`` —
with the machinery they counted.  Those four keys are the whole diff: both
file digests, every other counter and every crossing of both cases are the
recording's (the workload runs with the archive off).

And once for the PTT's structure: the PTT logs its splits like the
other trees, its commit and delete records name their leaf, and a new
database logs its PTT root.  The workload's GC waits for the last
checkpoint, so the PTT reaches 770 entries: it grows its root and splits
twice.  On both cases: ``log_appends`` +4 and ``log_image_records`` 42 →
46 (the root's birth before tracing starts, then the growth and the two
splits: ``log.append`` crossings +3, ``crossings`` +3 and their digest),
``log_image_bytes`` +73,912 (their nine page images), ``log_bytes`` and
``log_forced_bytes`` by that plus 3 bytes per commit record (a 4-byte leaf
id where a 1-byte flag was), 4 per ``PTTDelete`` and 8 per checkpoint end
(page count and free-list length), ``log_forces`` +1 (a new database forces
the PTT root's record before the boot page names it), ``buffer_hits``
+1,591 (a commit's insert and a GC delete fetch their leaf once to find it
and once to apply the record).  Both file digests move with the records
and with the PTT nodes' LSNs; every other counter and crossing name is the
recording's.

And once for the buffer pool alone: 2Q, batched write-back and page
checksums stopped being options, so the ``paper`` engine writes back the
way ``tuned`` always has.  Only its write-back moved: of the 46 page
writes, the five of the boot page stay single-page flushes
(``buffer.flush.*`` 46 → 5 each) and the other 41 go out in 6 batches
(``buffer.flushbatch.submit``/``done`` 6, ``.write`` 41; ``flush_batches``
0 → 6), 35 of them next to the previous id in their batch
(``flush_coalesced_writes`` 0 → 35); ``crossings`` 7,730 → 7,660 and
their digest.  The pool never evicts here, and ``paper`` forces the log
at every commit, so each batch's one force finds the log durable:
``log_forces``, ``disk_writes``, every other counter and crossing name are
the recording's.  The ``tuned`` case ran these settings already and is
unedited.

And once for the boot page, on both cases alike: it became a logged page.
Each catalog change is one image record carrying the boot page with the
pages it creates (a new database's PTT root, a new table's root leaf), in
place of the root's own record, and a checkpoint no longer writes the page.
So ``log_image_bytes`` +24,600 (three boot-page images of 8,192 bytes and
their 8-byte heads, in records that were there already: ``log_appends``,
``log_image_records`` and ``log_forces`` are the recording's), and
``log_bytes`` / ``log_forced_bytes`` +24,660: that, 12 bytes per checkpoint
end for the clock's high water (three), and 12 per dirty-page-table entry
for page 0 in the two non-flushing checkpoints, which find it dirty where
it used to be clean.  Six boot-page writes (the new database's, one per
``create_table``, one per checkpoint) become the flushing checkpoint's one:
``disk_writes`` and ``page_flushes`` 47 → 42, ``flush_coalesced_writes``
35 → 36 (page 0 goes out in a batch, next to page 1), and the one-page
write-back is gone from the run (``buffer.flush.begin/write/end`` 5 → 0,
``disk.write_page`` 46 → 42, ``buffer.flushbatch.write`` 41 → 42).  A new
database no longer reads page 0 (``disk_reads`` 1 → 0).
``engine.save_meta`` is crossed by the two ``create_table`` calls only
(5 → 2), so ``crossings`` falls by 21 (7,660 → 7,639 and 7,302 → 7,281) and
its digest moves; both file digests move with the records and with page
0's LSN, and again because the catalog no longer names the PTT root (it
is always page 1).  Every other counter and crossing name is the
recording's.

And once for the tuned case's two file digests alone: an AS OF point read
(``Table.read_as_of``) became a lookup that draws no TID, so every later
transaction of the workload has a lower TID, and the TIDs its log records
and TID-marked versions carry move.  Every counter, every crossing and the
whole ``paper`` case are the recording's.
"""

from __future__ import annotations

import hashlib
import random

from repro import PROFILES, ImmortalDB
from repro.clock import SimClock
from repro.concurrency.transaction import TxnMode
from repro.errors import KeyNotFoundError
from repro.faults.failpoints import FailpointRegistry, installed

TUNED = dict(PROFILES["tuned"], buffer_pages=256)

KEYS = 160
HOT = 8


def _value(rng: random.Random) -> str:
    return "%06d" % rng.randrange(10**6) + "x" * rng.choice((24, 90, 260))


def run_workload(db: ImmortalDB) -> None:
    """Every kind of write the table layer has, seeded; see the module doc."""
    rng = random.Random(1406)
    kv = db.create_table("kv", [("k", "int"), ("v", "text")], key="k",
                         immortal=True)
    plain = db.create_table("plain", [("k", "int"), ("v", "text")], key="k")
    for base in range(0, KEYS, 16):
        with db.transaction() as txn:
            for k in range(base, base + 16):
                kv.insert(txn, {"k": k, "v": _value(rng)})
        db.advance_time(40)
    with db.transaction() as txn:
        for k in range(12):
            plain.insert(txn, {"k": k, "v": _value(rng)})
    marks = []
    for i in range(700):
        # Hot keys take most updates: their chains fill a page with history
        # (time splits); the long values among the cold ones key split it.
        k = rng.randrange(HOT) if rng.random() < 0.7 else rng.randrange(KEYS)
        with db.transaction() as txn:
            kv.update(txn, k, {"v": _value(rng)})
        if i % 5 == 0:
            db.advance_time(20)
        if i % 9 == 0:
            with db.transaction() as txn:
                kv.read(txn, rng.randrange(KEYS))
        if i % 100 == 50:
            marks.append(db.now())
            db.advance_time(40)
        if i % 70 == 35:
            with db.transaction() as txn:
                plain.update(txn, rng.randrange(12), {"v": _value(rng)})
        if i == 350:
            db.checkpoint()
    # Deletes, a failed update of a deleted key, re-inserts.
    for k in range(20, 40):
        with db.transaction() as txn:
            kv.delete(txn, k)
    txn = db.begin()
    try:
        kv.update(txn, 25, {"v": "gone"})
    except KeyNotFoundError:
        db.abort(txn)
    db.advance_time(20)
    for k in range(20, 30):
        with db.transaction() as txn:
            kv.insert(txn, {"k": k, "v": _value(rng)})
    # An aborted multi-record transaction (rollback through CLRs).
    txn = db.begin()
    for k in (1, 45, 46, KEYS + 5):
        if k < KEYS:
            kv.update(txn, k, {"v": _value(rng)})
        else:
            kv.insert(txn, {"k": k, "v": _value(rng)})
    kv.delete(txn, 47)
    db.abort(txn)
    # A transaction that rewrites its own uncommitted versions.
    with db.transaction() as txn:
        kv.insert(txn, {"k": KEYS + 1, "v": _value(rng)})
        kv.update(txn, KEYS + 1, {"v": _value(rng)})
        kv.update(txn, 2, {"v": _value(rng)})
        kv.update(txn, 2, {"v": _value(rng)})
        kv.delete(txn, KEYS + 1)
    # A snapshot writer next to a serializable one.
    with db.transaction(TxnMode.SNAPSHOT) as txn:
        kv.read(txn, 3)
        kv.update(txn, 3, {"v": _value(rng)})
    # Readers of every flavour (they stamp, route and count).
    for mark in marks:
        kv.read_as_of(mark, rng.randrange(HOT))
        kv.read_as_of(mark, rng.randrange(KEYS))
    assert len(kv.scan_as_of(marks[2])) == KEYS
    assert len(kv.history(0)) > 20
    with db.transaction() as txn:
        assert len(kv.scan(txn)) == KEYS - 10
        assert len(plain.scan(txn)) == 12
    db.checkpoint()
    for i in range(60):
        with db.transaction() as txn:
            kv.update(txn, rng.randrange(HOT), {"v": _value(rng)})
    db.flush_commits()
    db.checkpoint(flush=True)


def observe(db: ImmortalDB) -> dict:
    registry = FailpointRegistry()
    registry.trace_on()
    with installed(registry):
        run_workload(db)
    splits = db.table("kv").btree.stats
    assert splits.time_splits >= 10 and splits.key_splits >= 5, splits
    trace = registry.trace
    return {
        "stats": db.stats(),
        "crossings": len(trace),
        "crossings_sha256": hashlib.sha256("\n".join(trace).encode()).hexdigest(),
        "crossing_names": dict(sorted(registry.hits.items())),
    }


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _log_sha256(path, end_lsn: int) -> str:
    """SHA-256 of the log proper, ``[0, end_lsn)``.  The file is preallocated
    past it; that remainder must be zeros and is not part of the identity."""
    with open(path, "rb") as fh:
        data = fh.read()
    assert not any(data[end_lsn:]), "non-zero bytes past the end of the log"
    return hashlib.sha256(data[:end_lsn]).hexdigest()


def observe_tuned(directory) -> dict:
    path = str(directory / "db.pages")
    db = ImmortalDB(path, clock=SimClock(ms_per_timestamp=5.0), **TUNED)
    seen = observe(db)
    db.close()
    seen["pages_sha256"] = _sha256(path)
    seen["log_sha256"] = _log_sha256(path + ".log", db.log.end_lsn)
    return seen


def observe_paper() -> dict:
    return observe(ImmortalDB())


EXPECTED_TUNED: dict = {
    "stats": {
        "disk_reads": 0,
        "disk_writes": 42,
        "disk_sequential_reads": 0,
        "disk_sequential_writes": 41,
        "log_appends": 3454,
        "log_bytes": 1025837,
        "log_forces": 118,
        "log_forced_bytes": 996607,
        "log_image_records": 46,
        "log_image_bytes": 772123,
        "group_commit_acks": 813,
        "buffer_hits": 9562,
        "buffer_misses": 0,
        "buffer_evictions": 0,
        "page_flushes": 42,
        "buffer_dirty_evictions": 0,
        "flush_batches": 6,
        "flush_coalesced_writes": 36,
        "evict_scan_skips": 0,
        "buffer_prefetches": 0,
        "buffer_prefetch_hits": 0,
        "version_ops": 983,
        "stamps": 966,
        "vtt_hits": 1406,
        "ptt_lookups": 0,
        "ptt_inserts": 802,
        "ptt_deletes": 790,
        "commit_revisit_pages": 0,
        "commits": 813,
        "aborts": 2,
        "asof_queries": 21,
        "asof_chain_hops": 28,
        "asof_pages_examined": 21,
        "tsb_lookups": 0,
        "asof_page_reads": 78,
        "asof_chain_steps": 505,
        "route_cache_hits": 16,
        "route_cache_misses": 6,
        "io_read_retries": 0,
        "io_write_retries": 0,
        "io_backoff_steps": 0,
        "io_verify_failures": 0,
        "repair_page_faults": 0,
        "pages_repaired": 0,
        "repair_records_replayed": 0,
        "pages_quarantined": 0,
        "degraded_reads": 0,
        "archive_records": 0,
        "backup_refreshes": 0,
        "scrub_steps": 0,
        "scrub_pages": 0,
        "scrub_findings": 0,
        "archive_pages_migrated": 0,
        "archive_pages_freed": 0,
        "archive_blocks": 0,
        "archive_block_reads": 0,
        "archive_bytes_raw": 0,
        "archive_bytes_stored": 0,
        "service_accepts": 0,
        "service_rejects": 0,
        "service_timeouts": 0,
        "service_aborted_on_disconnect": 0,
        "service_degraded_replies": 0,
        "lock_waits": 0,
        "lock_wait_ns": 0,
        "deadlocks_detected": 0,
        "txn_retries": 0
    },
    "crossings": 7281,
    "crossings_sha256": "408a58702e297acb70e41770058cdd54d530eca5a4d3f54dfffebffd35017955",
    "crossing_names": {
        "asof.route.hit": 16,
        "asof.route.miss": 6,
        "buffer.flushbatch.done": 6,
        "buffer.flushbatch.submit": 6,
        "buffer.flushbatch.write": 42,
        "checkpoint.begin": 3,
        "checkpoint.end": 3,
        "checkpoint.flushed": 1,
        "checkpoint.logged": 3,
        "checkpoint.master": 3,
        "disk.write_page": 42,
        "engine.save_meta": 2,
        "filelog.fsync": 117,
        "filelog.write": 117,
        "log.append": 3453,
        "log.force": 117,
        "txn.abort.begin": 1,
        "txn.commit.begin": 813,
        "txn.commit.done": 813,
        "txn.groupcommit.ack": 813,
        "txn.groupcommit.enqueue": 813,
        "txn.groupcommit.force": 91
    },
    "pages_sha256": "3140fb7dd1598732e08ecb77fc8280574ed970cdb8b96ef98f457109f3578c72",
    "log_sha256": "22b1dfa17d348d7237e4131237ee56567a6a66be12ad9f0576464b18b4fb5ba9"
}

EXPECTED_PAPER: dict = {
    "stats": {
        "disk_reads": 0,
        "disk_writes": 42,
        "disk_sequential_reads": 0,
        "disk_sequential_writes": 41,
        "log_appends": 3458,
        "log_bytes": 1012153,
        "log_forces": 819,
        "log_forced_bytes": 985951,
        "log_image_records": 46,
        "log_image_bytes": 771939,
        "group_commit_acks": 0,
        "buffer_hits": 9652,
        "buffer_misses": 0,
        "buffer_evictions": 0,
        "page_flushes": 42,
        "buffer_dirty_evictions": 0,
        "flush_batches": 6,
        "flush_coalesced_writes": 36,
        "evict_scan_skips": 0,
        "buffer_prefetches": 0,
        "buffer_prefetch_hits": 0,
        "version_ops": 983,
        "stamps": 966,
        "vtt_hits": 966,
        "ptt_lookups": 0,
        "ptt_inserts": 802,
        "ptt_deletes": 794,
        "commit_revisit_pages": 0,
        "commits": 813,
        "aborts": 2,
        "asof_queries": 19,
        "asof_chain_hops": 125,
        "asof_pages_examined": 19,
        "tsb_lookups": 0,
        "asof_page_reads": 173,
        "asof_chain_steps": 612,
        "route_cache_hits": 0,
        "route_cache_misses": 0,
        "io_read_retries": 0,
        "io_write_retries": 0,
        "io_backoff_steps": 0,
        "io_verify_failures": 0,
        "repair_page_faults": 0,
        "pages_repaired": 0,
        "repair_records_replayed": 0,
        "pages_quarantined": 0,
        "degraded_reads": 0,
        "archive_records": 0,
        "backup_refreshes": 0,
        "scrub_steps": 0,
        "scrub_pages": 0,
        "scrub_findings": 0,
        "archive_pages_migrated": 0,
        "archive_pages_freed": 0,
        "archive_blocks": 0,
        "archive_block_reads": 0,
        "archive_bytes_raw": 0,
        "archive_bytes_stored": 0,
        "service_accepts": 0,
        "service_rejects": 0,
        "service_timeouts": 0,
        "service_aborted_on_disconnect": 0,
        "service_degraded_replies": 0,
        "lock_waits": 0,
        "lock_wait_ns": 0,
        "deadlocks_detected": 0,
        "txn_retries": 0
    },
    "crossings": 7639,
    "crossings_sha256": "b22bcf3d8d749650729f61d0655bdad3e1fed6a31b33927be9b2656c66ceabc7",
    "crossing_names": {
        "buffer.flushbatch.done": 6,
        "buffer.flushbatch.submit": 6,
        "buffer.flushbatch.write": 42,
        "checkpoint.begin": 3,
        "checkpoint.end": 3,
        "checkpoint.flushed": 1,
        "checkpoint.logged": 3,
        "checkpoint.master": 3,
        "disk.write_page": 42,
        "engine.save_meta": 2,
        "log.append": 3457,
        "log.force": 818,
        "txn.abort.begin": 1,
        "txn.commit.begin": 813,
        "txn.commit.done": 813,
        "txn.commit.force": 813,
        "txn.commit.stamp": 813
    }
}

def test_tuned_file_backed_engine_writes_the_parents_bytes(tmp_path):
    seen = observe_tuned(tmp_path)
    for name, want in EXPECTED_TUNED.items():
        assert seen[name] == want, name
    assert seen.keys() == EXPECTED_TUNED.keys()


def test_default_in_memory_engine_counts_and_crosses_the_same():
    seen = observe_paper()
    for name, want in EXPECTED_PAPER.items():
        assert seen[name] == want, name
    assert seen.keys() == EXPECTED_PAPER.keys()


if __name__ == "__main__":   # prints the constants to paste above
    import json
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        tuned = observe_tuned(pathlib.Path(tmp))
    print("EXPECTED_TUNED: dict =", json.dumps(tuned, indent=4))
    print()
    print("EXPECTED_PAPER: dict =", json.dumps(observe_paper(), indent=4))
