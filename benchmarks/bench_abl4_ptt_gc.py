"""Ablation 4 — PTT garbage collection on vs off (paper Section 2.2).

"If we do not remove unneeded entries from it, the PTT eventually becomes
very large.  Not only does this needlessly consume disk storage, but it can
increase the cost for a TID lookup to find its timestamp."

We run a long update stream twice: with periodic checkpoints driving the
checkpoint-gated garbage collector (Immortal DB), and without (Postgres-
style unbounded PTT).  Compared: PTT entry count, page footprint, tree
height, and cold-cache lookup cost.
"""

from __future__ import annotations

from conftest import bench_scale

from repro.bench import (
    format_table,
    fresh_moving_objects_db,
    measure,
    save_results,
)
from repro.workloads.moving_objects import MovingObjectWorkload
from repro.bench import apply_event


def _run(gc: bool, transactions: int, checkpoint_every: int) -> dict:
    db, table = fresh_moving_objects_db(immortal=True)
    workload = MovingObjectWorkload(objects=100, seed=5)
    first_tid = db.txn_mgr.next_tid
    for i, event in enumerate(workload.events(max_events=transactions)):
        apply_event(db, table, event)
        if gc and (i + 1) % checkpoint_every == 0:
            # Touch records so pending stamps resolve, then checkpoint:
            # flushing advances the redo scan start point past the
            # stamping-done LSNs, making entries collectable.
            db.checkpoint(flush=True)
    if gc:
        db.checkpoint(flush=True)
        db.checkpoint(flush=True)

    # Cold-cache lookup probe: drop the buffer pool, then resolve the same
    # 20 TIDs of the update stream in both runs through the PTT (a TID GC
    # removed still descends the tree), with the disk head parked on page 0
    # so both probes start from the same place.
    stream = range(first_tid, db.txn_mgr.next_tid)
    probe_tids = stream[:: max(1, len(stream) // 20)][:20]
    db.buffer.flush_all()
    db.buffer.discard_all()
    db.tsmgr.vtt.clear()
    db.disk.read_page(0)

    def probe() -> None:
        for tid in probe_tids:
            db.ptt.lookup(tid)

    m = measure(db, probe)
    return {
        "gc": "on" if gc else "off",
        "ptt_entries": len(db.ptt),
        "ptt_pages": len(db.ptt.page_ids()),
        "ptt_height": db.ptt.height(),
        "gc_deleted": db.tsmgr.stats.ptt_deletes,
        "lookup_sim_ms": m.simulated_ms / max(1, len(probe_tids)),
        "lookup_reads": m.delta["disk_reads"],
    }


def test_abl4_ptt_garbage_collection(benchmark, emit):
    n = max(2000, int(20_000 * bench_scale()))
    without_gc = _run(gc=False, transactions=n, checkpoint_every=n)
    with_gc = _run(gc=True, transactions=n, checkpoint_every=max(200, n // 40))

    emit(
        format_table(
            "Abl 4: PTT growth with garbage collection on vs off",
            ["GC", "PTT entries", "PTT pages", "height",
             "entries deleted", "cold lookup ms", "probe disk reads"],
            [
                [r["gc"], r["ptt_entries"], r["ptt_pages"], r["ptt_height"],
                 r["gc_deleted"], r["lookup_sim_ms"], r["lookup_reads"]]
                for r in (without_gc, with_gc)
            ],
            note=f"{n} update transactions; GC is gated on the redo scan "
                 "start point passing each transaction's stamping-done LSN",
        )
    )
    save_results(
        "abl4_ptt_gc", {"without_gc": without_gc, "with_gc": with_gc}
    )

    # Without GC the PTT holds ~every transaction; with GC it stays small.
    assert without_gc["ptt_entries"] >= n * 0.95
    assert with_gc["ptt_entries"] < without_gc["ptt_entries"] * 0.25
    assert with_gc["ptt_pages"] < without_gc["ptt_pages"]
    assert with_gc["gc_deleted"] > 0
    # Cold lookups touch no more pages in the collected table and cost no
    # more; less where GC kept the tree a level shorter.  GC empties leaves
    # but does not reclaim them, so at full scale both trees are two levels
    # and each probe reads the same leaf in both.
    assert with_gc["lookup_reads"] <= without_gc["lookup_reads"]
    assert with_gc["lookup_sim_ms"] <= without_gc["lookup_sim_ms"]
    if with_gc["ptt_height"] < without_gc["ptt_height"]:
        assert with_gc["lookup_sim_ms"] < without_gc["lookup_sim_ms"]

    benchmark.pedantic(
        lambda: _run(gc=True, transactions=500, checkpoint_every=100),
        rounds=1, iterations=1,
    )
