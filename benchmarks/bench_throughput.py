"""Wall-clock throughput harness: the engine's perf trajectory, guarded.

Unlike the figure benchmarks (which report *simulated* 2005-hardware
milliseconds), this harness times the Python engine itself: seeded
insert-only, mixed insert/update, and as-of read workloads against a
file-backed database, reporting wall-clock ops/sec alongside the simulated
cost and the raw engine counters.  The JSON it emits
(``BENCH_throughput.json``) is the committed baseline CI compares against:
``--compare`` fails the run when any workload regresses by more than
``--tolerance`` (default 30 %).

Run it:

    PYTHONPATH=src python benchmarks/bench_throughput.py            # full
    PYTHONPATH=src python benchmarks/bench_throughput.py --quick    # CI
    PYTHONPATH=src python benchmarks/bench_throughput.py \
        --quick --compare BENCH_throughput.json                     # gate

The script also runs unmodified against pre-group-commit builds (the
engine-constructor fallback below), which is how before/after numbers are
produced from the same workload definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import tempfile
import time

if __package__ in (None, ""):  # direct script invocation without PYTHONPATH
    _SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    if os.path.isdir(_SRC) and _SRC not in sys.path:
        sys.path.insert(0, _SRC)

from repro.core.engine import ImmortalDB
from repro.core.rowcodec import ColumnType

SEED = 11
GROUP_COMMIT_WINDOW = 8
VALUE_PAD = 120

# Counters worth carrying into the JSON (a stable, meaningful subset).
COUNTER_KEYS = (
    "commits", "log_forces", "log_appends", "log_bytes",
    "page_flushes", "buffer_evictions", "disk_writes",
    "disk_sequential_writes", "stamps", "version_ops",
    "asof_page_reads", "asof_chain_steps",
    "route_cache_hits", "route_cache_misses",
)


def _build_db(
    tmpdir: str, *, group_commit_window: int, route_cache: bool = False,
    buffer_pages: int = 256, media_recovery: bool = False,
) -> ImmortalDB:
    path = os.path.join(tmpdir, "bench.db")
    kwargs = dict(path=path, buffer_pages=buffer_pages, ms_per_commit=5.0)
    if media_recovery:
        kwargs.update(media_recovery=True, page_checksums=True)
    if route_cache:
        try:
            return ImmortalDB(
                group_commit_window=group_commit_window,
                asof_route_cache=True, **kwargs,
            )
        except TypeError:
            pass  # pre-route-cache engine: fall through
    try:
        return ImmortalDB(group_commit_window=group_commit_window, **kwargs)
    except TypeError:
        # Pre-group-commit engine: every commit forces the log itself.
        return ImmortalDB(**kwargs)


def _make_table(db: ImmortalDB):
    return db.create_table(
        "bench", [("k", ColumnType.INT), ("v", ColumnType.TEXT)],
        key="k", immortal=True,
    )


def _value(rng: random.Random, i: int) -> str:
    return f"v{i}-" + "x" * rng.randrange(VALUE_PAD)


def _flush_commits(db: ImmortalDB) -> None:
    flush = getattr(db, "flush_commits", None)
    if flush is not None:
        flush()
    else:
        db.log.force()


def _run_inserts(db: ImmortalDB, table, ops: int) -> int:
    rng = random.Random(SEED)
    for i in range(ops):
        with db.transaction() as txn:
            table.insert(txn, {"k": i, "v": _value(rng, i)})
    _flush_commits(db)
    return ops


def _run_mixed(db: ImmortalDB, table, ops: int, tick=None) -> int:
    """Single-record transactions: seed inserts, then a 50/50 mix.

    ``tick(i)``, when given, runs after every transaction — the hook the
    scrub-overhead mode uses to interleave scrubber steps with the load.
    """
    rng = random.Random(SEED + 1)
    seeded = max(1, ops // 4)
    live = list(range(seeded))
    for i in range(seeded):
        with db.transaction() as txn:
            table.insert(txn, {"k": i, "v": _value(rng, i)})
        if tick is not None:
            tick(i)
    next_key = seeded
    for i in range(ops - seeded):
        if rng.random() < 0.5:
            with db.transaction() as txn:
                table.insert(txn, {"k": next_key, "v": _value(rng, i)})
            live.append(next_key)
            next_key += 1
        else:
            key = live[rng.randrange(len(live))]
            with db.transaction() as txn:
                table.update(txn, key, {"v": _value(rng, i)})
        if tick is not None:
            tick(seeded + i)
    _flush_commits(db)
    return ops


def _prepare_asof(db: ImmortalDB, table, keys: int, versions: int):
    """Load ``keys`` records with ``versions`` versions each; return marks."""
    rng = random.Random(SEED + 2)
    marks = []
    for v in range(versions):
        for k in range(keys):
            with db.transaction() as txn:
                if v == 0:
                    table.insert(txn, {"k": k, "v": _value(rng, v)})
                else:
                    table.update(txn, k, {"v": _value(rng, v)})
        _flush_commits(db)
        db.advance_time(500.0)
        marks.append(db.now())
    return marks


def _run_asof(db: ImmortalDB, table, marks, queries: int, keys: int) -> int:
    rng = random.Random(SEED + 3)
    hits = 0
    for _ in range(queries):
        ts = marks[rng.randrange(len(marks))]
        key = rng.randrange(keys)
        if table.read_as_of(ts, key) is not None:
            hits += 1
    assert hits == queries, "as-of probe missed rows it loaded itself"
    return queries


def _scan_iter(table, ts):
    """Streaming as-of scan with list() fallback for older tables."""
    it = getattr(table, "scan_as_of_iter", None)
    return it(ts) if it is not None else iter(table.scan_as_of(ts))


def _run_scan_asof(db: ImmortalDB, table, marks, queries: int) -> int:
    """Full-table AS OF scans against deep history, random time marks."""
    rng = random.Random(SEED + 4)
    total = 0
    for _ in range(queries):
        ts = marks[rng.randrange(len(marks))]
        rows = table.scan_as_of(ts)
        assert rows, "as-of scan returned nothing at a known mark"
        total += len(rows)
    assert total > 0
    return queries


def _run_scan_range(db: ImmortalDB, table, marks, queries: int,
                    keys: int) -> int:
    """Narrow range scans plus LIMIT-style early-stopped as-of scans."""
    rng = random.Random(SEED + 5)
    span = max(4, keys // 16)
    for i in range(queries):
        if i % 2 == 0:
            low = rng.randrange(keys - span)
            with db.transaction() as txn:
                rows = table.scan_range(txn, low, low + span - 1)
            assert rows
        else:
            # First-10-rows consumer: streaming scans stop early here.
            ts = marks[rng.randrange(len(marks))]
            first = []
            for row in _scan_iter(table, ts):
                first.append(row)
                if len(first) >= 10:
                    break
            assert first
    return queries


def _run_history(db: ImmortalDB, table, queries: int, keys: int) -> int:
    rng = random.Random(SEED + 6)
    for _ in range(queries):
        key = rng.randrange(keys)
        versions = table.history(key)
        assert versions, "history query found no versions for a loaded key"
    return queries


def _measure(db: ImmortalDB, fn) -> dict:
    from repro.bench.costmodel import COST_2005, stats_delta

    before = db.stats()
    start = time.perf_counter()
    ops = fn()
    wall = time.perf_counter() - start
    delta = stats_delta(before, db.stats())
    counters = {k: delta[k] for k in COUNTER_KEYS if k in delta}
    return {
        "ops": ops,
        "wall_seconds": round(wall, 6),
        "ops_per_sec": round(ops / wall, 1) if wall > 0 else float("inf"),
        "simulated_ms": round(COST_2005.simulated_ms(delta), 3),
        "counters": counters,
    }


def run_workloads(*, quick: bool, group_commit_window: int) -> dict:
    scale = 1 if quick else 5
    results: dict = {}

    with tempfile.TemporaryDirectory(prefix="bench_throughput_") as tmp:
        db = _build_db(tmp, group_commit_window=group_commit_window)
        table = _make_table(db)
        results["inserts"] = _measure(
            db, lambda: _run_inserts(db, table, 400 * scale)
        )
        db.close()

    with tempfile.TemporaryDirectory(prefix="bench_throughput_") as tmp:
        db = _build_db(tmp, group_commit_window=group_commit_window)
        table = _make_table(db)
        results["mixed"] = _measure(
            db, lambda: _run_mixed(db, table, 600 * scale)
        )
        db.close()

    with tempfile.TemporaryDirectory(prefix="bench_throughput_") as tmp:
        db = _build_db(tmp, group_commit_window=group_commit_window)
        table = _make_table(db)
        keys = 60 * scale
        marks = _prepare_asof(db, table, keys, versions=4)
        results["asof"] = _measure(
            db, lambda: _run_asof(db, table, marks, 300 * scale, keys)
        )
        db.close()

    # Historical scan workloads run with the as-of route cache enabled
    # (ignored by engines that predate it) over a deeper history: more
    # versions per key force time splits, so every query routes through
    # history-page chains — the path the cache accelerates.
    with tempfile.TemporaryDirectory(prefix="bench_throughput_") as tmp:
        db = _build_db(tmp, group_commit_window=group_commit_window,
                       route_cache=True, buffer_pages=1024)
        table = _make_table(db)
        keys = 40 * scale
        marks = _prepare_asof(db, table, keys, versions=10)
        results["scan_asof"] = _measure(
            db, lambda: _run_scan_asof(db, table, marks, 12 * scale)
        )
        results["scan_range"] = _measure(
            db, lambda: _run_scan_range(db, table, marks, 40 * scale, keys)
        )
        results["history"] = _measure(
            db, lambda: _run_history(db, table, 40 * scale, keys)
        )
        db.close()

    # These are the *in-memory* baselines: every workload is sized to fit
    # its buffer pool, and the numbers mean nothing if that silently stops
    # being true (eviction pressure belongs to bench_scale.py).  Fail loud
    # rather than letting the two baselines drift into each other.
    for name, r in results.items():
        evictions = r["counters"].get("buffer_evictions", 0)
        if evictions:
            raise AssertionError(
                f"workload {name!r} evicted {evictions} pages: "
                "bench_throughput must stay in-memory — grow buffer_pages "
                "or shrink the workload (see bench_scale.py for "
                "under-pressure numbers)"
            )

    return results


def run_scrub_overhead(
    *, quick: bool, group_commit_window: int, repeats: int = 3,
) -> dict:
    """The online scrubber's throughput cost under a mixed write load.

    Both runs use the identical self-healing configuration (checksums on,
    media recovery attached) so the measured delta isolates the *scrubber*:
    the "on" run interleaves one budgeted scrub step every 32 transactions
    (4 pages per step — several full passes over the growing database).
    Runs are timed in back-to-back pairs (after one discarded warm-up
    run, alternating order within pairs so warm-up drift favours neither
    side) and the gate applies to the best pair's ratio.  That is the
    right one-sided estimator for a regression gate: noise only ever
    *inflates* apparent cost in a pair, so a genuine >5 % scrubber cost
    shows up in every pair, while one quiet pair is enough to clear a
    healthy run.  The CI gate demands the scrubbed run keeps >= 95 % of
    the unscrubbed throughput.
    """
    from repro.repair.scrub import Scrubber

    # Much longer than the regular quick workloads: the gate is tight (5 %),
    # so each timed run must be long enough that scheduler noise stays below
    # it — sub-second runs swing by ±15 % on a busy machine.
    ops = 7200 * (1 if quick else 3)

    def run(scrub: bool) -> dict:
        with tempfile.TemporaryDirectory(prefix="bench_scrub_") as tmp:
            db = _build_db(tmp, group_commit_window=group_commit_window,
                           media_recovery=True)
            table = _make_table(db)
            tick = None
            scrubber = None
            if scrub:
                scrubber = Scrubber(db, pages_per_step=4)
                tick = lambda i: scrubber.step() if i % 32 == 31 else None
            result = _measure(
                db, lambda: _run_mixed(db, table, ops, tick=tick)
            )
            if scrubber is not None:
                result["scrub"] = {
                    "steps": scrubber.stats.steps,
                    "pages_scanned": scrubber.stats.pages_scanned,
                    "findings": scrubber.stats.findings,
                }
            db.close()
            return result

    run(False)  # warm-up: first run pays import/allocator/CPU-clock costs
    pairs: list[tuple[float, dict, dict]] = []
    for i in range(repeats):
        if i % 2 == 0:
            off, on = run(False), run(True)
        else:
            on, off = run(True), run(False)
        pairs.append((on["ops_per_sec"] / off["ops_per_sec"], off, on))
    ratio, off, on = max(pairs, key=lambda p: p[0])
    return {"off": off, "on": on, "ratio": round(ratio, 4)}


def compare_against(baseline: dict, current: dict, tolerance: float) -> list[str]:
    """Regressions beyond ``tolerance`` (fractional) in any shared workload."""
    problems = []
    for name, base in baseline.get("workloads", {}).items():
        now = current["workloads"].get(name)
        if now is None:
            problems.append(f"{name}: missing from current run")
            continue
        floor = base["ops_per_sec"] * (1.0 - tolerance)
        if now["ops_per_sec"] < floor:
            problems.append(
                f"{name}: {now['ops_per_sec']:.0f} ops/s is below "
                f"{floor:.0f} (baseline {base['ops_per_sec']:.0f} "
                f"- {tolerance:.0%} tolerance)"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/bench_throughput.py",
        description="Wall-clock throughput benchmark with regression gating.",
    )
    parser.add_argument("--quick", action="store_true",
                        help="small CI-sized workloads")
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="write the JSON here (default: print only)")
    parser.add_argument("--compare", default=None, metavar="BASELINE",
                        help="fail if ops/sec regresses vs this JSON")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional regression (default 0.30)")
    parser.add_argument("--group-commit", type=int,
                        default=GROUP_COMMIT_WINDOW, metavar="N",
                        help="group-commit window (ignored by old engines)")
    parser.add_argument("--scrub-overhead", action="store_true",
                        help="measure the online scrubber's throughput cost "
                             "instead of the standard workloads")
    parser.add_argument("--scrub-tolerance", type=float, default=0.05,
                        help="allowed fractional scrub slowdown (default 0.05)")
    args = parser.parse_args(argv)

    if args.scrub_overhead:
        result = run_scrub_overhead(
            quick=args.quick, group_commit_window=args.group_commit
        )
        off, on = result["off"], result["on"]
        print(f"scrub off: {off['ops_per_sec']:>9.1f} ops/s wall")
        print(f"scrub  on: {on['ops_per_sec']:>9.1f} ops/s wall "
              f"({on['scrub']['steps']} steps, "
              f"{on['scrub']['pages_scanned']} pages scanned, "
              f"{on['scrub']['findings']} findings)")
        print(f"throughput kept: {result['ratio']:.1%} "
              f"(gate: >= {1.0 - args.scrub_tolerance:.0%})")
        if args.output:
            with open(args.output, "w") as fh:
                json.dump(result, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"wrote {args.output}")
        if on["scrub"]["findings"]:
            print("FAIL: scrubber reported findings on a healthy database")
            return 1
        if result["ratio"] < 1.0 - args.scrub_tolerance:
            print("FAIL: scrub overhead exceeds tolerance")
            return 1
        return 0

    workloads = run_workloads(
        quick=args.quick, group_commit_window=args.group_commit
    )
    payload = {
        "quick": args.quick,
        "seed": SEED,
        "group_commit_window": args.group_commit,
        "workloads": workloads,
    }

    for name, r in workloads.items():
        print(f"{name:>8}: {r['ops_per_sec']:>9.1f} ops/s wall "
              f"({r['ops']} ops in {r['wall_seconds']:.3f}s, "
              f"sim {r['simulated_ms']:.0f} ms, "
              f"{r['counters'].get('log_forces', '?')} log forces)")

    if args.output:
        with open(args.output, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.output}")

    if args.compare:
        with open(args.compare) as fh:
            baseline = json.load(fh)
        problems = compare_against(baseline, payload, args.tolerance)
        if problems:
            for problem in problems:
                print(f"REGRESSION {problem}")
            return 1
        print(f"no regression vs {args.compare} "
              f"(tolerance {args.tolerance:.0%})")

    return 0


if __name__ == "__main__":
    sys.exit(main())
