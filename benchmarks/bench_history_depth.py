"""History-depth benchmark: archive tiering under growing version depth.

The cold-history archive exists to answer one scaling question: what
happens as a table accumulates 10x, 100x the history while its current
working set stays constant?  This harness sweeps **value length x history
depth** with archiving enabled and reports, per cell:

* **compression** — raw bytes of the migrated history pages vs stored
  archive bytes.  Version chains of one key differ by a few bytes when
  values are small-to-medium (the varying-value-length methodology in
  PAPERS.md), so delta encoding plus zlib must shrink small-value history
  by at least ``--min-compression`` (default 2.0x);
* **as-of latency** — simulated cost of point reads at a *fixed recency*
  (the same number of rounds back from now, whatever the total depth).
  Chains are newest-first, so a query T rounds back crosses ~T pages
  regardless of how much colder history hangs below them — latency must
  stay within ``--max-latency-ratio`` (default 1.5x) of the shallow
  baseline even when the depth grows 10x;
* **reclamation** — pages migrated, pages freed (every migrated page must
  be freed) and blocks written, one block per migrated page: the store is
  a plain sequence of block frames.

Costs are priced with the deterministic cost model; archive block
materialization is charged at a sequential-transfer-plus-decode rate
(``archive_block_read_ms = 0.9``) so tiered reads are *not* free — the
flat-latency gate holds because recent-history reads do not touch the
archive at all, not because the archive is costless.  Simulated cost is a
pure function of the engine's counters, so the gates cannot flake; wall
seconds are reported alongside for information only (see EXPERIMENTS.md,
"Why simulated cost is the gated metric").

Run it:

    PYTHONPATH=src python benchmarks/bench_history_depth.py --quick
    PYTHONPATH=src python benchmarks/bench_history_depth.py --quick \
        --compare BENCH_history.json                              # CI gate
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

if __package__ in (None, ""):  # direct script invocation without PYTHONPATH
    _SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    if os.path.isdir(_SRC) and _SRC not in sys.path:
        sys.path.insert(0, _SRC)

from repro.bench.costmodel import COST_2005, stats_delta
from repro.core.engine import ImmortalDB
from repro.core.rowcodec import ColumnType

SEED = 31

#: archive materialization priced as one sequential transfer + decode CPU
ARCHIVE_COST = dataclasses.replace(
    COST_2005,
    archive_block_read_ms=0.9,
    archive_migrate_page_ms=1.2,
)


@dataclasses.dataclass(frozen=True)
class Sizes:
    keys: int             # fixed current working set
    shallow_depth: int    # versions per key in the shallow baseline
    depth_factor: int     # deep = shallow * factor (the 10x claim)
    probe_rounds: int     # recency window the as-of probes target
    probes: int           # as-of point reads measured per cell
    value_lens: tuple     # payload sizes swept


QUICK = Sizes(
    keys=48, shallow_depth=6, depth_factor=10,
    probe_rounds=3, probes=96, value_lens=(40, 200, 800),
)
FULL = Sizes(
    keys=128, shallow_depth=10, depth_factor=10,
    probe_rounds=5, probes=384, value_lens=(40, 200, 800),
)


def _build_cell(sizes: Sizes, value_len: int, depth: int):
    """One database at one (value_len, depth) cell, history fully archived."""
    db = ImmortalDB(
        buffer_pages=96,
        archive={"cold_ms": 200.0, "pages_per_step": 64, "auto": False},
    )
    table = db.create_table(
        "depth", [("k", ColumnType.INT), ("v", ColumnType.TEXT)],
        key="k", immortal=True,
    )
    filler = "v" * value_len
    marks = []
    for r in range(depth):
        for k in range(sizes.keys):
            # Same-length values whose tail varies: consecutive versions
            # share a long prefix, the shape delta encoding targets.
            value = filler + f"{r % 100:02d}{k % 100:02d}"
            with db.transaction() as txn:
                if r == 0:
                    table.insert(txn, {"k": k, "v": value})
                else:
                    table.update(txn, k, {"v": value})
        db.advance_time(60)
        marks.append(db.now())
    db.checkpoint(flush=True)
    return db, table, marks


def _probe_asof(db, table, marks, sizes: Sizes) -> dict:
    """Point reads at a fixed recency window (the newest ``probe_rounds``)."""
    window = marks[-sizes.probe_rounds :]
    before = db.stats()
    start = time.perf_counter()
    hits = 0
    for i in range(sizes.probes):
        ts = window[i % len(window)]
        if table.read_as_of(ts, i % sizes.keys) is not None:
            hits += 1
    wall = time.perf_counter() - start
    delta = stats_delta(before, db.stats())
    assert hits == sizes.probes, "as-of probes missed rows at known marks"
    return {
        "simulated_ms": round(ARCHIVE_COST.simulated_ms(delta), 3),
        "wall_seconds": round(wall, 6),
        "block_reads": delta.get("archive_block_reads", 0),
    }


def run_cell(sizes: Sizes, value_len: int, depth: int) -> dict:
    db, table, marks = _build_cell(sizes, value_len, depth)
    migrate_before = db.stats()
    migrated = db.archive.drain()
    migrate_delta = stats_delta(migrate_before, db.stats())
    stats = db.stats()
    raw = stats["archive_bytes_raw"]
    stored = stats["archive_bytes_stored"]
    row = {
        "value_len": value_len,
        "depth": depth,
        "pages_migrated": migrated,
        "pages_freed": stats["archive_pages_freed"],
        "blocks": stats["archive_blocks"],
        "bytes_raw": raw,
        "bytes_stored": stored,
        "compression_ratio": round(raw / stored, 3) if stored else None,
        "migrate_simulated_ms": round(
            ARCHIVE_COST.simulated_ms(migrate_delta), 3
        ),
        "asof": _probe_asof(db, table, marks, sizes),
    }
    db.close()
    return row


def run_sweep(*, quick: bool) -> dict:
    sizes = QUICK if quick else FULL
    cells = []
    for value_len in sizes.value_lens:
        for depth in (
            sizes.shallow_depth, sizes.shallow_depth * sizes.depth_factor,
        ):
            cells.append(run_cell(sizes, value_len, depth))
    payload: dict = {
        "quick": quick,
        "seed": SEED,
        "keys": sizes.keys,
        "shallow_depth": sizes.shallow_depth,
        "depth_factor": sizes.depth_factor,
        "cells": cells,
    }
    # Latency ratios: deep vs shallow at the same value length and the
    # same probe recency.  The claim under test: colder history below the
    # probe window costs nothing, however deep it grows.
    ratios = {}
    for value_len in sizes.value_lens:
        pair = [c for c in cells if c["value_len"] == value_len]
        shallow = next(
            c for c in pair if c["depth"] == sizes.shallow_depth
        )
        deep = next(
            c for c in pair if c["depth"] != sizes.shallow_depth
        )
        base = shallow["asof"]["simulated_ms"] or 1e-9
        ratios[str(value_len)] = round(
            deep["asof"]["simulated_ms"] / base, 3
        )
    payload["latency_ratio_by_value_len"] = ratios
    return payload


def check_gates(
    payload: dict, *, min_compression: float, max_latency_ratio: float
) -> list[str]:
    problems = []
    for cell in payload["cells"]:
        if cell["pages_migrated"] <= 0:
            problems.append(
                f"value_len={cell['value_len']} depth={cell['depth']}: "
                "no pages migrated — the sweep never exercised the archive"
            )
        if cell["pages_freed"] != cell["pages_migrated"]:
            problems.append(
                f"value_len={cell['value_len']} depth={cell['depth']}: "
                f"freed {cell['pages_freed']} != migrated "
                f"{cell['pages_migrated']}"
            )
    # Compression is a small-value claim: long values dominated by the
    # filler still compress (zlib), but the >= gate applies to the
    # smallest swept length, where delta chains shine.
    smallest = min(c["value_len"] for c in payload["cells"])
    for cell in payload["cells"]:
        if cell["value_len"] == smallest and (
            cell["compression_ratio"] is None
            or cell["compression_ratio"] < min_compression
        ):
            problems.append(
                f"value_len={cell['value_len']} depth={cell['depth']}: "
                f"compression {cell['compression_ratio']}x is below the "
                f"{min_compression}x gate"
            )
    for value_len, ratio in payload["latency_ratio_by_value_len"].items():
        if ratio > max_latency_ratio:
            problems.append(
                f"value_len={value_len}: deep/shallow as-of latency ratio "
                f"{ratio}x exceeds the {max_latency_ratio}x gate "
                f"(depth grew {payload['depth_factor']}x)"
            )
    return problems


def compare_against(
    baseline: dict, current: dict, tolerance: float
) -> list[str]:
    """Regressions beyond ``tolerance`` on the simulated metrics."""
    problems = []
    if baseline.get("quick") != current.get("quick"):
        return [
            "baseline and current run disagree on --quick mode; "
            "absolute simulated_ms is only comparable within one mode"
        ]
    base_cells = {
        (c["value_len"], c["depth"]): c for c in baseline.get("cells", [])
    }
    for cell in current["cells"]:
        base = base_cells.get((cell["value_len"], cell["depth"]))
        if base is None:
            continue
        ceiling = base["asof"]["simulated_ms"] * (1.0 + tolerance)
        if cell["asof"]["simulated_ms"] > ceiling:
            problems.append(
                f"value_len={cell['value_len']} depth={cell['depth']}: "
                f"as-of {cell['asof']['simulated_ms']:.1f} simulated ms is "
                f"above {ceiling:.1f} (baseline "
                f"{base['asof']['simulated_ms']:.1f} + {tolerance:.0%})"
            )
        if base.get("compression_ratio") and cell.get("compression_ratio"):
            floor = base["compression_ratio"] * (1.0 - tolerance)
            if cell["compression_ratio"] < floor:
                problems.append(
                    f"value_len={cell['value_len']} depth={cell['depth']}: "
                    f"compression {cell['compression_ratio']}x is below "
                    f"{floor:.2f}x (baseline {base['compression_ratio']}x "
                    f"- {tolerance:.0%})"
                )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/bench_history_depth.py",
        description="Value-length x history-depth sweep with archive tiering.",
    )
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized sweep (the committed baseline)")
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="write the JSON here (default: print only)")
    parser.add_argument("--compare", default=None, metavar="BASELINE",
                        help="fail on simulated regressions vs this JSON")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional regression (default 0.30)")
    parser.add_argument("--min-compression", type=float, default=2.0,
                        help="small-value compression gate (default 2.0x)")
    parser.add_argument("--max-latency-ratio", type=float, default=1.5,
                        help="deep/shallow as-of latency gate (default 1.5x)")
    args = parser.parse_args(argv)

    payload = run_sweep(quick=args.quick)

    print(f"{'vlen':>5} {'depth':>6} {'pages':>6} "
          f"{'ratio':>7} {'migrate sim-ms':>14} {'asof sim-ms':>11} "
          f"{'blk-reads':>9}")
    for c in payload["cells"]:
        print(f"{c['value_len']:>5} {c['depth']:>6} "
              f"{c['pages_migrated']:>6} "
              f"{c['compression_ratio']:>7.2f} "
              f"{c['migrate_simulated_ms']:>14.1f} "
              f"{c['asof']['simulated_ms']:>11.1f} "
              f"{c['asof']['block_reads']:>9}")
    print("deep/shallow as-of latency ratio by value length: "
          + ", ".join(
              f"{k}B={v}x"
              for k, v in payload["latency_ratio_by_value_len"].items()
          ))

    if args.output:
        with open(args.output, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.output}")

    failed = False
    for problem in check_gates(
        payload,
        min_compression=args.min_compression,
        max_latency_ratio=args.max_latency_ratio,
    ):
        print(f"FAIL {problem}")
        failed = True

    if args.compare:
        with open(args.compare) as fh:
            baseline = json.load(fh)
        problems = compare_against(baseline, payload, args.tolerance)
        for problem in problems:
            print(f"REGRESSION {problem}")
            failed = True
        if not problems:
            print(f"no regression vs {args.compare} "
                  f"(tolerance {args.tolerance:.0%})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
