"""Compare two result files written by ``run.py --out``.

    python3 benchmarks/e2e/compare.py A.json B.json

One row per workload and end-to-end metric: each side's median and
quartiles over its repetitions, the ratio B/A with its base, and a verdict
against the bound ``BENCHMARK.json`` fixes for the metric:

``within bound``  B's median is no worse than A's by more than the bound;
``regressed``     it is worse by more than the bound;
``unresolved``    either side's repetitions spread (quartile distance over
                  median) wider than the bound, so the medians cannot
                  settle it -- unless every repetition of B reads better
                  than every repetition of A.

More failed operations on B than on A is a regression whatever the times
say.  Exits 1 if any row regressed, 2 if the files cannot be compared.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from measure import spread                                      # noqa: E402


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    if max(spread(a), spread(b)) > bound:
        every_b_better = all(
            sign * vb < sign * va for vb in b["values"] for va in a["values"]
        )
        if not every_b_better:
            return "unresolved"
    worsening = sign * (b["value"] - a["value"]) / abs(a["value"])
    return "regressed" if worsening > bound else "within bound"


def compare(a: dict, b: dict, end_to_end: list) -> list[tuple]:
    rows = []
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            continue
        rows.append((
            name, "failed", f"{wa['failed']}/{wa['attempted']}",
            f"{wb['failed']}/{wb['attempted']}", "",
            "regressed" if wb["failed"] > wa["failed"] else "within bound",
        ))
        for metric in end_to_end:
            ma, mb = wa["metrics"].get(metric["name"]), wb["metrics"].get(metric["name"])
            if ma is None or mb is None:
                continue
            rows.append((
                name, f"{metric['name']} [{metric['unit']}]",
                f"{ma['value']:.5g} [{ma['q1']:.5g} .. {ma['q3']:.5g}]",
                f"{mb['value']:.5g} [{mb['q1']:.5g} .. {mb['q3']:.5g}]",
                f"{mb['value'] / ma['value']:.3f}x of {ma['value']:.5g}",
                verdict(ma, mb, metric["better"], metric["bound"]),
            ))
    return rows


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    sides = []
    for path in args:
        with open(path) as fh:
            sides.append(json.load(fh))
    a, b = sides
    if a["mode"] != b["mode"]:
        print(f"compare.py: {args[0]} is a {a['mode']} run and {args[1]} a "
              f"{b['mode']} run; their task lists differ", file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(os.path.dirname(HERE)),
                           "BENCHMARK.json")) as fh:
        end_to_end = json.load(fh)["end_to_end"]
    rows = compare(a, b, end_to_end)
    header = ("workload", "metric", f"A = {args[0]}", f"B = {args[1]}",
              "B/A", "verdict")
    widths = [max(len(str(r[i])) for r in [header, *rows]) for i in range(6)]
    for row in [header, *rows]:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)).rstrip())
    return 1 if any(row[5] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
