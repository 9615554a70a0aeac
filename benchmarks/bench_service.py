"""Service-layer benchmark: sustained throughput, tail latency, overload.

Two phases against the real socket server over real sockets:

* **steady** — concurrent clients running a mixed SQL load well inside the
  admission budget.  Reports acked ops/sec and p50/p99 request latency;
  ``--compare`` gates ops/sec against the committed baseline
  (``BENCH_service.json``).

* **overload** — many more clients than the (deliberately tiny) admission
  budget, hammering with no pacing, against a *file-backed* engine.  The
  server's polling thread reads every connection that polled readable and
  takes the admission decision for each before it runs any: the admitted
  ones hold their share of the budget until they run, the rest are shed.
  While it runs a batch, and syncs the log for each write in it, the
  herd waits in the socket buffers and TCP holds the rest back, so the
  next poll finds most connections readable at once; requests pile up
  *after* admission, which is what the budget bounds.  This is the phase
  that proves the robustness story: shedding must keep the service
  *useful*, not merely alive.
  Three hard gates, all CI-enforced:

  - goodput stays nonzero (writes keep draining while reads shed),
  - rejections actually happen (the budget is real), and
  - p99 latency of the *accepted* requests stays bounded
    (``--max-p99-ms``) — the wait for a slot cannot grow without bound
    because admission rejects above the budget instead of queueing.

  The phase also cross-checks exactness: every acked INSERT is a row,
  every shed INSERT is not — rejected work must never half-execute.

Run it:

    PYTHONPATH=src python benchmarks/bench_service.py            # full
    PYTHONPATH=src python benchmarks/bench_service.py --quick    # CI
    PYTHONPATH=src python benchmarks/bench_service.py \
        --quick --compare BENCH_service.json                     # gate
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import tempfile
import threading
import time

if __package__ in (None, ""):  # direct script invocation without PYTHONPATH
    _SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    if os.path.isdir(_SRC) and _SRC not in sys.path:
        sys.path.insert(0, _SRC)

from repro.core.engine import ImmortalDB
from repro.core.rowcodec import ColumnType
from repro.service.client import ServiceClient
from repro.service.server import ThreadedService

SEED = 17
HOT_KEYS = 32


def _percentile(samples: list[float], p: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(p * (len(ordered) - 1))))
    return ordered[index]


class _ClientResult:
    __slots__ = ("latencies_ms", "acked", "acked_inserts", "rejects",
                 "timeouts", "errors")

    def __init__(self) -> None:
        self.latencies_ms: list[float] = []
        self.acked = 0
        self.acked_inserts = 0
        self.rejects = 0
        self.timeouts = 0
        self.errors = 0


def _client_worker(
    idx: int, port: int, ops: int, *, write_ratio: float,
    pause_on_shed: bool, barrier: threading.Barrier, out: _ClientResult,
) -> None:
    rng = random.Random(SEED + 1000 * idx)
    base = (idx + 1) * 1_000_000
    client = ServiceClient("127.0.0.1", port, timeout_s=60.0)
    barrier.wait()
    try:
        for i in range(ops):
            draw = rng.random()
            is_insert = False
            if draw < write_ratio / 2:
                is_insert = True
                sql = (f"INSERT INTO bench (k, v) "
                       f"VALUES ({base + i}, 'w{idx}-{i}')")
            elif draw < write_ratio:
                key = rng.randrange(HOT_KEYS)
                sql = f"UPDATE bench SET v = 'u{idx}-{i}' WHERE k = {key}"
            else:
                key = rng.randrange(HOT_KEYS)
                sql = f"SELECT v FROM bench WHERE k = {key}"
            start = time.perf_counter()
            try:
                response = client.execute(sql)
            except Exception:
                out.errors += 1
                continue
            elapsed_ms = (time.perf_counter() - start) * 1000.0
            status = response.get("status")
            if status in ("ok", "degraded"):
                out.latencies_ms.append(elapsed_ms)
                out.acked += 1
                out.acked_inserts += is_insert
            elif status == "overloaded":
                out.rejects += 1
                if pause_on_shed:
                    # Honour the server's hint (bounded): the cooperative
                    # client behaviour the retry_after_ms field exists for.
                    time.sleep(
                        min(response.get("retry_after_ms", 10.0), 50.0)
                        / 1000.0
                    )
            elif status == "timeout":
                out.timeouts += 1
            else:
                out.errors += 1
    finally:
        client.close()


def run_phase(
    name: str, *, clients: int, ops_per_client: int, max_inflight: int,
    read_shed_fraction: float, pool_workers: int, write_ratio: float,
    pause_on_shed: bool, file_backed: bool = False,
) -> dict:
    directory = tempfile.TemporaryDirectory()
    db = ImmortalDB(
        os.path.join(directory.name, "bench.pages") if file_backed else None,
        buffer_pages=256, group_commit_window=8,
    )
    table = db.create_table(
        "bench", [("k", ColumnType.INT), ("v", ColumnType.TEXT)],
        key="k", immortal=True,
    )
    with db.transaction() as txn:
        for k in range(HOT_KEYS):
            table.insert(txn, {"k": k, "v": "seed"})
    db.flush_commits()

    results = [_ClientResult() for _ in range(clients)]
    barrier = threading.Barrier(clients + 1)
    with ThreadedService(
        db, port=0, pool_workers=pool_workers, max_inflight=max_inflight,
        read_shed_fraction=read_shed_fraction, seed=SEED,
    ) as svc:
        threads = [
            threading.Thread(
                target=_client_worker,
                args=(idx, svc.port, ops_per_client),
                kwargs=dict(
                    write_ratio=write_ratio, pause_on_shed=pause_on_shed,
                    barrier=barrier, out=results[idx],
                ),
                name=f"bench-client-{idx}",
            )
            for idx in range(clients)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        start = time.perf_counter()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start

    # The context manager drained: every acked commit must be durable.
    assert db.txn_mgr.unacked_commits == 0, "drain left unforced commits"

    latencies = [ms for r in results for ms in r.latencies_ms]
    acked = sum(r.acked for r in results)
    acked_inserts = sum(r.acked_inserts for r in results)
    rejects = sum(r.rejects for r in results)
    timeouts = sum(r.timeouts for r in results)
    errors = sum(r.errors for r in results)

    # Exactness: an acked INSERT is a row, a shed or errored one is not.
    with db.transaction() as txn:
        rows = table.scan(txn)
    assert len(rows) == HOT_KEYS + acked_inserts, (
        f"{name}: {len(rows)} rows for {acked_inserts} acked inserts "
        f"(+{HOT_KEYS} seed) — shed work half-executed or acks were lost"
    )
    stats = db.stats()
    db.close()
    directory.cleanup()

    attempted = clients * ops_per_client
    return {
        "clients": clients,
        "ops_per_client": ops_per_client,
        "attempted": attempted,
        "acked": acked,
        "rejects": rejects,
        "timeouts": timeouts,
        "errors": errors,
        "wall_seconds": round(wall, 6),
        "goodput_per_sec": round(acked / wall, 1) if wall > 0 else 0.0,
        "p50_ms": round(_percentile(latencies, 0.50), 3),
        "p99_ms": round(_percentile(latencies, 0.99), 3),
        "counters": {
            "service_accepts": stats["service_accepts"],
            "service_rejects": stats["service_rejects"],
            "service_timeouts": stats["service_timeouts"],
            "service_aborted_on_disconnect":
                stats["service_aborted_on_disconnect"],
            "commits": stats["commits"],
            "log_forces": stats["log_forces"],
        },
    }


def run_phases(*, quick: bool) -> dict:
    scale = 1 if quick else 4
    steady = run_phase(
        "steady",
        clients=4,
        ops_per_client=60 * scale,
        max_inflight=64,
        read_shed_fraction=0.75,
        pool_workers=4,
        write_ratio=0.4,
        pause_on_shed=True,
    )
    overload = run_phase(
        "overload",
        clients=12,
        ops_per_client=100 * scale,
        max_inflight=4,          # deliberately tiny: force shedding
        read_shed_fraction=0.5,
        pool_workers=2,
        write_ratio=0.4,
        pause_on_shed=False,     # an inconsiderate herd
        file_backed=True,
    )
    return {"steady": steady, "overload": overload}


def gate_overload(overload: dict, max_p99_ms: float) -> list[str]:
    """The robustness gates: shed hard, stay useful, stay bounded."""
    problems = []
    if overload["acked"] <= 0:
        problems.append("overload: goodput collapsed to zero")
    if overload["rejects"] <= 0:
        problems.append(
            "overload: no rejections — the admission budget never bit, "
            "the phase is not measuring overload"
        )
    if overload["p99_ms"] > max_p99_ms:
        problems.append(
            f"overload: p99 of accepted requests {overload['p99_ms']:.1f} ms "
            f"exceeds the {max_p99_ms:.0f} ms bound — backpressure is not "
            "keeping queues bounded"
        )
    return problems


def compare_against(
    baseline: dict, current: dict, tolerance: float
) -> list[str]:
    problems = []
    pairs = (
        ("steady", "goodput_per_sec"),
        ("overload", "goodput_per_sec"),
    )
    for phase, metric in pairs:
        base = baseline.get("phases", {}).get(phase)
        now = current["phases"].get(phase)
        if base is None or now is None:
            continue
        floor = base[metric] * (1.0 - tolerance)
        if now[metric] < floor:
            problems.append(
                f"{phase}: {now[metric]:.0f} {metric} is below "
                f"{floor:.0f} (baseline {base[metric]:.0f} "
                f"- {tolerance:.0%} tolerance)"
            )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/bench_service.py",
        description="Service throughput/overload benchmark with gates.",
    )
    parser.add_argument("--quick", action="store_true",
                        help="small CI-sized workloads")
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="write the JSON here (default: print only)")
    parser.add_argument("--compare", default=None, metavar="BASELINE",
                        help="fail if goodput regresses vs this JSON")
    parser.add_argument("--tolerance", type=float, default=0.40,
                        help="allowed fractional regression (default 0.40; "
                             "socket benchmarks jitter more than in-process "
                             "ones)")
    parser.add_argument("--max-p99-ms", type=float, default=2000.0,
                        help="overload-phase bound on p99 latency of "
                             "accepted requests (default 2000)")
    args = parser.parse_args(argv)

    phases = run_phases(quick=args.quick)
    payload = {"quick": args.quick, "seed": SEED, "phases": phases}

    for name, r in phases.items():
        print(
            f"{name:>8}: {r['goodput_per_sec']:>8.1f} acked ops/s "
            f"({r['acked']}/{r['attempted']} acked, {r['rejects']} shed, "
            f"{r['timeouts']} timeouts, {r['errors']} errors) "
            f"p50 {r['p50_ms']:.1f} ms, p99 {r['p99_ms']:.1f} ms"
        )

    if args.output:
        with open(args.output, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.output}")

    problems = gate_overload(phases["overload"], args.max_p99_ms)
    if args.compare:
        with open(args.compare) as fh:
            baseline = json.load(fh)
        regressions = compare_against(baseline, payload, args.tolerance)
        if not regressions:
            print(f"no regression vs {args.compare} "
                  f"(tolerance {args.tolerance:.0%})")
        problems.extend(regressions)

    for problem in problems:
        print(f"FAIL: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
