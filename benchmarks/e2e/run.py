"""One command: run the workloads, check every answer, print every metric.

    python3 benchmarks/e2e/run.py                      # four workloads, 5+1 repetitions each
    python3 benchmarks/e2e/run.py --workload asof_deep --seed 12 --out r.json
    python3 benchmarks/e2e/run.py --quick              # smoke: 1 repetition, a tenth of the ops

and, as the pipeline calls it,

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

Untraced repetitions of a fixed, seeded task list run until ``--seconds``
of timed work have been measured (at least three); each builds its own
database, so a run also sets up several times.  A metric's reported value
is its median over the repetitions.  ``--trace 1`` halves that budget and
adds one traced repetition, which alone feeds the per-layer times.  The
last line printed for a workload is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import layers                                                   # noqa: E402
import workloads                                                # noqa: E402
from measure import Calibrator, percentile, summarize           # noqa: E402
from tracer import Tracer                                       # noqa: E402

try:
    import adapter                                              # noqa: E402
except ModuleNotFoundError as exc:      # a checkout without the program
    sys.exit(f"run.py: cannot import the engine under src/: {exc}")

SCRATCH = os.path.join(ROOT, ".bench_e2e_tmp")
RESULTS = os.path.join(HERE, "results")
SERVE = os.path.join(HERE, "serve.py")
MIN_REPS, MAX_REPS = 3, 12
ELAPSED_CAP = 2.2       # x --seconds: stop repeating once a run has taken this long
CALL_SAMPLE = 500       # ops counted under sys.setprofile

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)
UNITS = {
    m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
}
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]

PRECONDITIONS = {
    # Each workload proves, per repetition, that it measures what it says.
    "oltp_update": [
        ("data fits the pool: no evictions", lambda d, t: d["buffer_evictions"] == 0),
        ("archive off", lambda d, t: t.engine["archive"] is None),
    ],
    "oltp_pressure": [
        ("buffer hit ratio < 0.95", lambda d, t: d["buffer_hits"]
         < 0.95 * (d["buffer_hits"] + d["buffer_misses"])),
        ("pages are evicted", lambda d, t: d["buffer_evictions"] > 0),
        ("cold history migrates", lambda d, t: d["archive_pages_migrated"] > 0),
        ("three value lengths written",
         lambda d, t: t.value_lengths == (32, 256, 2048)),
    ],
    "asof_deep": [
        ("the log is idle", lambda d, t: d["log_appends"] == 0),
        ("archive blocks are read", lambda d, t: d["archive_block_reads"] > 0),
        ("the route cache hits", lambda d, t: d["route_cache_hits"] > 0),
    ],
    "sql_service": [
        ("nothing refused", lambda d, t: d["service_rejects"] == 0),
        ("nothing timed out", lambda d, t: d["service_timeouts"] == 0),
        ("requests of the two connections overlap",
         lambda d, t: d["service_peak_inflight"] >= 2),
    ],
}


# -- running one list of ops ----------------------------------------------------

def execute(ops, do, rep, lat, cal, tracer=None, stream="0") -> None:
    """Run one client's ops in order; time each; check each answer after it.

    Between ops, every few milliseconds, ``cal`` times a slice of the
    calibration kernel: what it tallies is not part of any op.
    """
    now, check, period = time.perf_counter, workloads.check, cal.PERIOD_S
    due = now() + period
    for i, (kind, a, b, expect) in enumerate(ops):
        if tracer is not None:
            tracer.begin_op(kind, f"{stream}:{i + 1}:{kind}")
        start = now()
        try:
            result = do[kind](a, b)
        except Exception as exc:
            result = exc
        end = now()
        lat[i] = end - start
        if tracer is not None:
            tracer.end_op()
        if end >= due:
            cal.slice()
            due = now() + period
        if isinstance(result, Exception):
            rep["failed"] += 1
            rep["notes"].append(f"op {stream}:{i} {kind} raised {result!r}")
            continue
        try:
            right = check(kind, result, expect)
        except (KeyError, TypeError, IndexError):   # not even the right shape
            right = False
        if not right:
            rep["wrong"] += 1
            rep["notes"].append(f"op {stream}:{i} {kind}({a!r}, ..): wrong answer")


def count_calls(ops, do) -> dict:
    """Function calls per op of each kind (Python and built-in, as cProfile
    counts them), by ``sys.setprofile``: an exact count."""
    calls, seen = {}, {}
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event in ("call", "c_call"):
            count += 1

    for kind, a, b, _ in ops[:CALL_SAMPLE]:
        count = 0
        sys.setprofile(profile)
        try:
            do[kind](a, b)
        finally:
            sys.setprofile(None)
        calls[kind] = calls.get(kind, 0) + count
        seen[kind] = seen.get(kind, 0) + 1

    def per_op(kinds) -> float | None:
        n = sum(seen.get(k, 0) for k in kinds)
        return sum(calls.get(k, 0) for k in kinds) / n if n else None

    return {
        "core.py_calls_per_write": per_op(layers.WRITES),
        "core.py_calls_per_read": per_op(("read",)),
        "core.py_calls_per_asof": per_op(("asof",)),
    }


def new_rep() -> dict:
    return {"failed": 0, "wrong": 0, "missing": 0, "notes": []}


def delta(before: dict, after: dict) -> dict:
    return {k: after[k] - before[k] for k in after}


def check_rows(rep, task, rows: dict, history_of, when: str) -> None:
    """Every row every client was acknowledged for, and nothing else."""
    expected = task.final_rows
    bad = [k for k in expected.keys() | (rows.keys() - task.hot.keys())
           if rows.get(k) != expected.get(k)]
    for key, (versions, values) in task.hot.items():
        # A shared key's newest value depends on the interleaving; its
        # version count does not: the preload plus every acked update.
        if rows.get(key) not in values or len(history_of(key)) != versions:
            bad.append(key)
    if bad:
        rep["missing"] += len(bad)
        rep["notes"].append(f"{when}: {len(bad)} keys differ, e.g. {sorted(bad)[:5]}")


def check_integrity(rep, problems: list, when: str) -> None:
    if problems:
        rep["missing"] += len(problems)
        rep["notes"].append(f"{when}: engine integrity check: {problems[:3]}")


def check_marks(rep, task, asof, when: str) -> None:
    bad = [
        (key, mark) for key, mark, value in task.mark_checks
        if not workloads.check("asof", asof(key, mark), value)
    ]
    if bad:
        rep["missing"] += len(bad)
        rep["notes"].append(f"{when}: {len(bad)} as-of reads differ, e.g. {bad[:5]}")


def check_preconditions(rep, task) -> None:
    for what, holds in PRECONDITIONS[task.name]:
        if not holds(rep["delta"], task):
            rep["failed"] += 1
            rep["notes"].append(f"precondition violated: {what}")


# -- one repetition ---------------------------------------------------------------

def engine_rep(task, directory, cal, tracer=None) -> dict:
    """Build the database, run the task in this process, crash it, re-check."""
    rep = new_rep()
    gc.collect()
    setup_cal, run_cal = cal.fork(), cal.fork()
    setup_cal.burst()
    start = time.perf_counter()
    engine = adapter.Engine(directory, **task.engine)
    try:
        engine.apply_setup(task.setup, between=setup_cal.burst)
        read_only = task.user_bytes_timed == 0
        if read_only:
            engine.warm()
        rep["setup_s"] = time.perf_counter() - start - setup_cal.wall_s
        setup_cal.burst()
        rep["setup_x"] = setup_cal.wall_x
        ops = task.streams[0]
        lat = [0.0] * len(ops)
        if tracer is not None:
            tracer.reset()
        before = engine.counters()
        cpu, start = time.process_time(), time.perf_counter()
        execute(ops, engine.ops, rep, lat, run_cal, tracer)
        engine.flush()
        rep["wall_s"] = time.perf_counter() - start - run_cal.wall_s
        rep["cpu_s"] = time.process_time() - cpu - run_cal.cpu_s
        rep["wall_x"], rep["cpu_x"] = run_cal.wall_x, run_cal.cpu_x
        rep["end"] = engine.counters()
        if tracer is not None:
            rep["agg"] = tracer.aggregates()
        rep["delta"] = delta(before, rep["end"])
        rep["lat"], rep["ops"] = [lat], task.ops
        if not read_only:
            rep.update(engine.crash_recover())
        check_rows(rep, task, engine.rows(), engine.ops["history"], "after recovery")
        check_marks(rep, task, engine.ops["asof"], "after recovery")
        rep["stored_bytes"] = engine.stored_bytes()
        check_integrity(rep, engine.integrity_problems(), "after recovery")
    finally:
        engine.close()
    rep["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check_preconditions(rep, task)
    return rep


def service_rep(task, directory, seed, scale, cal, tracer=None) -> dict:
    """Spawn the server child, drive it over TCP from one thread per stream."""
    rep = new_rep()
    gc.collect()
    setup_cal = cal.fork()
    cals = [cal.fork() for _ in task.streams]       # one per thread
    setup_cal.burst(25)
    start = time.perf_counter()
    server = adapter.ServiceProcess(
        SERVE, directory, task.name, seed, scale, tracer is not None
    )
    conns = []
    try:
        for i in range(len(task.streams)):
            conns.append(adapter.ServiceConn(server.port, server.marks, str(i)))
        checker = adapter.ServiceConn(server.port, server.marks, "check")
        conns.append(checker)
        rep["setup_s"] = time.perf_counter() - start
        setup_cal.burst(25)
        rep["setup_x"] = setup_cal.wall_x
        lats = [[0.0] * len(ops) for ops in task.streams]
        barrier = threading.Barrier(len(task.streams) + 1)

        outcomes = [new_rep() for _ in task.streams]    # one per thread

        def client(i: int) -> None:
            barrier.wait()
            execute(task.streams[i], conns[i].ops, outcomes[i], lats[i], cals[i],
                    tracer, str(i))

        threads = [
            threading.Thread(target=client, args=(i,), name=f"client-{i}")
            for i in range(len(task.streams))
        ]
        for thread in threads:
            thread.start()
        if tracer is not None:
            tracer.reset()
            server.command("trace_reset")
        before = server.command("snapshot")
        cpu, start = time.process_time(), time.perf_counter()
        barrier.wait()
        for thread in threads:
            thread.join()
        # Ends with the last ack, so everything is durable.  Each thread
        # spent a share of the time slicing instead of sending: take it out.
        rep["wall_s"] = (time.perf_counter() - start
                         - sum(c.wall_s for c in cals) / len(cals))
        cpu = time.process_time() - cpu - sum(c.cpu_s for c in cals)
        after = server.command("snapshot")
        rep["cpu_s"] = cpu + after["cpu_s"] - before["cpu_s"]
        slices = sum(c.slices for c in cals)
        rep["wall_x"] = sum(c.wall_s for c in cals) / slices / cal.REF_S
        rep["cpu_x"] = sum(c.cpu_s for c in cals) / slices / cal.REF_S
        for outcome in outcomes:
            for key, value in outcome.items():
                rep[key] += value
        rep["end"] = after["counters"]
        rep["delta"] = delta(before["counters"], rep["end"])
        rep["lat"], rep["ops"] = lats, task.ops
        if tracer is not None:
            rep["agg"] = tracer.aggregates()
            dump = server.command("trace_dump")
            rep["server_agg"] = {(c, n): rec for c, n, *rec in dump["aggregates"]}
            rep["server_spans"] = dump["spans"]

        def all_rows() -> dict:
            return {row["k"]: row["v"] for row in checker.rows("all")}

        def history_of(key) -> list:
            return checker.rows("history", key)

        check_rows(rep, task, all_rows(), history_of, "before the crash")
        rep.update(server.command("crash_recover"))
        check_rows(rep, task, all_rows(), history_of, "after recovery")
        check_marks(rep, task, checker.ops["asof"], "after recovery")
        rep["stored_bytes"] = server.command("stored_bytes")["stored_bytes"]
        check_integrity(rep, server.command("integrity")["problems"], "after recovery")
        rep["peak_rss_mb"] = server.command("snapshot")["peak_rss_mb"]
    finally:
        for conn in conns:
            conn.close()
        server.stop()
    check_preconditions(rep, task)
    return rep


def service_control(task, engine, cal) -> tuple:
    """``sql_service``'s in-run control: stream 0 through an in-process session.

    Same set-up, same statements, no socket, no server: the ratio of the
    two point-read medians is ``service.gap_x``.  Returns the control's
    median, its call counts and how many of its statements failed.
    """
    local = adapter.LocalSql(engine)
    rep, ops = new_rep(), task.streams[0]
    lat = [0.0] * len(ops)
    cal = cal.fork()
    execute(ops, local.ops, rep, lat, cal)
    reads = [s for op, s in zip(ops, lat) if op[0] == "read"]
    calls = count_calls(task.streams[1], local.ops)    # its inserts are still new
    return (percentile(reads, 50) * 1e3 / cal.wall_x, calls,
            rep["failed"] + rep["wrong"])


# -- one workload -------------------------------------------------------------------

def run_workload(name, seed, seconds, trace, quick) -> dict:
    """All repetitions of one workload; returns its full result."""
    scale = 0.1 if quick else 1.0
    start = time.perf_counter()
    task = workloads.generate(name, seed, scale)
    generate_s = time.perf_counter() - start
    is_service = len(task.streams) > 1
    base = os.path.join(SCRATCH, f"{os.getpid()}")
    cal = Calibrator()
    made = 0

    def one_rep(tracer=None) -> dict:
        nonlocal made
        made += 1
        directory = os.path.join(base, f"rep{made}")
        os.makedirs(directory)
        try:
            if is_service:
                return service_rep(task, directory, seed, scale, cal, tracer)
            return engine_rep(task, directory, cal, tracer)
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    budget = seconds / 2 if trace == "1" else seconds
    reps, measured = [], 0.0
    try:
        while True:
            rep = one_rep()
            reps.append(rep)
            measured += rep["wall_s"]
            if quick or len(reps) >= MAX_REPS:
                break
            # On a slow day set-up and checks stretch too: never let the
            # whole run take much more than twice what it measures.
            overdue = time.perf_counter() - start > ELAPSED_CAP * seconds
            if len(reps) >= MIN_REPS and (measured >= budget or overdue):
                break
        per_rep = [layers.rep_metrics(task, rep) for rep in reps]
        names = sorted(set().union(*per_rep))
        metrics = {
            n: summarize([m[n] for m in per_rep if n in m]) for n in names
        }
        control_failed = 0
        if trace != "0":
            rep, traced, control_failed = traced_rep(
                task, one_rep, metrics, base, is_service, cal)
            reps.append(rep)
            metrics.update({n: summarize([v]) for n, v in traced.items()})
    finally:
        shutil.rmtree(base, ignore_errors=True)
        if os.path.isdir(SCRATCH) and not os.listdir(SCRATCH):
            os.rmdir(SCRATCH)

    failed = control_failed + sum(
        r["failed"] + r["wrong"] + r["missing"] for r in reps)
    wanted = {"0": END_TO_END, "1": PER_LAYER, "both": END_TO_END + PER_LAYER}[trace]
    absent = [n for n in END_TO_END if n in wanted and n not in metrics]
    if absent and not quick:
        raise SystemExit(f"run.py: {name} did not produce {absent}")
    return {
        "workload": name, "seed": seed, "digest": task.digest,
        "repetitions": len(reps), "generate_s": generate_s,
        "correct": failed == 0, "attempted": task.ops * len(reps), "failed": failed,
        "notes": [note for r in reps for note in r["notes"]][:50],
        "metrics": {
            n: {"unit": UNITS[n], **metrics.get(n, summarize([0.0]))}
            for n in wanted if n in metrics or not quick
        },
        "counts": reps[0]["delta"],
    }


def traced_rep(task, one_rep, metrics, base, is_service, cal) -> tuple:
    """The traced repetition, the call-count sample and the in-run control.

    Returns the repetition, the metrics only it can give, and how many
    statements of the control failed.
    """
    tracer = Tracer()
    tracer.install(adapter.SPANS)
    try:
        rep = one_rep(tracer)
    finally:
        tracer.uninstall()
    out = layers.traced_metrics(task, rep, metrics["ops_per_s"]["value"])
    write_spans(task.name, tracer.spans + rep.pop("server_spans", []))
    directory = os.path.join(base, "control")
    os.makedirs(directory)
    control_failed = 0
    engine = adapter.Engine(directory, **task.engine)
    try:
        engine.apply_setup(task.setup)
        if is_service:
            read_p50_ms, calls, control_failed = service_control(task, engine, cal)
            out["service.gap_x"] = metrics["read_p50_ms"]["value"] / read_p50_ms
        else:
            calls = count_calls(task.streams[0], engine.ops)
    finally:
        engine.close()
    out.update(calls)
    return rep, {n: v for n, v in out.items() if v is not None}, control_failed


def write_spans(name: str, spans: list) -> None:
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"spans-{name}.jsonl"), "w") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


# -- command line ---------------------------------------------------------------------

def report(result: dict) -> None:
    """Every metric by name with its unit, then the one-line result."""
    print(f"== {result['workload']}  seed {result['seed']}  "
          f"{result['repetitions']} repetitions  task {result['digest'][:12]}")
    for note in result["notes"]:
        print(f"   ! {note}")
    for name, m in result["metrics"].items():
        print(f"{name:<42} {m['value']:>14.6g} {m['unit']:<6} "
              f"[{m['q1']:.6g} .. {m['q3']:.6g}] n={m['n']}")
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            n: {"value": m["value"], "unit": m["unit"]}
            for n, m in result["metrics"].items()
        },
    }), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=12)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", choices=("0", "1", "both"), default="both")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: 1 repetition, a tenth of the ops")
    parser.add_argument("--out", help="write the full results as JSON here")
    args = parser.parse_args(argv)

    if args.workload:
        results = [run_workload(
            args.workload, args.seed, args.seconds, args.trace, args.quick)]
        report(results[0])
    else:
        # One process per workload: peak RSS and GC state do not leak across.
        results = []
        parts = os.path.join(SCRATCH, f"parts-{os.getpid()}")
        os.makedirs(parts)
        try:
            for name in workloads.NAMES:
                part = os.path.join(parts, f"{name}.json")
                command = [sys.executable, os.path.abspath(__file__),
                           "--workload", name, "--seed", str(args.seed),
                           "--seconds", str(args.seconds), "--trace", args.trace,
                           "--out", part] + ["--quick"] * args.quick
                code = subprocess.run(command).returncode
                if not os.path.exists(part):
                    return code or 1
                with open(part) as fh:
                    results.extend(json.load(fh)["workloads"].values())
        finally:
            shutil.rmtree(parts)
            if not os.listdir(SCRATCH):
                os.rmdir(SCRATCH)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({
                "schema": 1, "mode": "quick" if args.quick else "full",
                "seed": args.seed, "seconds": args.seconds,
                "workloads": {r["workload"]: r for r in results},
            }, fh, indent=1)
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
