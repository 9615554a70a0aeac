"""Seeded interleaving sweep: many schedules, one timestamp-keyed oracle.

Each seed builds a fresh in-memory engine, spawns a small cast of
transaction scripts under the deterministic
:class:`~repro.workers.interleave.InterleaveScheduler` (preempting at
failpoint crossings with the scheduler's seeded RNG), then feeds every
*committed* transaction into the crash explorer's oracle
(:mod:`repro.faults.oracle`) and checks:

* **Serialization = timestamp order**: for every commit timestamp, the
  engine's ``read_as_of`` answers equal the oracle's ``as_of``, the fold
  of the commits in timestamp order.
* **No lost updates**: counter keys are only modified by read-modify-write
  increments, so the final counter total must equal the number of
  committed increments.
* **Structural integrity**: ``verify_integrity`` reports no problems.

A slice of the seeds (``seed % 4 == 0``) additionally runs a *forced
deadlock*: two scripts locking the same two keys in opposite order with a
directed handoff in between, so the sweep always exercises cycle
detection, victim abort, and post-abort drain — not just whatever
conflicts the random schedules happen to produce.

Run it::

    PYTHONPATH=src python -m repro.workers.sweep --seeds 100

Exit status is non-zero if any seed reports a violation.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from repro.core.engine import ImmortalDB
from repro.core.integrity import page_accounting, verify_integrity
from repro.core.rowcodec import ColumnType
from repro.errors import ConcurrencyError, DeadlockError
from repro.faults.failpoints import FailpointRegistry, installed
from repro.faults.oracle import Oracle
from repro.workers.interleave import InterleaveScheduler

#: Keys 0..N-1 are counters (RMW increments only); the rest take blind puts.
N_COUNTERS = 4
N_KEYS = 8


def _setup_db() -> tuple[ImmortalDB, object]:
    db = ImmortalDB(buffer_pages=64)
    table = db.create_table(
        "Sweep",
        columns=[("k", ColumnType.INT), ("v", ColumnType.INT)],
        key="k",
        immortal=True,
    )
    with db.transaction() as txn:
        for k in range(N_KEYS):
            table.insert(txn, {"k": k, "v": 0})
    return db, table


def _script(db, table, rng: random.Random, txns: int, record: dict):
    """A worker script: ``txns`` transactions of seeded conflicting ops."""

    def body(ctx):
        for _ in range(txns):
            txn = db.begin()
            writes: dict[int, int] = {}
            increments = 0
            try:
                for _ in range(rng.randint(1, 3)):
                    op = rng.random()
                    if op < 0.45:      # counter increment (lost-update bait)
                        k = rng.randrange(N_COUNTERS)
                        row = table.read(txn, k)
                        table.update(txn, k, {"v": row["v"] + 1})
                        writes[k] = row["v"] + 1
                        increments += 1
                    elif op < 0.65:    # two-key RMW, random order: deadlocks
                        ks = rng.sample(range(N_COUNTERS), 2)
                        for k in ks:
                            row = table.read(txn, k)
                            table.update(txn, k, {"v": row["v"] + 1})
                            writes[k] = row["v"] + 1
                            increments += 1
                    elif op < 0.85:    # blind put on a non-counter key
                        k = N_COUNTERS + rng.randrange(N_KEYS - N_COUNTERS)
                        value = rng.randrange(1_000_000)
                        table.update(txn, k, {"v": value})
                        writes[k] = value
                    else:              # plain read
                        table.read(txn, rng.randrange(N_KEYS))
                    if rng.random() < 0.3:
                        ctx.pause()
                ts = db.commit(txn)
                if writes:   # read-only commits have no timestamp
                    record["commits"].append((ts, dict(writes)))
                record["increments"] += increments
            except DeadlockError:
                record["deadlock_aborts"] += 1
                db.abort(txn)
            except ConcurrencyError:
                record["aborts"] += 1
                db.abort(txn)

    return body


def _run_forced_deadlock(db, table, record: dict) -> None:
    """A deterministic scripted round: two transactions lock counters 0
    and 1 in opposite orders with directed handoffs, guaranteeing a
    waits-for cycle.  The survivor's commit folds into ``record`` like
    any other; the victim's abort is counted."""

    def crossing(first: int, second: int, peer: str):
        def body(ctx):
            txn = db.begin()
            writes: dict[int, int] = {}
            try:
                row = table.read(txn, first)
                table.update(txn, first, {"v": row["v"] + 1})
                writes[first] = row["v"] + 1
                ctx.pause(to=peer)
                row = table.read(txn, second)
                table.update(txn, second, {"v": row["v"] + 1})
                writes[second] = row["v"] + 1
                ts = db.commit(txn)
                record["commits"].append((ts, writes))
                record["increments"] += len(writes)
            except DeadlockError:
                record["deadlock_aborts"] += 1
                db.abort(txn)

        return body

    sched = InterleaveScheduler(db)   # no preemption: pure directed script
    sched.spawn("DX", crossing(0, 1, "DY"))
    sched.spawn("DY", crossing(1, 0, "DX"))
    sched.run()


def run_one(
    seed: int,
    *,
    scripts: int = 3,
    txns: int = 4,
    switch_probability: float = 0.25,
) -> dict:
    """Run one seeded schedule; returns a report with any violations."""
    db, table = _setup_db()
    forced = seed % 4 == 0
    record = {
        "commits": [], "increments": 0, "deadlock_aborts": 0, "aborts": 0
    }

    if forced:
        _run_forced_deadlock(db, table, record)

    sched = InterleaveScheduler(
        db, seed=seed, switch_probability=switch_probability
    )
    registry = FailpointRegistry()
    sched.attach_failpoints(registry)
    for i in range(scripts):
        rng = random.Random((seed << 16) ^ (i + 1))
        sched.spawn(f"W{i}", _script(db, table, rng, txns, record))
    with installed(registry):
        sched.run()
    db.flush_commits()

    violations: list[str] = []
    stats = db.stats()

    if forced and stats["deadlocks_detected"] < 1:
        violations.append("forced deadlock was not detected")

    # -- the oracle: as-of answers at every commit (every key starts at 0) ---
    commits: dict = {}
    for ts, writes in sorted(record["commits"], key=lambda item: item[0]):
        commits.setdefault(ts, {}).update(writes)   # a shared ts folds as one
    if len(commits) != len(record["commits"]):
        violations.append("duplicate commit timestamps")
    oracle = Oracle()
    for ts, writes in commits.items():
        oracle.begin(writes)
        oracle.durable(ts)      # a forced commit is durable before it returns
        oracle.committed(ts)
        expected = oracle.as_of(ts)     # no later commit can change it
        for k in range(N_KEYS):
            row = table.read_as_of(ts, k)
            got = row["v"] if row is not None else None
            if got != expected.get(k, 0):
                violations.append(
                    f"as-of mismatch at ts={ts} key={k}: "
                    f"engine={got} oracle={expected.get(k, 0)}"
                )

    # -- lost updates: counter totals must equal committed increments --------
    with db.transaction() as txn:
        total = sum(table.read(txn, k)["v"] for k in range(N_COUNTERS))
    if total != record["increments"]:
        violations.append(
            f"lost updates: counters total {total}, "
            f"committed increments {record['increments']}"
        )

    problems = verify_integrity(db)
    violations.extend(f"integrity: {p}" for p in problems)
    orphans = page_accounting(db).orphans
    if orphans:
        violations.append(f"orphan page ids: {orphans}")

    return {
        "seed": seed,
        "forced_deadlock": forced,
        "commits": len(record["commits"]),
        "deadlock_aborts": record["deadlock_aborts"],
        "other_aborts": record["aborts"],
        "deadlocks_detected": stats["deadlocks_detected"],
        "lock_waits": stats["lock_waits"],
        "violations": violations,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="seeded interleaving sweep with as-of oracle checks"
    )
    parser.add_argument("--seeds", type=int, default=100)
    parser.add_argument("--start", type=int, default=0)
    parser.add_argument("--scripts", type=int, default=3)
    parser.add_argument("--txns", type=int, default=4)
    parser.add_argument("--switch-prob", type=float, default=0.25)
    parser.add_argument("--json", action="store_true",
                        help="emit the full per-seed reports as JSON")
    args = parser.parse_args(argv)

    reports = []
    failed = 0
    for seed in range(args.start, args.start + args.seeds):
        report = run_one(
            seed,
            scripts=args.scripts,
            txns=args.txns,
            switch_probability=args.switch_prob,
        )
        reports.append(report)
        if report["violations"]:
            failed += 1
            print(f"seed {seed}: VIOLATIONS", file=sys.stderr)
            for v in report["violations"]:
                print(f"  - {v}", file=sys.stderr)

    summary = {
        "seeds": args.seeds,
        "failed": failed,
        "commits": sum(r["commits"] for r in reports),
        "deadlocks_detected": sum(r["deadlocks_detected"] for r in reports),
        "deadlock_aborts": sum(r["deadlock_aborts"] for r in reports),
        "lock_waits": sum(r["lock_waits"] for r in reports),
        "forced_deadlock_seeds": sum(
            1 for r in reports if r["forced_deadlock"]
        ),
    }
    if args.json:
        print(json.dumps({"summary": summary, "reports": reports}, indent=2))
    else:
        print(json.dumps(summary, indent=2))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
