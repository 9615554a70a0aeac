"""Crash-point exploration: crash everywhere, recover, verify — repeatably.

The harness answers the paper's hardest question empirically: does lazy
timestamping (whose persistence is *never* logged) plus ARIES-style
recovery keep the database — current state **and** history — correct when
the process dies at an arbitrary instruction, not just at a quiescent
transaction boundary?

Protocol:

1. **Enumerate** — run a seeded workload once with a tracing
   :class:`~repro.faults.failpoints.FailpointRegistry` installed, recording
   every failpoint crossing (commit stages, log appends/forces, buffer
   flushes/evictions, checkpoint phases, page writes).
2. **Explore** — for each crossing *k*, re-run the identical workload from
   scratch, crash (raise ``SimulatedCrash``) at crossing *k*, then run
   ``db.crash()`` / ``db.recover()`` and check:

   * ``verify_integrity(db, strict=True)`` stays clean;
   * the current state equals the shadow oracle's committed model (with the
     one permitted ambiguity: a transaction whose commit record may or may
     not have become durable before the crash);
   * every as-of mark captured before the crash still reproduces exactly.

3. **Replay** — any failure prints a one-line repro command carrying only
   the seed, the profile and the crossing index.

There is one explorer.  What is crashed (an engine, a service over a
loopback wire, a sharded cluster) and what happens at the crossing (a
crash, a disk fault, a wire fault) is a :class:`Scenario` — five callables
the explorer composes; the engine under every scenario is built from one
of the two :data:`repro.PROFILES`.

Run it: ``PYTHONPATH=src python -m repro.faults.crashtest --profile tuned``.
"""

from __future__ import annotations

import argparse
import random
import sys
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

from repro import PROFILES
from repro.core.engine import ImmortalDB
from repro.errors import ConnectionLostError, ImmortalDBError, InDoubtError
from repro.core.integrity import IntegrityError, page_accounting, verify_integrity
from repro.core.rowcodec import ColumnType
from repro.faults.failpoints import FailpointRegistry, SimulatedCrash, installed
from repro.faults.models import (
    FAULT_KINDS,
    NETWORK_FAULT_KINDS,
    FaultyDisk,
    FaultyWire,
)
from repro.repair.scrub import Scrubber
from repro.storage.disk import InMemoryDisk

TABLE = "crash"

#: stored-image corruption modes exercised by the media-fault sweep
CORRUPT_MODES = ("bitrot", "garbage", "zero")


@dataclass(frozen=True)
class CrashTestConfig:
    """One deterministic workload: everything derives from the seed."""

    seed: int = 0
    # The defaults are sized so one run crosses every interesting seam:
    # ~700-byte rows over 24 hot keys force time splits, a key split, and a
    # root growth, and 8 buffer frames force mid-transaction evictions.
    transactions: int = 90
    keys: int = 24
    checkpoint_every: int = 7
    mark_every: int = 5
    buffer_pages: int = 8
    value_pad: int = 700
    # The engine under test is ``ImmortalDB(**PROFILES[profile])``: "paper"
    # forces the log at every commit, flushes page by page and evicts LRU;
    # "tuned" — what benchmarks/e2e measures — group-commits (so the oracle
    # widens to every prefix of the un-acked batch), evicts 2Q through
    # batched write-back (crossings between a batch's one log force and
    # each page write), checksums pages and caches as-of routes (so the
    # workload probes an earlier mark mid-run, warming the cache).
    profile: str = "paper"
    # Archive (PR 7): cold-history tiering on, with a horizon short
    # enough that checkpoints migrate pages mid-workload — adding
    # archive.migrate.* / archive.read.* crossings so crashes land inside
    # the migration protocol (between append/sync/relink/free) and during
    # block materialization.
    archive: bool = False
    # At most one of the next four picks the scenario (see SCENARIOS);
    # none of them is the plain engine crash.
    # Run on a FaultyDisk with checksums, write verification, transient-IO
    # retry and media recovery; inject a disk fault instead of crashing.
    media_faults: bool = False
    # Drive the workload through the service core over the loopback wire
    # (real framing, sessions, admission): crashes land at service.* seams.
    service: bool = False
    # The same workload, but arm one network fault instead of crashing.
    service_faults: bool = False
    # Run against an N-shard ShardRouter: crashes land inside 2PC.
    shards: int = 0

    def repro_args(self, crossing: int) -> str:
        parts = [f"--seed {self.seed}"]
        if self.profile != CrashTestConfig.profile:
            parts.append(f"--profile {self.profile}")
        for flag in ("media_faults", "service", "service_faults", "archive"):
            if getattr(self, flag):
                parts.append("--" + flag.replace("_", "-"))
        for option in ("transactions", "keys", "shards"):
            if getattr(self, option) != getattr(CrashTestConfig, option):
                parts.append(f"--{option} {getattr(self, option)}")
        parts.append(f"--crash-point {crossing}")
        return " ".join(parts)


class ShadowOracle:
    """Pure-Python model of what must survive a crash.

    ``committed`` tracks durably-acknowledged commits; ``pending`` the single
    in-flight mutation.  A crash inside commit processing leaves exactly two
    legal outcomes (commit record durable or not), so acceptance is "current
    state ∈ {committed, committed+pending}".  As-of marks are only taken
    between transactions, so they must always reproduce exactly.

    With **group commit** (``group_mode``), a driver-observed commit is only
    *volatile*: its mutation moves to the ``enqueued`` list and reaches
    ``committed`` when the engine's durable-commit hook fires
    (:meth:`on_durable`).  A crash can then lose any un-acked suffix of the
    batch, so the acceptable states widen to every prefix of ``enqueued``
    applied on top of ``committed`` (plus ``pending`` at the end).
    """

    def __init__(self) -> None:
        self.committed: dict[int, str] = {}
        self.marks: list[tuple[Any, dict[int, str]]] = []
        self.pending: dict[int, str | None] | None = None
        self.group_mode = False
        self.enqueued: list[dict[int, str | None]] = []

    def begin(self, mutation: dict[int, str | None]) -> None:
        self.pending = mutation

    def commit_observed(self) -> None:
        if self.group_mode:
            # The durable hook may already have consumed pending (the window
            # filled during this very commit call); otherwise the commit is
            # volatile until the next force acks it.
            if self.pending is not None:
                self.enqueued.append(self.pending)
                self.pending = None
            return
        assert self.pending is not None
        self._apply(self.committed, self.pending)
        self.pending = None

    def on_durable(self) -> None:
        """Engine hook: the next volatile commit just became durable."""
        if self.enqueued:
            self._apply(self.committed, self.enqueued.pop(0))
        elif self.pending is not None:
            # Ack arrived inside the driver's commit call, before
            # commit_observed could move pending into the queue.
            self._apply(self.committed, self.pending)
            self.pending = None

    def mark(self, ts) -> None:
        """Snapshot the committed state at ``ts`` (a Timestamp or ISO string)."""
        self.marks.append((ts, dict(self.committed)))

    @staticmethod
    def _apply(state: dict[int, str], mutation: dict[int, str | None]) -> None:
        for key, value in mutation.items():
            if value is None:
                state.pop(key, None)
            else:
                state[key] = value

    def acceptable_states(self) -> list[dict[int, str]]:
        states = [dict(self.committed)]
        cursor = dict(self.committed)
        for mutation in self.enqueued:
            cursor = dict(cursor)
            self._apply(cursor, mutation)
            if cursor not in states:
                states.append(cursor)
        if self.pending is not None:
            extra = dict(cursor)
            self._apply(extra, self.pending)
            if extra not in states:
                states.append(extra)
        return states


# ---------------------------------------------------------------------------
# The system under test
# ---------------------------------------------------------------------------


@dataclass
class Rig:
    """What one run drives: an engine or a cluster, and maybe a wire to it.

    ``db`` is an :class:`ImmortalDB` or a ``ShardRouter`` — the workloads
    and checks use only what both offer (``begin``/``commit``,
    ``advance_time``, ``flush_commits``, ``checkpoint``, ``crash``).
    """

    db: Any
    table: Any
    conn: Any = None        # LoopbackConnection, in the service scenarios
    wire: Any = None        # its FaultyWire, in the wire-fault scenario

    @property
    def engines(self) -> list[ImmortalDB]:
        return [s.db for s in getattr(self.db, "shards", ())] or [self.db]


def build(config: CrashTestConfig) -> Rig:
    """A fresh in-memory system with the harness table (nothing armed)."""
    engine = dict(PROFILES[config.profile], buffer_pages=config.buffer_pages)
    if config.archive:
        # A ~500 ms horizon (25 ticks) with the workload's 5-250 ms time
        # advances guarantees checkpoints find cold pages to migrate, so
        # the enumerate pass crosses every archive.migrate.* stage.
        engine["archive"] = {"cold_ms": 500.0, "pages_per_step": 4}
    if config.shards:
        from repro.cluster import ShardRouter

        db = ShardRouter.for_int_keys(
            config.shards, key_space=config.keys, **engine
        )
    else:
        if config.media_faults:
            engine.update(
                disk=FaultyDisk(InMemoryDisk(), seed=config.seed),
                page_checksums=True, media_recovery=True,
            )
        db = ImmortalDB(**engine)
    table = db.create_table(
        TABLE, [("k", ColumnType.INT), ("v", ColumnType.TEXT)],
        key="k", immortal=True,
    )
    rig = Rig(db, table)
    if config.service or config.service_faults:
        from repro.service.core import ServiceCore
        from repro.service.transport import LoopbackConnection

        core = ServiceCore(db)   # inline execution: crashes propagate in-stack
        rig.wire = FaultyWire(seed=config.seed) if config.service_faults else None
        rig.conn = LoopbackConnection(
            core, wire=rig.wire, client_key=f"crash-s{config.seed}"
        )
    return rig


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _draw_value(
    rng: random.Random, config: CrashTestConfig, i: int, exists: bool,
    tag: str = "",
) -> str | None:
    """The next value for a key: ``None`` deletes it (only if it exists)."""
    if exists and rng.random() < 0.2:
        return None
    return f"s{config.seed}i{i}{tag}" + "x" * rng.randrange(config.value_pad)


def run_workload(rig: Rig, config: CrashTestConfig, oracle: ShadowOracle) -> None:
    """The seeded single-writer workload; identical run-to-run by design.

    Explicit begin/commit (never ``with db.transaction()``): the context
    manager's exception path would *abort* the transaction after a
    simulated crash — post-mortem work a real dead process cannot do.

    Against a cluster, single-shard mutations take the router's fast path
    (the engine's ordinary commit) and every third mutation pairs the key
    with a partner key on a *different* shard, committed atomically through
    presumed-abort 2PC.  The oracle treats the pair as one mutation, so a
    crash anywhere inside the protocol leaves exactly two acceptable
    outcomes — both keys updated or neither — and a half-applied pair is an
    atomicity finding.
    """
    db, table = rig.db, rig.table
    profile = PROFILES[config.profile]
    if profile.get("group_commit_window", 1) > 1:
        oracle.group_mode = True
        for engine in rig.engines:
            engine.txn_mgr.durable_commit_hook = lambda txn: oracle.on_durable()
    rng = random.Random(config.seed)
    # The driver's view of which keys exist; with group commit,
    # oracle.committed lags the driver (volatile commits are in the queue),
    # so the workload's branch decisions consult the driver-side view.
    observed: dict[int, bool] = {}
    for i in range(config.transactions):
        db.advance_time(rng.uniform(5.0, 250.0))
        key = rng.randrange(config.keys)
        mutation = {key: _draw_value(rng, config, i, observed.get(key, False))}
        if config.shards and i % 3 == 2 and config.keys >= 2 * config.shards:
            partner = (key + config.keys // config.shards) % config.keys
            while db.route(partner) is db.route(key):
                partner = (partner + 1) % config.keys
            mutation[partner] = _draw_value(rng, config, i, False, tag="p")
        oracle.begin(mutation)
        txn = db.begin()
        for k, value in mutation.items():
            if value is None:
                table.delete(txn, k)
            elif observed.get(k, False):
                table.update(txn, k, {"v": value})
            else:
                table.insert(txn, {"k": k, "v": value})
        db.commit(txn)
        oracle.commit_observed()
        for k, value in mutation.items():
            observed[k] = value is not None
        if i % config.mark_every == config.mark_every - 1:
            # Settle the batch so the mark snapshots a durable state (a
            # no-op when group commit is off or the queue is empty).
            db.flush_commits()
            oracle.mark(db.now())
            if profile.get("asof_route_cache"):
                # Probe an earlier mark mid-workload: this warms the as-of
                # route cache (adding asof.route.* crossings to explore)
                # and checks it live against the oracle's snapshot.
                ts, snapshot = oracle.marks[rng.randrange(len(oracle.marks))]
                probed = {r["k"]: r["v"] for r in table.scan_as_of(ts)}
                if probed != snapshot:
                    raise AssertionError(
                        f"mid-workload as-of divergence at {ts}: "
                        f"{probed!r} != {snapshot!r}"
                    )
        if i % config.checkpoint_every == config.checkpoint_every - 1:
            db.checkpoint(flush=(i // config.checkpoint_every) % 2 == 0)


def run_service_workload(
    rig: Rig, config: CrashTestConfig, oracle: ShadowOracle
) -> None:
    """The seeded workload, driven through the service protocol.

    The oracle is strictly *ack-based*: a mutation counts as committed only
    once the client has decoded an ``ok`` response — which, by the service's
    durability gate, implies the commit record was forced.  A crash mid-
    request leaves the mutation in ``pending`` (the one permitted
    ambiguity).  Every ninth operation opens a transaction bracket, writes
    a poison value, and drops the connection — the abort-on-disconnect
    path; poison must never appear in any verified state.

    As-of marks are ISO datetime strings (the protocol's temporal
    currency): probed live through ``SELECT … AS OF`` over the wire, and
    re-verified post-recovery through the engine, so wire and engine views
    must agree before *and* after the crash.
    """
    db, conn = rig.db, rig.conn
    rng = random.Random(config.seed)
    observed: dict[int, bool] = {}
    for i in range(config.transactions):
        db.advance_time(rng.uniform(5.0, 250.0))
        key = rng.randrange(config.keys)
        live_keys = [k for k, alive in observed.items() if alive]
        if i % 9 == 4 and live_keys:
            # Mid-transaction disconnect: bracket, write poison, vanish.
            # An injected network fault may kill the bracket before the
            # deliberate drop does — same outcome (abort), so absorb it.
            victim = live_keys[rng.randrange(len(live_keys))]
            try:
                conn.execute("BEGIN TRAN")
                conn.execute(
                    f"UPDATE {TABLE} SET v = 'poison{i}' WHERE k = {victim}"
                )
            except ConnectionLostError:
                pass
            conn.drop_connection()
        value = _draw_value(rng, config, i, observed.get(key, False))
        oracle.begin({key: value})
        if value is None:
            sql = f"DELETE FROM {TABLE} WHERE k = {key}"
        elif observed.get(key, False):
            sql = f"UPDATE {TABLE} SET v = '{value}' WHERE k = {key}"
        else:
            sql = f"INSERT INTO {TABLE} (k, v) VALUES ({key}, '{value}')"
        response = conn.execute(sql)
        if response.get("status") != "ok":
            raise AssertionError(f"service refused op {i}: {response!r}")
        oracle.commit_observed()
        observed[key] = value is not None
        if i % config.mark_every == config.mark_every - 1:
            db.flush_commits()
            mark = db.clock.now_datetime().isoformat(sep=" ")
            # Advance past the mark's tick so later commits sort after it.
            db.clock.advance_ticks(1)
            oracle.mark(mark)
            probe = conn.execute(f"SELECT k, v FROM {TABLE} AS OF '{mark}'")
            if probe.get("status") != "ok":
                raise AssertionError(f"as-of probe failed: {probe!r}")
            live = {row["k"]: row["v"] for row in probe["rows"]}
            if live != oracle.marks[-1][1]:
                raise AssertionError(
                    f"live wire as-of divergence at {mark}: "
                    f"{live!r} != {oracle.marks[-1][1]!r}"
                )
        if i % config.checkpoint_every == config.checkpoint_every - 1:
            db.checkpoint(flush=(i // config.checkpoint_every) % 2 == 0)


# ---------------------------------------------------------------------------
# Arming, recovering, verifying
# ---------------------------------------------------------------------------


@dataclass
class CrashReport:
    """Outcome of crashing (or injecting a fault) at one crossing."""

    crossing: int
    name: str       # the failpoint crashed at, or "<fault kind>@<crossing>"
    crashed: bool   # the crossing was reached: crash raised / fault armed
    problems: list[str] = field(default_factory=list)
    orphans: int = 0    # page ids nothing reaches after crash + recovery

    @property
    def ok(self) -> bool:
        return not self.problems


def _arm_crash(rig: Rig, registry: FailpointRegistry, crossing: int) -> None:
    registry.crash_at(crossing)


def _arm_fault(kinds: tuple[str, ...], device: Callable[[Rig], Any]):
    """Arm one fault, of a kind derived from the crossing, when it is reached.

    The fault hits the device's next matching operation.  Deriving the kind
    from the crossing index keeps a failure's repro line down to the seed
    and the crossing, exactly like a crash.
    """
    def arm(rig: Rig, registry: FailpointRegistry, crossing: int) -> str:
        kind = kinds[crossing % len(kinds)]

        def on_fire(event) -> None:
            if event.crossing == crossing:
                device(rig).arm(kind)

        registry.on("*", on_fire)
        return kind
    return arm


def _restart(rig: Rig, oracle: ShadowOracle, report: CrashReport) -> None:
    rig.db.crash()
    rig.db.recover()
    rig.table = rig.db.table(TABLE)


def _restart_cluster(rig: Rig, oracle: ShadowOracle, report: CrashReport) -> None:
    """Recover the cluster in two stages.

    Stage 1 — ``recover(resolve=False)``: every shard runs ARIES recovery
    but in-doubt prepared transactions stay undecided.  If the crash left
    any, the in-flight mutation's keys must be lock-protected: a writer
    probing them gets the typed ``InDoubtError`` (never a half-visible
    write).  Stage 2 — ``resolve_in_doubt()``: the coordinator's decision
    log (presumed abort) drives every participant to the same outcome.
    """
    router = rig.db
    router.crash()
    router.recover(resolve=False)
    rig.table = table = router.table(TABLE)
    in_doubt = router.in_doubt_gtids()
    if in_doubt and oracle.pending is None:
        report.problems.append(
            f"in-doubt gtids {sorted(in_doubt)} survive but the oracle "
            f"has no in-flight mutation"
        )
    elif in_doubt:
        blocked = 0
        for k in oracle.pending:
            probe = router.begin()
            try:
                table.update(probe, k, {"v": "probe"})
            except InDoubtError:
                blocked += 1
            except ImmortalDBError:
                pass  # e.g. the pending insert is (correctly) invisible
            finally:
                router.abort(probe)
        if blocked == 0:
            report.problems.append(
                f"in-doubt gtids {sorted(in_doubt)} but no pending key "
                f"is lock-protected"
            )
    router.resolve_in_doubt()


def _settle(rig: Rig, oracle: ShadowOracle, report: CrashReport) -> None:
    """A fault scenario's "recovery": the run goes on; quiesce it.

    Every fault kind has an inline defense — transient IO errors are
    retried with backoff, bitrot reads are restored by the buffer's fault
    handler, torn and dropped writes are caught by write verification,
    wire faults by retries and the idempotency cache — so nothing here may
    raise, and no ambiguity is left: no mutation is in flight.
    """
    rig.db.flush_commits()
    assert oracle.pending is None


def _settle_and_scrub(rig: Rig, oracle: ShadowOracle, report: CrashReport) -> None:
    """Media faults, phase two: latent corruption at rest.

    After quiescing, the *stored* image of one allocated page, picked by
    the crossing number (``crossing % page_count`` when no id is free), is
    damaged (mode rotates through bitrot/garbage/zero) and a scrubber pass
    runs.  An id on the free list is no victim: the archive zero-filled it
    and the scrubber rightly skips it.  The scrubber must find the damage,
    restore the page byte-identically from backup + archived log records,
    and come back clean on a second pass.
    """
    _settle(rig, oracle, report)
    rig.db.buffer.flush_all()
    disk: FaultyDisk = rig.db.disk
    # A fault armed very late may find no matching op left in the run;
    # drop it so this phase stays deterministic (it proved nothing either way).
    disk.disarm()
    crossing = report.crossing
    free = disk.free_list or ()
    allocated = [pid for pid in range(disk.page_count) if pid not in free]
    target = allocated[crossing % len(allocated)]
    mode = CORRUPT_MODES[(crossing // len(FAULT_KINDS)) % len(CORRUPT_MODES)]
    good = disk.inner._read(target)
    disk.corrupt_stored(target, mode=mode)
    scrubber = Scrubber(rig.db)
    findings = scrubber.full_pass()
    if not any(f.page_id == target for f in findings):
        report.problems.append(
            f"scrubber missed {mode} corruption on page {target}"
        )
    if disk.inner._read(target) != good:
        report.problems.append(
            f"page {target} not byte-identical after {mode} repair"
        )
    leftover = scrubber.full_pass()
    if leftover:
        report.problems.append(
            f"second scrub pass not clean: "
            f"{sorted({(f.kind, f.page_id) for f in leftover})}"
        )


def _verify(
    rig: Rig, oracle: ShadowOracle, report: CrashReport,
    *, exact: bool = False, after_crash: bool = True,
) -> None:
    """The contract every scenario ends on.

    Strict integrity on every engine and no orphan page id (after a crash
    only counted: the store may have been extended for a structure
    modification whose record was lost); the current state is one the oracle
    accepts (``exact``: the acked state and nothing else — a fault scenario
    has no in-flight mutation to be ambiguous about); no poison from a
    dropped bracket in any of them; every as-of mark reproduces exactly.
    """
    engines = rig.engines
    for n, engine in enumerate(engines):
        try:
            verify_integrity(engine, strict=True)
        except IntegrityError as exc:
            where = f"shard {n} " if len(engines) > 1 else ""
            report.problems.append(f"{where}integrity: {exc}")
        orphans = page_accounting(engine).orphans
        report.orphans += len(orphans)
        if orphans and not after_crash:
            report.problems.append(f"orphan page ids, and no crash: {orphans}")
    db, table = rig.db, rig.table
    txn = db.begin()
    got = {row["k"]: row["v"] for row in table.scan(txn)}
    db.commit(txn)
    acceptable = [oracle.committed] if exact else oracle.acceptable_states()
    if got not in acceptable:
        report.problems.append(
            f"exactly-once violated: state {got!r} != acked {oracle.committed!r}"
            if exact else
            f"current-state divergence: recovered {got!r}, "
            f"acceptable {acceptable!r}"
        )
    for state in [got] + acceptable:
        for value in state.values():
            if value.startswith("poison"):
                report.problems.append(
                    f"dropped bracket leaked into state: {value!r}"
                )
    for mark, snapshot in oracle.marks:
        ts = ImmortalDB.to_timestamp(mark)
        as_of = {row["k"]: row["v"] for row in table.scan_as_of(ts)}
        if as_of != snapshot:
            report.problems.append(
                f"as-of divergence at {mark}: recovered {as_of!r}, "
                f"expected {snapshot!r}"
            )


@dataclass(frozen=True)
class Scenario:
    """What the explorer composes: the five things that differ between sweeps.

    ``arm`` returns ``None`` when it armed a crash, or the kind of fault it
    armed — then the workload must run to completion.
    """

    build: Callable[[CrashTestConfig], Rig]
    workload: Callable[[Rig, CrashTestConfig, ShadowOracle], None]
    arm: Callable[[Rig, FailpointRegistry, int], str | None]
    recover: Callable[[Rig, ShadowOracle, CrashReport], None]
    verify: Callable[[Rig, ShadowOracle, CrashReport], None]


ENGINE_CRASH = Scenario(build, run_workload, _arm_crash, _restart, _verify)

#: the config field that selects each other scenario, most specific first
SCENARIOS = {
    "shards": Scenario(
        build, run_workload, _arm_crash, _restart_cluster, _verify
    ),
    "service_faults": Scenario(
        build, run_service_workload,
        _arm_fault(NETWORK_FAULT_KINDS, lambda rig: rig.wire),
        _settle, partial(_verify, exact=True, after_crash=False),
    ),
    "service": Scenario(
        build, run_service_workload, _arm_crash, _restart, _verify
    ),
    "media_faults": Scenario(
        build, run_workload,
        _arm_fault(FAULT_KINDS, lambda rig: rig.db.disk),
        _settle_and_scrub, partial(_verify, after_crash=False),
    ),
}


def scenario_for(config: CrashTestConfig) -> Scenario:
    return next(
        (s for flag, s in SCENARIOS.items() if getattr(config, flag)),
        ENGINE_CRASH,
    )


# ---------------------------------------------------------------------------
# The explorer
# ---------------------------------------------------------------------------


def enumerate_crossings(config: CrashTestConfig) -> list[str]:
    """Run the workload once, undisturbed; return every crossing's name.
    No crash cuts this run short, so it must orphan no page id."""
    scenario = scenario_for(config)
    rig = scenario.build(config)
    registry = FailpointRegistry()
    registry.trace_on()
    with installed(registry):
        scenario.workload(rig, config, ShadowOracle())
    assert registry.trace is not None
    for engine in rig.engines:
        orphans = page_accounting(engine).orphans
        if orphans:
            raise IntegrityError(f"undisturbed run orphaned page ids {orphans}")
    return registry.trace


def replay(config: CrashTestConfig, crossing: int) -> CrashReport:
    """Crash (or inject a fault) at one crossing, recover, verify.

    Anything that escapes — from the workload under a fault it should have
    absorbed, from recovery, from verification itself — is a finding,
    reported like any other: a dead sweep reports nothing.
    """
    scenario = scenario_for(config)
    rig = scenario.build(config)
    oracle = ShadowOracle()
    registry = FailpointRegistry()
    fault = scenario.arm(rig, registry, crossing)
    report = CrashReport(
        crossing, f"{fault}@{crossing}" if fault else "<workload end>", False
    )
    try:
        with installed(registry):
            scenario.workload(rig, config, oracle)
    except SimulatedCrash as crash:
        report.name = crash.name
    except Exception as exc:  # noqa: BLE001 - any escape is a finding
        report.problems.append(
            f"workload did not absorb injected {fault}: {exc!r}" if fault
            else f"workload failed before the crash: {exc!r}"
        )
        return report
    if registry.crossings <= crossing:
        report.problems.append(
            f"crossing {crossing} was never reached "
            f"(workload has {registry.crossings} crossings)"
        )
        return report
    report.crashed = True
    try:
        scenario.recover(rig, oracle, report)
        scenario.verify(rig, oracle, report)
    except Exception as exc:  # noqa: BLE001 - any escape is a finding
        report.problems.append(
            f"{type(exc).__name__} escaped recovery or verification: {exc}"
        )
    return report


@dataclass
class ExplorationResult:
    total_crossings: int
    explored: list[int]
    failures: list[CrashReport]
    by_name: Counter    # failpoint names crashed at, or fault kinds injected
    orphans: int = 0    # page ids nothing reaches any more, over all replays

    @property
    def ok(self) -> bool:
        return not self.failures


def _sample(total: int, max_points: int) -> list[int]:
    """Up to ``max_points`` crossing indices, evenly spread over the run."""
    if max_points <= 0 or total <= max_points:
        return list(range(total))
    step = (total - 1) / (max_points - 1)
    return sorted({round(i * step) for i in range(max_points)})


def explore(
    config: CrashTestConfig,
    *,
    max_points: int = 0,
    progress=None,
) -> ExplorationResult:
    """Enumerate crossings, then replay each (or an even sample of them)."""
    total = len(enumerate_crossings(config))
    indices = _sample(total, max_points)
    result = ExplorationResult(total, indices, [], Counter())
    for n, crossing in enumerate(indices):
        report = replay(config, crossing)
        result.by_name[report.name.split("@")[0]] += 1
        result.orphans += report.orphans
        if not report.ok:
            result.failures.append(report)
        if progress is not None:
            progress(n + 1, len(indices), report)
    return result


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults.crashtest",
        description="Crash at every failpoint crossing; recover; verify.",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--transactions", type=int,
                        default=CrashTestConfig.transactions)
    parser.add_argument("--keys", type=int, default=CrashTestConfig.keys)
    parser.add_argument(
        "--profile", choices=sorted(PROFILES), default=CrashTestConfig.profile,
        help="the engine configuration under test (repro.PROFILES): 'paper' "
             "is the 2005 defaults, 'tuned' is what benchmarks/e2e measures "
             "(group commit, 2Q, batched write-back, read-ahead, page "
             "checksums, as-of route cache with a mid-workload probe)",
    )
    for flag, text in (
        ("--archive",
         "tier cold history into the archive, with a horizon short enough "
         "that checkpoints migrate pages mid-workload (archive.* crossings)"),
        ("--media-faults",
         "inject disk faults instead of crashing; verify self-healing "
         "(inline absorption + byte-identical scrubber repair)"),
        ("--service",
         "drive the workload through the SQL service protocol (loopback "
         "transport) so service.* crossings are explored; verification is "
         "ack-based: every client-acked commit must survive the crash"),
        ("--service-faults",
         "the service workload with one injected network fault per "
         "crossing (torn frame, dropped response, slow-loris, duplicate "
         "delivery); it must complete with exactly-once effects"),
    ):
        parser.add_argument(flag, action="store_true", help=text)
    parser.add_argument(
        "--shards", type=int, default=0, metavar="N",
        help="run the workload against an N-shard range-partitioned "
             "cluster: cross-shard mutations commit through presumed-abort "
             "2PC, and recovery is verified in two stages (in-doubt lock "
             "retention, then coordinator-driven resolution)",
    )
    parser.add_argument(
        "--max-points", type=int, default=0,
        help="explore at most N crossings, evenly sampled (0 = all)",
    )
    parser.add_argument(
        "--crash-point", type=int, default=None,
        help="replay a single crossing index (the repro mode)",
    )
    args = vars(parser.parse_args(argv))
    max_points, crash_point = args.pop("max_points"), args.pop("crash_point")
    config = CrashTestConfig(**args)

    if crash_point is not None:
        report = replay(config, crash_point)
        print(f"crossing {report.crossing} ({report.name}): "
              f"{'OK' if report.ok else 'FAIL'}")
        for problem in report.problems:
            print(f"  {problem}")
        return 0 if report.ok else 1

    failed: list[CrashReport] = []

    def progress(done: int, total: int, report: CrashReport) -> None:
        if not report.ok:
            failed.append(report)
        if done % 50 == 0 or done == total:
            print(f"  explored {done}/{total} crash points "
                  f"({len(failed)} failures)")

    result = explore(config, max_points=max_points, progress=progress)

    faulty = config.media_faults or config.service_faults
    mode = "fault points" if faulty else "crash points"
    label = "by fault" if faulty else "by seam"
    print(f"seed {config.seed}, profile {config.profile}: "
          f"{result.total_crossings} crossings enumerated, "
          f"{len(result.explored)} {mode} explored")
    seams = Counter(name.split(".")[0] for name in result.by_name.elements())
    print(f"  {label}: " + ", ".join(
        f"{seam}={count}" for seam, count in sorted(seams.items())
    ))
    if result.orphans:
        print(f"  {result.orphans} page ids orphaned by the crashes (taken for "
              f"a structure modification whose log record was lost)")
    if result.ok:
        print("  zero integrity or as-of-equivalence violations")
        return 0
    for report in result.failures:
        print(f"FAIL crossing {report.crossing} ({report.name}): "
              f"{report.problems[0]}")
        print(f"  repro: PYTHONPATH=src python -m repro.faults.crashtest "
              f"{config.repro_args(report.crossing)}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
