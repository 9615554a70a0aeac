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
   scratch, crash (raise ``SimulatedCrash``) at crossing *k*, cut the power
   (each device keeps its synced image plus all, none or a subset of the
   writes since, from (seed, *k*)), run ``db.crash()`` / ``db.recover()``
   and check:

   * ``verify_integrity(db, strict=True)`` stays clean;
   * the current state is one :mod:`repro.faults.oracle` accepts, and
     every as-of mark taken before the crash reads what the oracle folds
     from the commits acked by then.

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
import tempfile
from collections import Counter
from contextlib import closing
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

from repro import PROFILES
from repro.core.engine import ImmortalDB
from repro.errors import ConnectionLostError, ImmortalDBError, InDoubtError
from repro.core.integrity import IntegrityError, page_accounting, verify_integrity
from repro.core.rowcodec import ColumnType
from repro.faults.failpoints import FailpointRegistry, SimulatedCrash, installed
from repro.faults.oracle import Oracle
from repro.faults.models import (
    FAULT_KINDS,
    NETWORK_FAULT_KINDS,
    FaultyDevice,
    FaultyWire,
)
from repro.repair.scrub import Scrubber
from repro.storage.device import MemoryDevice, file_devices

TABLE = "crash"
SIDE = "side"

#: the DDL statements run_workload makes at seeded points, each with the
#: side table's state after it: gone (None) or whether snapshots are on
DDL = (
    (lambda db: db.create_table(SIDE, [("k", ColumnType.INT)], key="k"), False),
    (lambda db: db.enable_snapshot_isolation(SIDE), True),
    (lambda db: db.drop_table(SIDE), None),
)

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
    # The engine under test is ``ImmortalDB(**PROFILES[profile])``.  Both
    # evict 2Q through batched write-back (crossings between a batch's one
    # log force and each page write) and checksum every page; "paper"
    # forces the log at every commit, while "tuned" — what benchmarks/e2e
    # measures — group-commits, reads ahead and caches as-of routes (so the
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
    # Run with media recovery (write verification, transient-IO retry,
    # restore); inject a page-device fault instead of crashing (then lose
    # power once the run is over).
    media_faults: bool = False
    # Drive the workload through the service core over the loopback wire
    # (real framing, sessions, admission): crashes land at service.* seams.
    service: bool = False
    # The same workload, but arm one network fault instead of crashing.
    service_faults: bool = False
    # Run against an N-shard ShardRouter: crashes land inside 2PC.
    shards: int = 0
    file: bool = False      # on files: restarts read the log file back

    def __post_init__(self) -> None:
        if self.file and self.shards:
            raise ValueError("--file runs every sweep but the cluster's")

    def repro_args(self, crossing: int) -> str:
        parts = [f"--seed {self.seed}"]
        if self.profile != CrashTestConfig.profile:
            parts.append(f"--profile {self.profile}")
        for flag in ("media_faults", "service", "service_faults", "archive", "file"):
            if getattr(self, flag):
                parts.append("--" + flag.replace("_", "-"))
        for option in ("transactions", "keys", "shards"):
            if getattr(self, option) != getattr(CrashTestConfig, option):
                parts.append(f"--{option} {getattr(self, option)}")
        parts.append(f"--crash-point {crossing}")
        return " ".join(parts)


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
    tmp: Any = None         # the TemporaryDirectory of a file-backed engine
    seed: int = 0
    devices: list[FaultyDevice] = field(default_factory=list)
    side: tuple = (None,)   # the side table's acceptable states (see DDL)

    @property
    def engines(self) -> list[ImmortalDB]:
        return [s.db for s in getattr(self.db, "shards", ())] or [self.db]

    def close(self) -> None:
        """Release the devices, drop the files (no shutdown: it may be mid-crash)."""
        for device in self.devices:
            device.close()
        if self.tmp is not None:
            self.tmp.cleanup()


def build(config: CrashTestConfig) -> Rig:
    """A fresh system with the harness table (nothing armed), every device
    — pages, log, master record, archive, a cluster's decision log — in
    the power-loss model, on files or in memory."""
    engine = dict(PROFILES[config.profile], buffer_pages=config.buffer_pages)
    tmp = tempfile.TemporaryDirectory() if config.file else None
    files = tmp and file_devices(f"{tmp.name}/db.pages")
    devices: list[FaultyDevice] = []

    def open_device(name: str) -> FaultyDevice:
        devices.append(FaultyDevice(
            files(name) if files else MemoryDevice(), seed=config.seed))
        return devices[-1]
    engine["devices"] = open_device
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
            engine.update(media_recovery=True)
        db = ImmortalDB(**engine)
    table = db.create_table(
        TABLE, [("k", ColumnType.INT), ("v", ColumnType.TEXT)],
        key="k", immortal=True,
    )
    rig = Rig(db, table, tmp=tmp, seed=config.seed, devices=devices)
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


def _listen(rig: Rig, oracle: Oracle) -> None:
    """Every engine's durable acks go to the oracle, keyed by timestamp."""
    for engine in rig.engines:
        engine.txn_mgr.durable_commit_hook = lambda txn: oracle.durable(txn.commit_ts)


def _diverges(rows, oracle: Oracle, mark) -> str | None:
    """What is wrong with ``rows`` as the answer AS OF ``mark``, if anything."""
    got, expected = {r["k"]: r["v"] for r in rows}, oracle.as_of(mark)
    if got != expected:
        return f"as-of divergence at {mark}: {got!r} != {expected!r}"


def run_workload(
    rig: Rig, config: CrashTestConfig, oracle: Oracle, flushing: bool = True,
) -> None:
    """The seeded single-writer workload; identical run-to-run by design.
    Every other checkpoint flushes the pool, or none does (``flushing``).

    Explicit begin/commit (never ``with db.transaction()``): the context
    manager's exception path would *abort* the transaction after a
    simulated crash — post-mortem work a real dead process cannot do.

    Against a cluster, single-shard mutations take the router's fast path
    (the engine's ordinary commit) and every third mutation pairs the key
    with a partner key on a *different* shard, committed through
    presumed-abort 2PC: one mutation to the oracle, so a half-applied pair
    is an atomicity finding.
    """
    db, table = rig.db, rig.table
    _listen(rig, oracle)
    rng = random.Random(config.seed)
    ddl_at = sorted(random.Random(f"ddl:{config.seed}").sample(
        range(config.transactions), min(len(DDL), config.transactions)))
    for i in range(config.transactions):
        if i in ddl_at:     # in flight: all or nothing; returned: done
            statement, after = DDL[ddl_at.index(i)]
            rig.side = (rig.side[-1], after)
            statement(db)
            rig.side = (after,)
        db.advance_time(rng.uniform(5.0, 250.0))
        key = rng.randrange(config.keys)
        current = oracle.current()
        mutation = {key: _draw_value(rng, config, i, key in current)}
        if config.shards and i % 3 == 2 and config.keys >= 2 * config.shards:
            partner = (key + config.keys // config.shards) % config.keys
            while db.route(partner) is db.route(key):
                partner = (partner + 1) % config.keys
            mutation[partner] = _draw_value(rng, config, i, False, tag="p")
        engines = {db.route(k).shard_id for k in mutation} if config.shards else {0}
        oracle.begin(mutation, tuple(engines))
        txn = db.begin()
        for k, value in mutation.items():
            if value is None:
                table.delete(txn, k)
            elif k in current:
                table.update(txn, k, {"v": value})
            else:
                table.insert(txn, {"k": k, "v": value})
        ts = db.commit(txn)
        oracle.committed(ts)
        if i % config.mark_every == config.mark_every - 1:
            # Ack every commit so far: a mark is answered by acked commits.
            db.flush_commits()
            oracle.marks.append(db.now())
            if PROFILES[config.profile].get("asof_route_cache"):
                # Probe an earlier mark mid-workload: this warms the as-of
                # route cache (adding asof.route.* crossings to explore)
                # and checks it live against the oracle.
                mark = oracle.marks[rng.randrange(len(oracle.marks))]
                if problem := _diverges(table.scan_as_of(mark), oracle, mark):
                    raise AssertionError(f"mid-workload {problem}")
        if i % config.checkpoint_every == config.checkpoint_every - 1:
            db.checkpoint(flush=flushing and (i // config.checkpoint_every) % 2 == 0)


#: PTT entries the recycling rig starts with: a PTT leaf holds 408
RECYCLING_PREFILL = 380


def build_recycling(config: CrashTestConfig) -> Rig:
    """The ``--archive --file`` rig: a PTT some thirty entries short of a
    leaf split, none of which garbage collection can drop.

    Untraced, a second immortal table takes one-row commits and the engine
    restarts: redo leaves those entries with an unknown reference count,
    which the collector never drops.  The traced workload, with archive
    steps between non-flushing checkpoints, then grows the PTT into a split
    after migration has freed history page ids, so the split takes a
    recycled id; a crash in the un-checkpointed tail replays that id's old
    history image and then the PTT node.
    """
    rig = build(config)
    db = rig.db
    filler = db.create_table(
        "filler", [("k", ColumnType.INT)], key="k", immortal=True
    )
    for k in range(RECYCLING_PREFILL):
        txn = db.begin()
        filler.insert(txn, {"k": k})
        db.commit(txn)
    db.flush_commits()
    db.crash()
    db.recover()
    rig.table = db.table(TABLE)
    return rig


def run_service_workload(
    rig: Rig, config: CrashTestConfig, oracle: Oracle
) -> None:
    """The seeded workload, driven through the service protocol.

    The client sees no commit timestamp: the engine's durable hook acks the
    in-flight mutation, and an ``ok`` for a mutation no hook acked is a
    finding (the service forces the log before it acks a write).  Every
    ninth operation opens a bracket, writes poison, and drops the
    connection — the abort-on-disconnect path.  As-of marks are probed live
    over the wire (``SELECT … AS OF`` an ISO datetime) and through the
    engine after recovery: both views must agree with the oracle.
    """
    db, conn = rig.db, rig.conn
    _listen(rig, oracle)
    rng = random.Random(config.seed)
    for i in range(config.transactions):
        db.advance_time(rng.uniform(5.0, 250.0))
        key = rng.randrange(config.keys)
        live_keys = list(oracle.current())
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
        value = _draw_value(rng, config, i, key in live_keys)
        oracle.begin({key: value})
        if value is None:
            sql = f"DELETE FROM {TABLE} WHERE k = {key}"
        elif key in live_keys:
            sql = f"UPDATE {TABLE} SET v = '{value}' WHERE k = {key}"
        else:
            sql = f"INSERT INTO {TABLE} (k, v) VALUES ({key}, '{value}')"
        response = conn.execute(sql)
        if response.get("status") != "ok":
            raise AssertionError(f"service refused op {i}: {response!r}")
        oracle.committed()
        if i % config.mark_every == config.mark_every - 1:
            db.flush_commits()
            mark = db.clock.now_datetime().isoformat(sep=" ")
            # Advance past the mark's tick so later commits sort after it.
            db.clock.advance_ticks(1)
            oracle.marks.append(ImmortalDB.to_timestamp(mark))
            probe = conn.execute(f"SELECT k, v FROM {TABLE} AS OF '{mark}'")
            if probe.get("status") != "ok":
                raise AssertionError(f"as-of probe failed: {probe!r}")
            if problem := _diverges(probe["rows"], oracle, oracle.marks[-1]):
                raise AssertionError(f"live wire {problem}")
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
    kept: str | None = None     # of the unsynced writes, at the power loss

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


#: what a replay's power loss keeps of each device's unsynced writes
KEEP = ("all", "none", "a subset")


def _lose_power(rig: Rig, report: CrashReport) -> None:
    """Cut the power to every device, seeded from (seed, crossing): each
    keeps its synced image plus all, none or a seeded subset of the writes
    since.  With media recovery one kept page write may land torn."""
    rng = random.Random(f"{rig.seed}:{report.crossing}")
    keep = KEEP[rng.randrange(len(KEEP))]
    unsynced = kept = 0
    for device in rig.devices:
        chosen = [i for i in range(device.unsynced) if keep == "all"
                  or keep == "a subset" and rng.random() < 0.5]
        tear = None
        if getattr(rig.db, "repair", None) and device is rig.db.disk.device \
                and chosen and rng.random() < 0.5:
            tear = rng.choice(chosen)
        unsynced, kept = unsynced + device.unsynced, kept + len(chosen)
        device.lose_power(chosen, tear=tear)
    report.kept = ("nothing unsynced" if not unsynced else "all" if kept == unsynced
                   else "none" if not kept else "a subset")


def _restart(rig: Rig, oracle: Oracle, report: CrashReport) -> None:
    _lose_power(rig, report)
    rig.db.crash()
    rig.db.recover()
    rig.table = rig.db.table(TABLE)


def _restart_cluster(rig: Rig, oracle: Oracle, report: CrashReport) -> None:
    """Recover the cluster in two stages.

    Stage 1 — ``recover(resolve=False)``: every shard runs ARIES recovery
    but in-doubt prepared transactions stay undecided.  If the crash left
    any, the in-flight mutation's keys must be lock-protected: a writer
    probing them gets the typed ``InDoubtError`` (never a half-visible
    write).  Stage 2 — ``resolve_in_doubt()``: the coordinator's decision
    log (presumed abort) drives every participant to the same outcome.
    """
    router = rig.db
    _lose_power(rig, report)
    router.crash()
    router.recover(resolve=False)
    rig.table = table = router.table(TABLE)
    in_doubt = router.in_doubt_gtids()
    if in_doubt and oracle.in_flight is None:
        report.problems.append(
            f"in-doubt gtids {sorted(in_doubt)} survive but the oracle "
            f"has no in-flight mutation"
        )
    elif in_doubt:
        blocked = 0
        for k in oracle.in_flight:
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


def _settle(rig: Rig, oracle: Oracle, report: CrashReport) -> None:
    """A fault scenario's "recovery": the run goes on; quiesce it.

    Every fault kind has an inline defense — transient IO errors are
    retried with backoff, bitrot reads are restored by the buffer's fault
    handler, torn and dropped writes are caught by write verification,
    wire faults by retries and the idempotency cache — so nothing here may
    raise, and nothing is left in flight or un-acked: one acceptable state.
    """
    rig.db.flush_commits()
    assert oracle.in_flight is None and not oracle.volatile


def _settle_and_scrub(rig: Rig, oracle: Oracle, report: CrashReport) -> None:
    """Media faults, phase two: a power loss, then latent corruption at rest.

    After quiescing, the power goes (a kept page write may land torn, for
    restart or a first scrubber pass to repair) and the engine restarts.
    Then the *stored* image of one allocated page, picked by the crossing
    number, is damaged (mode rotates through bitrot/garbage/zero; an id on
    the free list holds no page, and the scrubber rightly skips it).  The
    scrubber must find the damage, restore the page byte-identically from
    backup + archived log records, and come back clean on a second pass.
    """
    _settle(rig, oracle, report)
    rig.db.buffer.flush_all()
    device: FaultyDevice = rig.db.disk.device
    # A fault armed very late may find no matching op left in the run;
    # drop it so this phase stays deterministic (it proved nothing either way).
    device.disarm()
    _restart(rig, oracle, report)
    # A torn page write that restart never read is latent damage at rest:
    # the scrubber's first pass finds and repairs it like any other.
    scrubber = Scrubber(rig.db)
    scrubber.full_pass()
    disk, crossing = rig.db.disk, report.crossing
    allocated = [pid for pid in range(disk.page_count) if pid not in disk.free_list]
    target = allocated[crossing % len(allocated)]
    mode = CORRUPT_MODES[(crossing // len(FAULT_KINDS)) % len(CORRUPT_MODES)]
    size = disk.page_size
    good = device.inner.read(size, target * size)
    device.corrupt_stored(target * size, size, mode=mode)
    findings = scrubber.full_pass()
    if not any(f.page_id == target for f in findings):
        report.problems.append(
            f"scrubber missed {mode} corruption on page {target}"
        )
    if device.inner.read(size, target * size) != good:
        report.problems.append(
            f"page {target} not byte-identical after {mode} repair"
        )
    leftover = scrubber.full_pass()
    if leftover:
        report.problems.append(
            f"second scrub pass not clean: "
            f"{sorted({(f.kind, f.page_id) for f in leftover})}"
        )


def _verify(rig: Rig, oracle: Oracle, report: CrashReport) -> None:
    """The contract every scenario ends on.

    Strict integrity on every engine and no orphan page id (restart frees
    the ids taken for a structure modification whose record was lost); the
    side table as the DDL that returned left it (or, for one in flight, as
    it found it or left it); the
    current state is one the oracle accepts (after a fault scenario's
    settle, exactly the acked state) and holds no poison from a dropped
    bracket; every as-of mark reproduces exactly.
    """
    engines = rig.engines
    for n, engine in enumerate(engines):
        where = f"shard {n} " if len(engines) > 1 else ""
        try:
            verify_integrity(engine, strict=True)
        except IntegrityError as exc:
            report.problems.append(f"{where}integrity: {exc}")
        if orphans := page_accounting(engine).orphans:
            report.problems.append(f"{where}orphan page ids: {orphans}")
        side = engine.catalog.tables.get(SIDE)
        if (state := side and side.snapshot_enabled) not in rig.side:
            report.problems.append(f"{where}side table {state}, not in {rig.side}")
    db, table = rig.db, rig.table
    txn = db.begin()
    got = {row["k"]: row["v"] for row in table.scan(txn)}
    db.commit(txn)
    acceptable = oracle.acceptable_states()
    if got not in acceptable:
        report.problems.append(
            f"current-state divergence: recovered {got!r}, "
            f"acceptable {acceptable!r}"
        )
    for value in got.values():
        if value.startswith("poison"):
            report.problems.append(f"dropped bracket leaked into state: {value!r}")
    for mark in oracle.marks:
        if problem := _diverges(table.scan_as_of(mark), oracle, mark):
            report.problems.append(problem)


@dataclass(frozen=True)
class Scenario:
    """What the explorer composes: the five things that differ between sweeps.

    ``arm`` returns ``None`` when it armed a crash, or the kind of fault it
    armed — then the workload must run to completion.
    """

    build: Callable[[CrashTestConfig], Rig]
    workload: Callable[[Rig, CrashTestConfig, Oracle], None]
    arm: Callable[[Rig, FailpointRegistry, int], str | None]
    recover: Callable[[Rig, Oracle, CrashReport], None]
    verify: Callable[[Rig, Oracle, CrashReport], None]


ENGINE_CRASH = Scenario(build, run_workload, _arm_crash, _restart, _verify)

#: the config field that selects each other scenario, most specific first
SCENARIOS = {
    "shards": Scenario(
        build, run_workload, _arm_crash, _restart_cluster, _verify
    ),
    "service_faults": Scenario(
        build, run_service_workload,
        _arm_fault(NETWORK_FAULT_KINDS, lambda rig: rig.wire),
        _settle, _verify,
    ),
    "service": Scenario(
        build, run_service_workload, _arm_crash, _restart, _verify
    ),
    "media_faults": Scenario(
        build, run_workload,
        _arm_fault(FAULT_KINDS, lambda rig: rig.db.disk.device),
        _settle_and_scrub, _verify,
    ),
}


#: ``--archive --file``: restart after archive steps and PTT splits that
#: recycle page ids (see :func:`build_recycling`)
RECYCLING = Scenario(
    build_recycling, partial(run_workload, flushing=False),
    _arm_crash, _restart, _verify,
)


def scenario_for(config: CrashTestConfig) -> Scenario:
    scenario = next(
        (s for flag, s in SCENARIOS.items() if getattr(config, flag)),
        ENGINE_CRASH,
    )
    if scenario is ENGINE_CRASH and config.archive and config.file:
        return RECYCLING
    return scenario


# ---------------------------------------------------------------------------
# The explorer
# ---------------------------------------------------------------------------


def enumerate_crossings(config: CrashTestConfig) -> list[str]:
    """Run the workload once, undisturbed; return every crossing's name.
    No crash cuts this run short, so it must orphan no page id."""
    scenario = scenario_for(config)
    registry = FailpointRegistry()
    registry.trace_on()
    with closing(scenario.build(config)) as rig:
        with installed(registry):
            scenario.workload(rig, config, Oracle())
        for engine in rig.engines:
            orphans = page_accounting(engine).orphans
            if orphans:
                raise IntegrityError(f"undisturbed run orphaned page ids {orphans}")
    assert registry.trace is not None
    return registry.trace


def replay(config: CrashTestConfig, crossing: int) -> CrashReport:
    """Crash (or inject a fault) at one crossing, recover, verify.

    Anything that escapes — from the workload under a fault it should have
    absorbed, from recovery, from verification itself — is a finding,
    reported like any other: a dead sweep reports nothing.
    """
    scenario = scenario_for(config)
    with closing(scenario.build(config)) as rig:
        oracle = Oracle()
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
    kept: Counter = field(default_factory=Counter)  # replays by CrashReport.kept

    @property
    def ok(self) -> bool:
        return not self.failures


def _sample(total: int, max_points: int) -> list[int]:
    """Up to ``max_points`` crossing indices, evenly spread over the run."""
    if max_points <= 0 or total <= max_points:
        return list(range(total))
    step = (total - 1) / max(max_points - 1, 1)
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
        if report.kept:
            result.kept[report.kept] += 1
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
             "forces every commit, 'tuned' is what benchmarks/e2e measures "
             "(group commit, read-ahead, as-of route cache with a mid-workload "
             "probe); both evict 2Q, batch write-back and checksum pages",
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
         "transport) so service.* crossings are explored"),
        ("--service-faults",
         "the service workload with one injected network fault per "
         "crossing (torn frame, dropped response, slow-loris, duplicate "
         "delivery); it must complete with exactly-once effects"),
        ("--file",
         "run the engine on files: every restart reads the log file back "
         "(every sweep but --shards)"),
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
    try:
        config = CrashTestConfig(**args)
    except ValueError as exc:
        parser.error(str(exc))

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
    if result.kept:
        print(f"  power loss kept of the unsynced writes: {dict(result.kept)}")
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
