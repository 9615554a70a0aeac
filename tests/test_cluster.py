"""Range-sharded cluster: routing, 2PC, shared timestamps, crash recovery.

The contract under test is the single-engine contract, scaled out: the
cluster must behave — current state, history, and AS OF cuts — exactly
like one ImmortalDB engine fed the same operations, because every commit
timestamp flows through one shared authority.  The oracle in the
equivalence tests is literally a single engine on a shared clock.
"""

from __future__ import annotations

import random

import pytest

from repro.clock import SimClock, Timestamp
from repro.cluster import Decision, ShardRouter, TwoPhaseCoordinator
from repro.concurrency.transaction import TxnState
from repro.core.engine import ImmortalDB
from repro.core.integrity import verify_integrity
from repro.errors import (
    CrossShardAbort,
    DeadlockError,
    InDoubtError,
    ShardUnavailableError,
)
from repro.faults.failpoints import (
    FailpointRegistry,
    SimulatedCrash,
    installed,
)

COLUMNS = [("k", "int"), ("v", "text")]


def make_cluster(shards=2, key_space=100, **kwargs):
    router = ShardRouter.for_int_keys(shards, key_space=key_space, **kwargs)
    table = router.create_table("kv", COLUMNS, key="k", immortal=True)
    return router, table


class TestRouting:
    def test_keys_land_on_their_range_shard(self):
        router, table = make_cluster(shards=4, key_space=100)
        assert router.route(0).shard_id == 0
        assert router.route(24).shard_id == 0
        assert router.route(25).shard_id == 1
        assert router.route(99).shard_id == 3

    def test_point_ops_route_and_scan_gathers(self):
        router, table = make_cluster(shards=4, key_space=100)
        with router.transaction() as txn:
            for k in (3, 30, 55, 90):
                table.insert(txn, {"k": k, "v": f"v{k}"})
        with router.transaction() as txn:
            assert table.read(txn, 55)["v"] == "v55"
            got = [row["k"] for row in table.scan(txn)]
        assert got == [3, 30, 55, 90]   # shard order == global key order
        # Each shard holds only its own range.
        for shard, expect in zip(router.shards, ([3], [30], [55], [90])):
            with shard.db.transaction() as txn:
                keys = [r["k"] for r in shard.db.table("kv").scan(txn)]
            assert keys == expect

    def test_scan_range_touches_only_covering_shards(self):
        router, table = make_cluster(shards=4, key_space=100)
        with router.transaction() as txn:
            for k in range(0, 100, 5):
                table.insert(txn, {"k": k, "v": "x"})
        covering = router.shards_for_range(30, 55)
        assert [s.shard_id for s in covering] == [1, 2]
        with router.transaction() as txn:
            got = [r["k"] for r in table.scan_range(txn, 30, 55)]
        assert got == list(range(30, 56, 5))


class TestCommitPaths:
    def test_single_shard_commit_takes_fast_path(self):
        router, table = make_cluster()
        with router.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "a"})
            table.insert(txn, {"k": 2, "v": "b"})   # same shard
        assert router.fastpath_commits == 1
        assert router.twopc_commits == 0

    def test_cross_shard_commit_runs_2pc(self):
        router, table = make_cluster()
        with router.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "a"})
            table.insert(txn, {"k": 60, "v": "b"})
        assert router.twopc_commits == 1
        assert router.coordinator.commit_decisions == 1
        assert router.coordinator.forgotten == 1
        assert not router.coordinator.decisions   # forgotten ⇒ table empty

    def test_cross_shard_branches_share_one_timestamp(self):
        router, table = make_cluster()
        with router.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "a"})
            table.insert(txn, {"k": 60, "v": "b"})
        (t1,) = [ts for ts, _ in table.history(1)]
        (t2,) = [ts for ts, _ in table.history(60)]
        assert t1 == t2

    def test_read_only_cross_shard_txn_stays_fast_path(self):
        router, table = make_cluster()
        with router.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "a"})
            table.insert(txn, {"k": 60, "v": "b"})
        before = router.twopc_commits
        with router.transaction() as txn:
            table.read(txn, 1)
            table.read(txn, 60)
        assert router.twopc_commits == before

    def test_prepare_veto_aborts_everywhere(self):
        # The second participant votes no (its prepare raises — here a
        # deadlock-victim verdict injected at the prepare seam, after the
        # first shard's yes vote is already durable), and the whole
        # cross-shard transaction must abort on every shard.
        router, table = make_cluster()
        with router.transaction() as txn:
            for k, v in ((2, "a"), (60, "b"), (61, "c")):
                table.insert(txn, {"k": k, "v": v})
        victim = router.begin()
        table.update(victim, 2, {"v": "mine"})      # shard 0 write
        table.update(victim, 61, {"v": "mine"})     # shard 1 write

        def veto(event):
            raise DeadlockError("injected veto at prepare")

        registry = FailpointRegistry()
        registry.on("txn.prepare.begin", veto, hit=2)
        with installed(registry):
            with pytest.raises(CrossShardAbort) as exc_info:
                router.commit(victim)
        assert registry.hits["txn.prepare.done"] == 1   # shard 0 had voted yes
        assert exc_info.value.gtid is not None
        assert router.twopc_aborts == 1
        # Nothing half-committed anywhere.
        with router.transaction() as txn:
            assert table.read(txn, 2)["v"] == "a"
            assert table.read(txn, 61)["v"] == "c"
            assert table.read(txn, 60)["v"] == "b"


class TestCrashRecovery:
    def test_crash_before_decision_presumes_abort(self):
        router, table = make_cluster()
        with router.transaction() as txn:
            table.insert(txn, {"k": 10, "v": "base"})
            table.insert(txn, {"k": 60, "v": "base"})
        registry = FailpointRegistry()
        registry.crash_on("cluster.2pc.decide")
        with pytest.raises(SimulatedCrash):
            with installed(registry):
                txn = router.begin()
                table.update(txn, 10, {"v": "new"})
                table.update(txn, 60, {"v": "new"})
                router.commit(txn)
        router.crash()
        router.recover()
        with router.transaction() as txn:
            assert table.read(txn, 10)["v"] == "base"
            assert table.read(txn, 60)["v"] == "base"
        for shard in router.shards:
            verify_integrity(shard.db, strict=True)

    def test_crash_after_decision_commits_everywhere(self):
        router, table = make_cluster()
        with router.transaction() as txn:
            table.insert(txn, {"k": 10, "v": "base"})
            table.insert(txn, {"k": 60, "v": "base"})
        registry = FailpointRegistry()
        registry.crash_on("cluster.2pc.decision_logged")
        with pytest.raises(SimulatedCrash):
            with installed(registry):
                txn = router.begin()
                table.update(txn, 10, {"v": "new"})
                table.update(txn, 60, {"v": "new"})
                router.commit(txn)
        router.crash()
        router.recover()
        with router.transaction() as txn:
            assert table.read(txn, 10)["v"] == "new"
            assert table.read(txn, 60)["v"] == "new"

    def test_in_doubt_holds_locks_until_resolution(self):
        router, table = make_cluster()
        with router.transaction() as txn:
            table.insert(txn, {"k": 10, "v": "base"})
            table.insert(txn, {"k": 60, "v": "base"})
        registry = FailpointRegistry()
        registry.crash_on("cluster.2pc.prepared")
        with pytest.raises(SimulatedCrash):
            with installed(registry):
                txn = router.begin()
                table.update(txn, 10, {"v": "new"})
                table.update(txn, 60, {"v": "new"})
                router.commit(txn)
        router.crash()
        router.recover(resolve=False)
        assert router.in_doubt_gtids()
        probe = router.begin()
        with pytest.raises(InDoubtError) as exc_info:
            table.update(probe, 10, {"v": "probe"})
        router.abort(probe)
        assert exc_info.value.gtid in router.in_doubt_gtids()
        resolved = router.resolve_in_doubt()
        assert resolved >= 1
        assert not router.in_doubt_gtids()
        with router.transaction() as txn:
            table.update(txn, 10, {"v": "after"})   # lock released
        with router.transaction() as txn:
            assert table.read(txn, 10)["v"] == "after"

    def test_down_shard_raises_typed_error(self):
        router, table = make_cluster()
        with router.transaction() as txn:
            table.insert(txn, {"k": 10, "v": "a"})
            table.insert(txn, {"k": 60, "v": "b"})
        router.crash_shard(1)
        txn = router.begin()
        assert table.read(txn, 10)["v"] == "a"   # shard 0 still serves
        with pytest.raises(ShardUnavailableError) as exc_info:
            table.read(txn, 60)
        assert exc_info.value.shard_id == 1
        router.abort(txn)
        router.recover_shard(1)
        with router.transaction() as txn:
            assert table.read(txn, 60)["v"] == "b"


class TestTimestampAuthority:
    def test_commit_timestamps_strictly_increase_across_shards(self):
        router, table = make_cluster(shards=3, key_space=90)
        seen: list[Timestamp] = []
        for k in (5, 35, 65, 6, 36, 66):
            with router.transaction() as txn:
                table.insert(txn, {"k": k, "v": "x"})
            seen.append(max(ts for ts, _ in table.history(k)))
        assert seen == sorted(seen)
        assert len(set(seen)) == len(seen)

    def test_monotonicity_survives_cluster_restart(self):
        """Satellite 3: the authority's high water survives crash+recovery.

        Without the persisted floor, a restarted clock could re-issue a
        timestamp ≤ an already-committed one, corrupting history order.
        """
        router, table = make_cluster()
        for k in (10, 60):
            with router.transaction() as txn:
                table.insert(txn, {"k": k, "v": "before"})
        high_before = router.authority.high_water
        assert high_before is not None
        router.checkpoint()
        router.crash()
        router.recover()
        assert router.authority.now() >= high_before
        with router.transaction() as txn:
            table.update(txn, 10, {"v": "after"})
        times = sorted(ts for ts, _ in table.history(10))
        assert times[-1] > high_before
        # History stays well-ordered: as-of at the old high water sees the
        # old value, now sees the new one.
        assert table.read_as_of(high_before, 10)["v"] == "before"
        assert table.read_as_of(router.now(), 10)["v"] == "after"

    def test_engine_clock_floor_restores_after_reopen(self):
        """The engine-level half of satellite 3, without any cluster: a
        catalog-persisted high water lifts a stale clock past every
        committed timestamp on recovery."""
        clock = SimClock(ms_per_timestamp=5.0)
        db = ImmortalDB(clock=clock)
        table = db.create_table("t", COLUMNS, key="k", immortal=True)
        with db.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "a"})
        db.advance_time(10_000.0)
        with db.transaction() as txn:
            table.update(txn, 1, {"v": "b"})
        committed = max(ts for ts, _ in table.history(1))
        db.checkpoint()
        db.crash()
        # Adversarial restart: the replacement clock starts at zero time,
        # as a real process restart would.
        db.clock.__init__(ms_per_timestamp=5.0)
        db.recover()
        assert db.clock.now() >= committed
        with db.transaction() as txn:
            table = db.table("t")
            table.update(txn, 1, {"v": "c"})
        times = [ts for ts, _ in table.history(1)]
        assert times == sorted(times)
        assert len(set(times)) == 3


class TestCoordinatorLog:
    def test_forced_decision_survives_crash(self):
        coord = TwoPhaseCoordinator()
        gtid = coord.allocate_gtid()
        coord.decide_commit(gtid, Timestamp(5, 1), [0, 1])
        coord.crash()
        coord.recover()
        decision, ts = coord.resolve(gtid)
        assert decision is Decision.COMMIT
        assert ts == Timestamp(5, 1)

    def test_second_decision_survives_crash(self):
        # Regression: force(lsn) would no-op on a record whose start offset
        # equals the flushed watermark, losing every decision after the
        # first.
        coord = TwoPhaseCoordinator()
        g1, g2 = coord.allocate_gtid(), coord.allocate_gtid()
        coord.decide_commit(g1, Timestamp(5, 1), [0, 1])
        coord.decide_commit(g2, Timestamp(6, 1), [0, 1])
        coord.crash()
        coord.recover()
        assert coord.resolve(g2) == (Decision.COMMIT, Timestamp(6, 1))

    def test_unforced_abort_presumes_abort_after_crash(self):
        coord = TwoPhaseCoordinator()
        gtid = coord.allocate_gtid()
        coord.decide_abort(gtid)
        coord.crash()
        coord.recover()
        assert coord.resolve(gtid) == (Decision.ABORT, None)

    def test_forgotten_gtid_resolves_abort_and_floor_advances(self):
        coord = TwoPhaseCoordinator()
        gtid = coord.allocate_gtid()
        coord.decide_commit(gtid, Timestamp(5, 1), [0])
        coord.forget(gtid)
        # Forget records are lazy; only a durable one drops the entry from
        # replay (losing one is harmless — nobody asks about acked gtids).
        coord.log.force()
        coord.crash()
        coord.recover()
        assert coord.resolve(gtid) == (Decision.ABORT, None)
        assert coord.allocate_gtid() > gtid


class TestScatterGatherEquivalence:
    """Satellite 4: the cluster is observationally equal to one engine.

    Both run the same seeded workload on one shared clock, so commit
    timestamps align 1:1 and every AS OF cut must match exactly — including
    after a mid-workload shard crash + recovery.
    """

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("shards", [2, 4])
    def test_cluster_matches_single_engine_oracle(self, seed, shards):
        self._run(seed=seed, shards=shards, crash_at=None)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_equivalence_across_mid_workload_shard_crash(self, seed):
        self._run(seed=seed, shards=2, crash_at=20)

    @staticmethod
    def _run(*, seed: int, shards: int, crash_at: int | None) -> None:
        keys = 16
        clock = SimClock(ms_per_timestamp=5.0)
        router = ShardRouter.for_int_keys(shards, key_space=keys, clock=clock)
        ctable = router.create_table("kv", COLUMNS, key="k", immortal=True)
        oracle = ImmortalDB(clock=clock)
        otable = oracle.create_table("kv", COLUMNS, key="k", immortal=True)

        rng = random.Random(seed)
        alive: dict[int, bool] = {}
        marks: list[Timestamp] = []
        for i in range(40):
            router.advance_time(rng.uniform(5.0, 100.0))
            key = rng.randrange(keys)
            delete = alive.get(key, False) and rng.random() < 0.25
            value = None if delete else f"s{seed}i{i}"
            partner = None
            if i % 3 == 2:
                partner = (key + keys // shards) % keys
                while router.route(partner) is router.route(key):
                    partner = (partner + 1) % keys
            ctxn, otxn = router.begin(), oracle.begin()
            for tbl, txn in ((ctable, ctxn), (otable, otxn)):
                if value is None:
                    tbl.delete(txn, key)
                elif alive.get(key, False):
                    tbl.update(txn, key, {"v": value})
                else:
                    tbl.insert(txn, {"k": key, "v": value})
                if partner is not None and partner != key:
                    pvalue = f"s{seed}i{i}p"
                    if alive.get(partner, False):
                        tbl.update(txn, partner, {"v": pvalue})
                    else:
                        tbl.insert(txn, {"k": partner, "v": pvalue})
            # Commit the cluster txn first, then pin the oracle to the
            # identical timestamp so the two histories are congruent.
            ts = router.commit(ctxn)
            otxn.pinned_ts = ts
            oracle.commit(otxn)
            alive[key] = value is not None
            if partner is not None and partner != key:
                alive[partner] = True
            if i % 5 == 4:
                marks.append(router.now())
            if crash_at is not None and i == crash_at:
                victim = rng.randrange(shards)
                router.checkpoint()
                router.crash_shard(victim)
                router.recover_shard(victim)

        with router.transaction() as txn:
            cluster_now = [(r["k"], r["v"]) for r in ctable.scan(txn)]
        with oracle.transaction() as txn:
            oracle_now = [(r["k"], r["v"]) for r in otable.scan(txn)]
        assert cluster_now == oracle_now
        for ts in marks:
            c = [(r["k"], r["v"]) for r in ctable.scan_as_of(ts)]
            o = [(r["k"], r["v"]) for r in otable.scan_as_of(ts)]
            assert c == o, f"as-of cut diverged at {ts}"
        for key in range(keys):
            c = list(ctable.history(key))
            o = list(otable.history(key))
            assert c == o, f"history diverged for key {key}"
        for shard in router.shards:
            verify_integrity(shard.db, strict=True)


class TestClusterStats:
    def test_stats_aggregate_and_expose_cluster_counters(self):
        router, table = make_cluster()
        with router.transaction() as txn:
            table.insert(txn, {"k": 1, "v": "a"})
        with router.transaction() as txn:
            table.insert(txn, {"k": 2, "v": "b"})
            table.insert(txn, {"k": 60, "v": "c"})
        stats = router.stats()
        assert stats["cluster_shards"] == 2
        assert stats["cluster_fastpath_commits"] == 1
        assert stats["cluster_2pc_commits"] == 1
        assert stats["cluster_timestamps_issued"] == 2
        per_shard = router.shard_stats()
        assert len(per_shard) == 2
        assert sum(s["commits"] for s in per_shard) >= 3


class TestServiceWireErrors:
    """Satellite: cluster errors crossing the service wire keep their
    type name and carry the right ``retryable`` classification, so a
    remote client can tell "back off and retry" from "give up"."""

    @staticmethod
    def _loopback(router, key):
        from repro.service.core import ServiceCore
        from repro.service.transport import LoopbackConnection

        core = ServiceCore(router, retry_step_ms=0.0)
        return core, LoopbackConnection(core, client_key=key)

    def test_in_doubt_is_retryable_and_clears_on_resolution(self):
        router, table = make_cluster()
        with router.transaction() as txn:
            table.insert(txn, {"k": 10, "v": "base"})
            table.insert(txn, {"k": 60, "v": "base"})
        registry = FailpointRegistry()
        registry.crash_on("cluster.2pc.prepared")
        with pytest.raises(SimulatedCrash):
            with installed(registry):
                txn = router.begin()
                table.update(txn, 10, {"v": "new"})
                table.update(txn, 60, {"v": "new"})
                router.commit(txn)
        router.crash()
        router.recover(resolve=False)
        assert router.in_doubt_gtids()

        core, conn = self._loopback(router, "wire-indoubt")
        resp = conn.execute("UPDATE kv SET v = 'probe' WHERE k = 10")
        assert resp["status"] == "error"
        assert resp["error"] == "InDoubtError"
        assert resp["retryable"] is True
        # Waiting out 2PC resolution is the client's job, not the
        # server's: the server must not have burned its retry budget.
        assert core.stats.retries == 0

        router.resolve_in_doubt()
        resp = conn.execute("UPDATE kv SET v = 'probe' WHERE k = 10")
        assert resp["status"] == "ok"

    def test_shard_unavailable_is_retryable_and_clears_on_recovery(self):
        router, table = make_cluster()
        with router.transaction() as txn:
            table.insert(txn, {"k": 60, "v": "b"})
        router.crash_shard(1)
        core, conn = self._loopback(router, "wire-down")
        resp = conn.execute("SELECT k, v FROM kv WHERE k = 60")
        assert resp["status"] == "error"
        assert resp["error"] == "ShardUnavailableError"
        assert resp["retryable"] is True
        assert core.stats.retries == 0
        router.recover_shard(1)
        resp = conn.execute("SELECT k, v FROM kv WHERE k = 60")
        assert resp["status"] == "ok"
        assert resp["rows"] == [{"k": 60, "v": "b"}]

    def test_cross_shard_abort_is_retried_then_surfaced_retryable(
        self, monkeypatch
    ):
        from repro.sql.executor import Session

        calls = {"n": 0}

        def veto(self, sql, params=()):
            calls["n"] += 1
            raise CrossShardAbort(
                "prepare veto", victim_tid=7, shard_id=1, gtid=3
            )

        monkeypatch.setattr(Session, "execute", veto)
        router, _ = make_cluster()
        core, conn = self._loopback(router, "wire-abort")
        resp = conn.execute("UPDATE kv SET v = 'x' WHERE k = 1")
        assert resp["status"] == "error"
        assert resp["error"] == "CrossShardAbort"
        assert resp["retryable"] is True
        # Unlike the wait-for-resolution errors, an abort IS worth an
        # immediate server-side rerun before giving the client the slip.
        assert calls["n"] == core.max_retries + 1
        assert core.stats.retries == core.max_retries


class TestConcurrentClusterAccess:
    """Regressions found driving the socket service over a sharded
    backend: the router cannot back a WorkerPool (branch TIDs collide
    across shards), and under blocking locks a waiter must not park
    behind an in-doubt holder that only resolution can release."""

    def test_threaded_service_over_router_runs_pool_less(self):
        from repro.service.client import ServiceClient
        from repro.service.server import ThreadedService

        import threading

        router, _ = make_cluster()
        with ThreadedService(router, port=0, pool_workers=2) as svc:
            # No pool and nothing standing in for one: statements run on
            # the connection's thread exactly as over a single engine.
            assert svc.service.pool is None
            ran_on = []
            inner = svc.core.handle_payload

            def watched(*args):
                ran_on.append(threading.current_thread().name)
                return inner(*args)

            svc.core.handle_payload = watched
            with ServiceClient("127.0.0.1", svc.port) as client:
                for k, v in ((10, "a"), (60, "b")):
                    resp = client.execute(
                        f"INSERT INTO kv (k, v) VALUES ({k}, '{v}')"
                    )
                    assert resp["status"] == "ok"
                resp = client.execute("SELECT k, v FROM kv")
                assert resp["rows"] == [
                    {"k": 10, "v": "a"}, {"k": 60, "v": "b"},
                ]
                ingest = client.ingest("kv", "k,v\n11,c\n61,d\n", batch=1)
                assert ingest["rowcount"] == 2
            assert ran_on == ["svc-conn"] * 4
        router.close()

    def test_in_doubt_conflict_raises_immediately_under_blocking_locks(self):
        import time

        router, table = make_cluster()
        with router.transaction() as txn:
            table.insert(txn, {"k": 10, "v": "base"})
            table.insert(txn, {"k": 60, "v": "base"})
        registry = FailpointRegistry()
        registry.crash_on("cluster.2pc.prepared")
        with pytest.raises(SimulatedCrash):
            with installed(registry):
                txn = router.begin()
                table.update(txn, 10, {"v": "new"})
                table.update(txn, 60, {"v": "new"})
                router.commit(txn)
        router.crash()
        router.recover(resolve=False)
        router.enable_concurrency()   # blocking locks on every shard
        assert router.in_doubt_gtids()
        probe = router.begin()
        start = time.monotonic()
        with pytest.raises(InDoubtError):
            table.update(probe, 10, {"v": "probe"})
        # The wedged holder short-circuits the wait: no parking out the
        # 30 s lock timeout before the typed error surfaces.
        assert time.monotonic() - start < 5.0
        router.abort(probe)
        router.resolve_in_doubt()
        with router.transaction() as txn:
            table.update(txn, 10, {"v": "after"})   # wedge cleared
        with router.transaction() as txn:
            assert table.read(txn, 10)["v"] == "after"
        router.close()
