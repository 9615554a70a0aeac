"""Shard-mode crash exploration: the 2PC protocol under the crash harness.

Two layers: a named-failpoint matrix that pins the protocol's decision
table (crash before the durable decision ⇒ abort everywhere, after ⇒
commit everywhere), and the crossing-indexed exploration the CI sweep
runs, on a small workload so the suite stays fast.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cluster import ShardRouter
from repro.core.integrity import verify_integrity
from repro.errors import ImmortalDBError, InDoubtError
from repro.faults.crashtest import (
    CrashTestConfig,
    build,
    enumerate_crossings,
    explore,
    main,
    replay,
    run_workload,
)
from repro.faults.oracle import Oracle
from repro.faults.failpoints import (
    FailpointRegistry,
    SimulatedCrash,
    installed,
)

SMALL = CrashTestConfig(
    seed=0, shards=2, transactions=15, keys=8, checkpoint_every=5,
    mark_every=3, buffer_pages=6, value_pad=300,
)

# The 2PC state machine's crash points, with the outcome presumed-abort
# recovery must drive every shard to when the crash lands there.
ABORT_POINTS = [
    "cluster.2pc.prepare",        # before any vote: nothing prepared
    "txn.prepare.begin",          # first participant mid-prepare
    "txn.prepare.force",          # vote appended but not durable
    "txn.prepare.done",           # one durable vote, coordinator undecided
    "cluster.2pc.prepared",       # all votes durable, no decision yet
    "cluster.2pc.decide",         # decision chosen but not forced
]
COMMIT_POINTS = [
    "cluster.2pc.decision_logged",  # the forced decision IS the commit
    "cluster.2pc.commit",           # mid fan-out: some branches committed
    "cluster.2pc.ack",              # all branches committed, pre-forget
    "cluster.2pc.forget",           # fully acknowledged
]


def _crash_cross_shard_update(router, table, point):
    registry = FailpointRegistry()
    registry.crash_on(point)
    with pytest.raises(SimulatedCrash):
        with installed(registry):
            txn = router.begin()
            table.update(txn, 10, {"v": "new"})
            table.update(txn, 60, {"v": "new"})
            router.commit(txn)


def _build_two_shard():
    router = ShardRouter.for_int_keys(2, key_space=100)
    table = router.create_table(
        "kv", [("k", "int"), ("v", "text")], key="k", immortal=True
    )
    with router.transaction() as txn:
        for k in (10, 60):
            table.insert(txn, {"k": k, "v": "base"})
    return router, table


class Test2PCCrashMatrix:
    @pytest.mark.parametrize("point", ABORT_POINTS)
    def test_crash_before_decision_aborts_everywhere(self, point):
        router, table = _build_two_shard()
        _crash_cross_shard_update(router, table, point)
        router.crash()
        router.recover()
        with router.transaction() as txn:
            state = {r["k"]: r["v"] for r in table.scan(txn)}
        assert state == {10: "base", 60: "base"}, point
        for shard in router.shards:
            verify_integrity(shard.db, strict=True)
        # Stability: a second crash/recover must not change the outcome.
        router.crash_and_recover()
        with router.transaction() as txn:
            assert {r["k"]: r["v"] for r in table.scan(txn)} == state

    @pytest.mark.parametrize("point", COMMIT_POINTS)
    def test_crash_after_decision_commits_everywhere(self, point):
        router, table = _build_two_shard()
        _crash_cross_shard_update(router, table, point)
        router.crash()
        router.recover()
        with router.transaction() as txn:
            state = {r["k"]: r["v"] for r in table.scan(txn)}
        assert state == {10: "new", 60: "new"}, point
        for shard in router.shards:
            verify_integrity(shard.db, strict=True)
        router.crash_and_recover()
        with router.transaction() as txn:
            assert {r["k"]: r["v"] for r in table.scan(txn)} == state

    def test_in_doubt_survivor_blocks_then_resolves(self):
        router, table = _build_two_shard()
        _crash_cross_shard_update(router, table, "cluster.2pc.prepared")
        router.crash()
        router.recover(resolve=False)
        assert router.in_doubt_gtids()
        probe = router.begin()
        with pytest.raises(InDoubtError):
            table.update(probe, 10, {"v": "probe"})
        router.abort(probe)
        assert router.resolve_in_doubt() >= 1
        assert not router.in_doubt_gtids()


class TestShardWorkload:
    def test_enumeration_is_deterministic_and_crosses_cluster_seams(self):
        first = enumerate_crossings(SMALL)
        second = enumerate_crossings(SMALL)
        assert first == second
        seams = {name.split(".")[0] for name in first}
        assert "cluster" in seams
        assert "txn" in seams
        assert "log" in seams
        assert any(n.startswith("cluster.2pc.") for n in first)
        assert any(n.startswith("cluster.router.fastpath") for n in first)

    @pytest.mark.parametrize("profile", ["paper", "tuned"])
    def test_uncrashed_workload_matches_oracle(self, profile):
        config = dataclasses.replace(SMALL, profile=profile)
        rig = build(config)
        router, table = rig.db, rig.table
        oracle = Oracle()
        run_workload(rig, config, oracle)
        with router.transaction() as txn:
            got = {r["k"]: r["v"] for r in table.scan(txn)}
        assert got == oracle.current()
        for mark in oracle.marks:
            assert {
                r["k"]: r["v"] for r in table.scan_as_of(mark)
            } == oracle.as_of(mark)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("shards", [2, 4])
    def test_tuned_shards_run_undisturbed(self, shards, seed):
        """Each used to stop at a mid-workload as-of divergence: the old
        oracle matched one engine's acks to commits in FIFO order, and a
        2PC participant's forced commit fired no ack at all."""
        config = dataclasses.replace(
            SMALL, profile="tuned", seed=seed, shards=shards,
            keys=max(8, 4 * shards),
        )
        assert len(enumerate_crossings(config)) > 0

    def test_cross_shard_mutations_actually_ran_2pc(self):
        rig = build(SMALL)
        run_workload(rig, SMALL, Oracle())
        router = rig.db
        assert router.twopc_commits > 0
        assert router.fastpath_commits > 0


class TestShardExploration:
    @pytest.mark.parametrize("profile", ["paper", "tuned"])
    def test_sampled_exploration_is_clean(self, profile):
        result = explore(
            dataclasses.replace(SMALL, profile=profile), max_points=12
        )
        assert result.total_crossings > 0
        assert len(result.explored) == 12
        assert result.ok, [f.problems for f in result.failures]

    @pytest.mark.parametrize("profile", ["paper", "tuned"])
    def test_every_cluster_crossing_is_clean(self, profile):
        config = dataclasses.replace(SMALL, profile=profile)
        names = enumerate_crossings(config)
        targets = [
            i for i, n in enumerate(names) if n.startswith("cluster.")
        ]
        assert any(
            names[i].startswith("cluster.2pc.") for i in targets
        ), "workload never crossed the 2PC seam"
        assert any(
            names[i].startswith("cluster.router.") for i in targets
        ), "workload never crossed the router seam"
        for crossing in targets:
            report = replay(config, crossing)
            assert report.ok, (
                f"crossing {crossing} ({report.name}): {report.problems}"
            )

    def test_unreached_crossing_reports_problem(self):
        report = replay(SMALL, 10_000_000)
        assert not report.crashed
        assert not report.ok

    def test_cli_single_point_repro(self, capsys):
        rc = main([
            "--shards", "2", "--transactions", "15", "--keys", "8",
            "--crash-point", "5",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "OK" in out

    def test_repro_args_round_trip(self):
        cfg = CrashTestConfig(seed=3, shards=4, transactions=20)
        args = cfg.repro_args(17)
        assert "--shards 4" in args
        assert "--seed 3" in args
        assert "--crash-point 17" in args
