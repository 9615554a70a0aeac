"""Crash-point exploration harness tests.

Runs a smaller-than-default workload (so the suite stays fast) through the
full enumerate → crash-at-each-point → recover → verify protocol, and
checks the harness's own machinery: oracle bookkeeping, deterministic
enumeration, crossing sampling, and the CLI repro path.
"""

from __future__ import annotations

from collections import Counter

import dataclasses
import importlib.util
import pathlib
import tempfile

import pytest

from repro import PROFILES, ImmortalDB, Timestamp
from repro.concurrency.transaction import TransactionManager
from repro.faults import crashtest
from repro.faults.crashtest import (
    CrashTestConfig,
    _sample,
    build,
    enumerate_crossings,
    explore,
    main,
    replay,
    run_workload,
)
from repro.faults.oracle import Oracle
from repro.wal.checkpoint import CheckpointManager

# Small but seam-complete: enough transactions for several checkpoints and
# marks, a tight buffer for evictions, fat values for page pressure.
SMALL = CrashTestConfig(
    seed=0, transactions=18, keys=8, checkpoint_every=5, mark_every=3,
    buffer_pages=6, value_pad=500,
)


def T(n: int) -> Timestamp:
    return Timestamp(n, 0)


def _commit(oracle: Oracle, ts, mutation, *, engine=0, acked=True) -> None:
    """The driver commits ``mutation``; a forced commit acks inside the call."""
    oracle.begin(mutation, (engine,))
    if acked:
        oracle.durable(ts)
    oracle.committed(ts)


class TestOracle:
    def test_the_in_flight_mutation_is_acked_by_its_hook(self):
        oracle = Oracle()
        oracle.begin({1: "a"})
        assert oracle.acceptable_states() == [{}, {1: "a"}]
        oracle.durable(T(1))        # inside the commit call
        assert oracle.acceptable_states() == [{1: "a"}]
        oracle.committed(T(1))
        assert oracle.acceptable_states() == [{1: "a"}]
        assert oracle.in_flight is None

    def test_delete_mutation(self):
        oracle = Oracle()
        _commit(oracle, T(1), {1: "a"})
        oracle.begin({1: None})
        assert oracle.acceptable_states() == [{1: "a"}, {}]
        oracle.durable(T(2))
        oracle.committed(T(2))
        assert oracle.current() == {} and oracle.as_of(T(1)) == {1: "a"}

    def test_noop_in_flight_collapses_acceptable_states(self):
        oracle = Oracle()
        _commit(oracle, T(1), {1: "a"})
        oracle.begin({1: "a"})   # overwrite with the identical value
        assert oracle.acceptable_states() == [{1: "a"}]

    def test_a_mark_is_answered_by_as_of(self):
        oracle = Oracle()
        _commit(oracle, T(1), {1: "a", 2: "x"})
        oracle.marks.append(T(2))
        _commit(oracle, T(3), {1: "b", 2: None})
        assert oracle.marks == [T(2)]
        assert oracle.as_of(T(0)) == {}
        assert oracle.as_of(T(1)) == oracle.as_of(T(2)) == {1: "a", 2: "x"}
        assert oracle.as_of(T(3)) == {1: "b"}

    def test_as_of_leaves_out_unacked_commits(self):
        oracle = Oracle()
        _commit(oracle, T(1), {1: "a"})
        _commit(oracle, T(2), {1: "b"}, acked=False)
        assert oracle.as_of(T(2)) == {1: "a"}
        assert oracle.current() == {1: "b"}
        oracle.durable(T(2))
        assert oracle.as_of(T(2)) == {1: "b"}

    def test_acks_out_of_enqueue_order(self):
        oracle = Oracle()
        _commit(oracle, T(1), {1: "a"}, engine=0, acked=False)
        _commit(oracle, T(2), {9: "b"}, engine=1, acked=False)
        assert len(oracle.acceptable_states()) == 4
        oracle.durable(T(2))
        assert oracle.acceptable_states() == [{9: "b"}, {1: "a", 9: "b"}]
        oracle.durable(T(1))
        assert oracle.acceptable_states() == [{1: "a", 9: "b"}]

    def test_a_2pc_pair_is_acked_through_its_participants_hooks(self):
        oracle = Oracle()
        oracle.begin({1: "a", 9: "b"}, (0, 1))
        assert oracle.acceptable_states() == [{}, {1: "a", 9: "b"}]
        oracle.durable(T(5))        # the first participant's forced commit
        oracle.durable(T(5))        # the second's: the same timestamp
        assert oracle.acceptable_states() == [{1: "a", 9: "b"}]
        oracle.committed(T(5))
        assert not oracle.volatile and oracle.in_flight is None

    def test_a_half_applied_pair_is_rejected(self):
        oracle = Oracle()
        oracle.begin({1: "a", 9: "b"}, (0, 1))
        for half in ({1: "a"}, {9: "b"}):
            assert half not in oracle.acceptable_states()

    def test_unacked_commits_survive_as_a_prefix_per_engine(self):
        # Engine A loses its earlier commit, engine B keeps its later one.
        oracle = Oracle()
        _commit(oracle, T(1), {1: "a"}, engine=0, acked=False)
        _commit(oracle, T(2), {9: "b"}, engine=1, acked=False)
        assert {9: "b"} in oracle.acceptable_states()
        # On one engine the later commit cannot outlive the earlier one.
        oracle = Oracle()
        _commit(oracle, T(1), {1: "a"}, acked=False)
        _commit(oracle, T(2), {9: "b"}, acked=False)
        assert oracle.acceptable_states() == [{}, {1: "a"}, {1: "a", 9: "b"}]

    def test_the_in_flight_mutation_applies_last(self):
        oracle = Oracle()
        _commit(oracle, T(1), {1: "a"}, acked=False)
        oracle.begin({1: "b"})
        assert oracle.acceptable_states() == [{}, {1: "a"}, {1: "b"}]

    def test_the_in_flight_mutation_lands_only_behind_its_engines_commits(self):
        # Its commit record follows engine 0's un-acked one in that log.
        oracle = Oracle()
        _commit(oracle, T(1), {1: "a"}, engine=0, acked=False)
        oracle.begin({2: "b"}, (0,))
        assert {2: "b"} not in oracle.acceptable_states()
        assert {1: "a", 2: "b"} in oracle.acceptable_states()
        # On another engine it may outlive the lost commit.
        oracle.begin({2: "b"}, (1,))
        assert {2: "b"} in oracle.acceptable_states()
        # A 2PC pair needs every participant's earlier commits kept.
        oracle.begin({2: "b", 9: "c"}, (1, 0))
        assert {2: "b", 9: "c"} not in oracle.acceptable_states()

    def test_an_ack_without_a_hook_is_a_finding(self):
        oracle = Oracle()
        oracle.begin({1: "a"})
        with pytest.raises(AssertionError, match="before it was durable"):
            oracle.committed()      # the service said ok; no hook fired
        oracle.begin({1: "a", 9: "b"}, (0, 1))
        with pytest.raises(AssertionError, match="before it was durable"):
            oracle.committed(T(1))  # a 2PC pair returned; no participant acked

    def test_a_hook_no_mutation_can_own_is_a_finding(self):
        oracle = Oracle()
        with pytest.raises(AssertionError, match="no mutation can own"):
            oracle.durable(T(1))
        oracle.begin({1: "a"})
        oracle.durable(T(1))
        with pytest.raises(AssertionError, match="no mutation can own"):
            oracle.durable(T(2))    # one mutation, two commits

    def test_commits_must_arrive_in_timestamp_order(self):
        oracle = Oracle()
        _commit(oracle, T(2), {1: "late"})
        with pytest.raises(AssertionError):
            _commit(oracle, T(1), {1: "early"})
        with pytest.raises(AssertionError):
            _commit(oracle, T(2), {1: "again"})

    @pytest.mark.parametrize("shards", [0, 2])
    def test_an_ack_before_the_force_fails_the_sweep(self, monkeypatch, shards):
        """Non-vacuity: fire the hook at enqueue, before the group force,
        and the crashes that lose the batch must be findings."""
        grouped = TransactionManager._commit_grouped

        def ack_early(self, txn, ts, commit_lsn):
            self.durable_commit_hook(txn)
            return grouped(self, txn, ts, commit_lsn)

        monkeypatch.setattr(TransactionManager, "_commit_grouped", ack_early)
        config = dataclasses.replace(
            SMALL, profile="tuned", shards=shards, value_pad=300
        )
        result = explore(config, max_points=120)
        assert len(result.failures) >= 10
        assert any("current-state divergence" in r.problems[0]
                   for r in result.failures)


class TestEnumeration:
    def test_enumeration_is_deterministic(self):
        assert enumerate_crossings(SMALL) == enumerate_crossings(SMALL)

    def test_different_seeds_produce_different_workloads(self):
        # The trace of failpoint *names* can coincide across seeds at small
        # scale; the committed data must not.
        def final_state(seed: int):
            config = CrashTestConfig(
                seed=seed, transactions=18, keys=8, checkpoint_every=5,
                mark_every=3, buffer_pages=6, value_pad=500,
            )
            oracle = Oracle()
            run_workload(build(config), config, oracle)
            return oracle.current()

        assert final_state(0) != final_state(1)

    def test_covers_all_required_seams(self):
        seams = Counter(
            name.split(".")[0] for name in enumerate_crossings(SMALL)
        )
        for seam in ("txn", "log", "buffer", "checkpoint", "disk"):
            assert seams[seam] > 0, f"no crossings on seam {seam!r}"


class TestSample:
    def test_all_points_when_under_budget(self):
        assert _sample(5, 10) == [0, 1, 2, 3, 4]
        assert _sample(5, 0) == [0, 1, 2, 3, 4]
        assert _sample(100, 1) == [0]

    def test_even_spread_includes_endpoints(self):
        picked = _sample(100, 10)
        assert len(picked) == 10
        assert picked[0] == 0 and picked[-1] == 99
        assert picked == sorted(picked)


class TestReplay:
    def test_single_crash_point_recovers_clean(self):
        report = replay(SMALL, 10)
        assert report.crashed
        assert report.ok, report.problems

    def test_unreachable_crossing_reported(self):
        report = replay(SMALL, 10**6)
        assert not report.crashed
        assert not report.ok
        assert "never reached" in report.problems[0]


class TestExploration:
    def test_end_to_end_fifty_plus_points(self):
        total = len(enumerate_crossings(SMALL))
        assert total >= 50, (
            f"workload too small: only {total} crossings; the exploration "
            f"test needs >= 50 to satisfy the acceptance criterion"
        )
        result = explore(SMALL, max_points=60)
        assert len(result.explored) >= 50
        assert result.ok, [
            (r.crossing, r.name, r.problems) for r in result.failures
        ]
        seams = {name.split(".")[0] for name in result.by_name}
        assert {"txn", "log", "buffer", "checkpoint", "disk"} <= seams

    def test_progress_callback_sees_every_point(self):
        seen: list[int] = []
        explore(SMALL, max_points=5,
                progress=lambda done, total, report: seen.append(done))
        assert seen == [1, 2, 3, 4, 5]


class TestCLI:
    ARGS = ["--transactions", "18", "--keys", "8"]

    def test_single_point_repro_mode(self, capsys):
        rc = main(["--seed", "0", *self.ARGS, "--crash-point", "10"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "OK" in out

    def test_sweep_mode(self, capsys):
        rc = main(["--seed", "0", *self.ARGS, "--max-points", "12"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "crossings enumerated" in out
        assert "zero integrity or as-of-equivalence violations" in out

    def test_unreachable_point_exits_nonzero(self, capsys):
        rc = main(["--seed", "0", *self.ARGS, "--crash-point", "999999"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out


class TestBatchedFlushCrossings:
    """PR 6: crash points inside the batched write-back path (``tuned``)."""

    BATCHED = dataclasses.replace(SMALL, profile="tuned")
    # PR 23: data well past a 12-frame pool and marks nine commits apart, so
    # dirty evictions land inside the group-commit window — where 2Q passes
    # a frame the durable log does not cover yet over for one it does.
    PRESSED = CrashTestConfig(
        profile="tuned", buffer_pages=12, keys=200, mark_every=9,
        value_pad=2500,
    )

    def test_flushbatch_crossings_enumerated(self):
        # Both profiles write back in batches; the one-page path
        # (flush_page: archive relinks, repair) is TestProfiles' to check.
        for config in (SMALL, self.BATCHED):
            names = enumerate_crossings(config)
            for point in ("buffer.flushbatch.submit",
                          "buffer.flushbatch.write",
                          "buffer.flushbatch.done"):
                assert point in names, f"{config.profile}: no {point}"

    def test_crashes_inside_flush_batches_recover_clean(self):
        for config in (self.BATCHED, self.PRESSED):
            names = enumerate_crossings(config)
            points = [i for i, name in enumerate(names)
                      if name.startswith("buffer.flushbatch")]
            assert len(points) >= 3
            # A crash between the batch's single force and any of its page
            # writes leaves a durable prefix; redo must rebuild the rest.
            for crossing in points[::-(-len(points) // 12)]:
                report = replay(config, crossing)
                assert report.crashed, names[crossing]
                assert report.ok, (names[crossing], report.problems)
        # The second config is there for the write-backs chosen *around*
        # uncovered frames: without a pass-over it tests nothing new.
        rig = build(self.PRESSED)
        run_workload(rig, self.PRESSED, Oracle())
        stats = rig.db.buffer.stats
        assert stats.dirty_evictions > 0
        assert stats.evict_uncovered_skips > 0

    def test_repro_args_round_trip_new_flags(self):
        args = self.BATCHED.repro_args(crossing=7)
        assert "--profile tuned" in args
        assert args.endswith("--crash-point 7")
        assert "--profile" not in SMALL.repro_args(crossing=7)


class TestFileBacked:
    """``--file``: the engine on files in a temporary directory, so every
    restart reads the log back from its file."""

    FILE = dataclasses.replace(SMALL, file=True)

    def test_filelog_crossings_join_the_sweep(self):
        names = enumerate_crossings(self.FILE)
        assert {"filelog.write", "filelog.fsync"} <= set(names)
        assert [n for n in names if not n.startswith("filelog.")] \
            == enumerate_crossings(SMALL)

    @pytest.mark.parametrize("archive", [False, True])
    def test_crashes_inside_the_file_force_recover_from_the_file(
        self, archive
    ):
        config = dataclasses.replace(self.FILE, archive=archive)
        names = enumerate_crossings(config)
        points = [i for i, name in enumerate(names)
                  if name.startswith("filelog.")]
        for crossing in points[:: -(-len(points) // 8)]:
            report = replay(config, crossing)
            assert report.crashed, names[crossing]
            assert report.ok, (names[crossing], report.problems)

    def test_a_replay_leaves_no_files_behind(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        assert replay(self.FILE, 10).ok
        enumerate_crossings(self.FILE)
        assert list(tmp_path.iterdir()) == []

    def test_service_crashes_recover_from_the_file(self):
        """The service sweep on files: the configuration behind the socket."""
        config = dataclasses.replace(self.FILE, service=True)
        names = enumerate_crossings(config)
        assert "filelog.fsync" in names and "service.execute" in names
        for crossing in range(0, len(names), -(-len(names) // 10)):
            report = replay(config, crossing)
            assert report.crashed, names[crossing]
            assert report.ok, (names[crossing], report.problems)

    def test_every_sweep_but_the_cluster_runs_on_files(self, capsys):
        for other in ({"archive": True}, {"service": True},
                      {"media_faults": True}, {"service_faults": True}):
            CrashTestConfig(file=True, **other)
        with pytest.raises(ValueError, match="--file"):
            CrashTestConfig(file=True, shards=2)
        with pytest.raises(SystemExit) as exit_:
            main(["--file", "--shards", "2"])
        assert exit_.value.code == 2
        assert "--file" in capsys.readouterr().err
        assert self.FILE.repro_args(3) \
            == "--seed 0 --file --transactions 18 --keys 8 --crash-point 3"

    def test_media_faults_on_files_heal_after_a_power_loss(self):
        config = dataclasses.replace(self.FILE, media_faults=True)
        result = explore(config, max_points=30)
        assert result.ok, [(r.crossing, r.problems) for r in result.failures]


class TestPowerLoss:
    """Every sweep loses power: each replay keeps all, none or a seeded
    subset of every device's writes since its last sync."""

    FILE = dataclasses.replace(SMALL, file=True)
    TUNED_FILE = CrashTestConfig(profile="tuned", file=True)

    def test_a_sweep_keeps_all_and_none_of_the_unsynced_writes(self):
        result = explore(self.FILE)
        assert result.ok
        assert result.kept["all"] and result.kept["none"] \
            and result.kept["a subset"]

    def test_the_keep_set_derives_from_seed_and_crossing(self):
        def kept():
            return [replay(self.FILE, crossing).kept
                    for crossing in range(0, 249, 6)]

        first = kept()
        assert first == kept() and len(set(first)) >= 3

    def test_a_checkpoint_that_does_not_sync_the_page_file_is_red(
        self, monkeypatch,
    ):
        """The planted bug: the master record moves past page writes that
        never reached the platter.  Only a power loss can tell."""
        assert explore(self.TUNED_FILE, max_points=60).ok
        take = CheckpointManager.take

        def take_without_sync(self, *args, **kwargs):
            self.buffer.disk.sync = lambda: None
            try:
                return take(self, *args, **kwargs)
            finally:
                del self.buffer.disk.sync

        monkeypatch.setattr(CheckpointManager, "take", take_without_sync)
        assert not explore(self.TUNED_FILE, max_points=60).ok


def _crossing_of(names: list[str], name: str, hit: int) -> int:
    """Index of the ``hit``-th crossing of failpoint ``name``."""
    seen = 0
    for index, crossed in enumerate(names):
        seen += crossed == name
        if seen == hit:
            return index
    raise AssertionError(f"{name} is crossed only {seen} times")


class TestSMOPagesFollowTheirRecord:
    """A split's pages used to enter the pool before their log record, so the
    admission of the second could write the first — old LSN, pointing at a
    history page that existed nowhere.  Crashing between that write and the
    record's force left a database recovery could not open
    (``BufferPoolError: page 8 image claims to be page 0``)."""

    # The two sampled crossings CI's "batched write-back and 2Q" step
    # (--eviction 2q --flush-batch 4) was red on: then indices 756 and 762,
    # named here so renumbering cannot lose them.  That step's engine is
    # the paper profile now, in batches of 8: the same hits land in the
    # same windows (a boot-page write amid evictions; a commit's force
    # right after a batch).
    @pytest.mark.parametrize(
        "name, hit", [("disk.write_page", 29), ("log.append", 280)]
    )
    def test_the_crossings_ci_was_red_on(self, name, hit):
        config = CrashTestConfig(profile="paper")
        crossing = _crossing_of(enumerate_crossings(config), name, hit)
        report = replay(config, crossing)
        assert report.crashed and report.name == name
        assert report.ok, report.problems

    @pytest.mark.parametrize(
        "name, hit", [("disk.write_page", 24), ("log.append", 239)]
    )
    def test_the_same_window_on_the_tuned_profile(self, name, hit):
        config = CrashTestConfig(profile="tuned")
        crossing = _crossing_of(enumerate_crossings(config), name, hit)
        report = replay(config, crossing)
        assert report.crashed and report.name == name
        assert report.ok, report.problems


class TestAFindingIsAFinding:
    """Whatever escapes recovery or verification is reported, with a repro
    line, and fails the sweep — it does not kill it with a traceback."""

    @pytest.fixture
    def exploding_verify(self, monkeypatch):
        def verify(rig, oracle, report):
            raise RuntimeError("page 8 image claims to be page 0")

        monkeypatch.setattr(
            crashtest, "ENGINE_CRASH",
            dataclasses.replace(crashtest.ENGINE_CRASH, verify=verify),
        )

    def test_replay_reports_the_escape(self, exploding_verify):
        report = replay(SMALL, 10)
        assert report.crashed and not report.ok
        assert "RuntimeError escaped recovery or verification" \
            in report.problems[0]
        assert "claims to be page 0" in report.problems[0]

    def test_sweep_survives_and_exits_nonzero(self, exploding_verify, capsys):
        rc = main(["--profile", "tuned", *TestCLI.ARGS, "--max-points", "4"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "4 crash points explored" in out
        assert out.count("FAIL crossing") == 4
        assert "--profile tuned --transactions 18 --keys 8 --crash-point " in out

    def test_workload_failure_before_the_crash_is_reported(self, monkeypatch):
        def workload(rig, config, oracle):
            raise AssertionError("mid-workload as-of divergence")

        monkeypatch.setattr(
            crashtest, "ENGINE_CRASH",
            dataclasses.replace(crashtest.ENGINE_CRASH, workload=workload),
        )
        report = replay(SMALL, 10)
        assert not report.crashed and not report.ok
        assert "as-of divergence" in report.problems[0]


class TestProfiles:
    # Every fire() name the five engine sweeps of the flag-at-a-time matrix
    # crossed (default, --group-commit 4, --route-cache, --eviction 2q
    # --flush-batch 4, --archive --route-cache), recorded from the commit
    # before the flags were folded into profiles — less the six
    # archive.migrate.merge / archive.compact.* seams, deleted with the
    # merges and the compaction they were in.
    FLAG_MATRIX_SEAMS = frozenset({
        "archive.migrate.append", "archive.migrate.free",
        "archive.migrate.relink", "archive.migrate.select",
        "archive.migrate.sync", "archive.read.block", "archive.read.decode",
        "asof.route.hit", "asof.route.invalidate", "asof.route.miss",
        "buffer.evict", "buffer.flush.begin", "buffer.flush.end",
        "buffer.flush.write", "buffer.flushbatch.done",
        "buffer.flushbatch.submit", "buffer.flushbatch.write",
        "checkpoint.begin", "checkpoint.end", "checkpoint.flushed",
        "checkpoint.logged", "checkpoint.master", "disk.write_page",
        "engine.save_meta", "log.append", "log.force", "txn.commit.begin",
        "txn.commit.done", "txn.commit.force", "txn.commit.stamp",
        "txn.groupcommit.ack", "txn.groupcommit.enqueue",
        "txn.groupcommit.force",
    })

    def test_profile_sweeps_cross_every_seam_the_flag_matrix_did(self):
        def crossed(**config) -> set[str]:
            return set(enumerate_crossings(CrashTestConfig(**config)))

        paper = crossed(profile="paper")
        tuned = crossed(profile="tuned")
        tuned_archive = crossed(profile="tuned", archive=True)
        assert self.FLAG_MATRIX_SEAMS <= paper | tuned | tuned_archive
        # Each commit path is crashed in at least one sweep, not replaced by
        # its tuned twin; batched write-back is in both, and the one-page
        # write-back is archive relinks'.
        write_back = {"buffer.flushbatch.write"}
        assert {"txn.commit.force", "txn.commit.stamp"} | write_back <= paper
        assert not any(n.startswith(("txn.groupcommit.", "asof.route."))
                       for n in paper)
        assert {"txn.groupcommit.enqueue", "txn.groupcommit.force",
                "txn.groupcommit.ack", "asof.route.hit",
                "asof.route.miss"} | write_back <= tuned
        assert any(n.startswith("archive.migrate.") for n in tuned_archive)
        assert "buffer.flush.write" in tuned_archive

    def test_there_are_exactly_two_profiles(self):
        assert sorted(PROFILES) == ["paper", "tuned"]
        assert PROFILES["paper"] == {}

    @staticmethod
    def _adapter():
        # benchmarks/e2e is frozen and is not a package: load its adapter
        # by path, read-only.
        path = pathlib.Path(__file__).parents[1] / "benchmarks/e2e/adapter.py"
        spec = importlib.util.spec_from_file_location("_e2e_adapter", path)
        adapter = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(adapter)
        return adapter

    def test_tuned_is_what_the_wall_clock_benchmark_measures(self):
        adapter = self._adapter()
        # The rest are the names the engine takes at one value only.
        assert PROFILES["tuned"].items() <= adapter.TUNED.items()
        rest = {k: v for k, v in adapter.TUNED.items()
                if k not in PROFILES["tuned"]}
        assert rest == dict(eviction="2q", flush_batch=8, page_checksums=True)

    def test_the_adapters_settings_build_the_tuned_engine(self):
        def stored(settings) -> tuple:
            db = ImmortalDB(buffer_pages=16, **settings)
            table = db.create_table("t", [("k", "int"), ("v", "text")],
                                    key="k", immortal=True)
            for k in range(60):
                with db.transaction() as txn:
                    table.insert(txn, {"k": k, "v": "x" * 200})
            db.flush_commits()
            db.checkpoint(flush=True)
            pool, device = db.buffer, db.disk.device
            return (type(pool._policy), pool.capacity, pool.read_ahead,
                    pool.stats, db.disk.stats,
                    device.read(device.size, 0))

        assert stored(self._adapter().TUNED) == stored(PROFILES["tuned"])

    def test_tuned_is_what_the_identity_oracle_runs(self):
        from tests import test_hotpath_identity

        assert test_hotpath_identity.TUNED == dict(
            PROFILES["tuned"], buffer_pages=256
        )

    def test_unknown_profile_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["--profile", "clock"])
        assert exc_info.value.code == 2
