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

import pytest

from repro import PROFILES
from repro.faults import crashtest
from repro.faults.crashtest import (
    CrashTestConfig,
    ShadowOracle,
    _sample,
    build,
    enumerate_crossings,
    explore,
    main,
    replay,
    run_workload,
)

# Small but seam-complete: enough transactions for several checkpoints and
# marks, a tight buffer for evictions, fat values for page pressure.
SMALL = CrashTestConfig(
    seed=0, transactions=18, keys=8, checkpoint_every=5, mark_every=3,
    buffer_pages=6, value_pad=500,
)


class TestShadowOracle:
    def test_commit_applies_pending(self):
        oracle = ShadowOracle()
        oracle.begin({1: "a"})
        assert oracle.acceptable_states() == [{}, {1: "a"}]
        oracle.commit_observed()
        assert oracle.acceptable_states() == [{1: "a"}]

    def test_delete_mutation(self):
        oracle = ShadowOracle()
        oracle.begin({1: "a"})
        oracle.commit_observed()
        oracle.begin({1: None})
        assert oracle.acceptable_states() == [{1: "a"}, {}]
        oracle.commit_observed()
        assert oracle.committed == {}

    def test_noop_pending_collapses_acceptable_states(self):
        oracle = ShadowOracle()
        oracle.begin({1: "a"})
        oracle.commit_observed()
        oracle.begin({1: "a"})   # overwrite with the identical value
        assert oracle.acceptable_states() == [{1: "a"}]

    def test_marks_snapshot_committed_state(self):
        oracle = ShadowOracle()
        oracle.begin({1: "a"})
        oracle.commit_observed()
        oracle.mark("t1")
        oracle.begin({1: "b"})
        oracle.commit_observed()
        assert oracle.marks == [("t1", {1: "a"})]


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
            oracle = ShadowOracle()
            run_workload(build(config), config, oracle)
            return oracle.committed

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
        names = enumerate_crossings(self.BATCHED)
        for point in ("buffer.flushbatch.submit",
                      "buffer.flushbatch.write",
                      "buffer.flushbatch.done"):
            assert point in names, f"no crossing at {point}"
        # The per-page path stays in use too (flush_page / unbatched exits).
        assert not any(n.startswith("buffer.flushbatch")
                       for n in enumerate_crossings(SMALL))

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
        run_workload(rig, self.PRESSED, ShadowOracle())
        stats = rig.db.buffer.stats
        assert stats.dirty_evictions > 0
        assert stats.evict_uncovered_skips > 0

    def test_repro_args_round_trip_new_flags(self):
        args = self.BATCHED.repro_args(crossing=7)
        assert "--profile tuned" in args
        assert args.endswith("--crash-point 7")
        assert "--profile" not in SMALL.repro_args(crossing=7)


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

    # What CI's "batched write-back and 2Q" step ran (--eviction 2q
    # --flush-batch 4) and the two sampled crossings it was red on: then
    # indices 756 and 762, named here so renumbering cannot lose them.
    CI_STEP = dict(eviction="2q", flush_batch=4)

    @pytest.mark.parametrize(
        "name, hit", [("disk.write_page", 29), ("log.append", 280)]
    )
    def test_the_crossings_ci_was_red_on(self, monkeypatch, name, hit):
        monkeypatch.setitem(PROFILES, "ci-2q-batch4", self.CI_STEP)
        config = CrashTestConfig(profile="ci-2q-batch4")
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
        # Each commit path and each write-back path is crashed in at least
        # one sweep, not replaced by its tuned twin.
        assert {"txn.commit.force", "txn.commit.stamp",
                "buffer.flush.write"} <= paper
        assert not any(n.startswith(("txn.groupcommit.", "buffer.flushbatch.",
                                     "asof.route.")) for n in paper)
        assert {"txn.groupcommit.enqueue", "txn.groupcommit.force",
                "txn.groupcommit.ack", "buffer.flushbatch.write",
                "asof.route.hit", "asof.route.miss"} <= tuned
        assert any(n.startswith("archive.migrate.") for n in tuned_archive)

    def test_there_are_exactly_two_profiles(self):
        assert sorted(PROFILES) == ["paper", "tuned"]
        assert PROFILES["paper"] == {}

    def test_tuned_is_what_the_wall_clock_benchmark_measures(self):
        # benchmarks/e2e is frozen and is not a package: load its adapter
        # by path, read-only.
        path = pathlib.Path(__file__).parents[1] / "benchmarks/e2e/adapter.py"
        spec = importlib.util.spec_from_file_location("_e2e_adapter", path)
        adapter = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(adapter)
        assert adapter.TUNED == PROFILES["tuned"]

    def test_tuned_is_what_the_identity_oracle_runs(self):
        from tests import test_hotpath_identity

        assert test_hotpath_identity.TUNED == dict(
            PROFILES["tuned"], buffer_pages=256
        )

    def test_unknown_profile_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["--profile", "clock"])
        assert exc_info.value.code == 2
