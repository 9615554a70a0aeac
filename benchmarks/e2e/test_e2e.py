"""Self-tests of the benchmark (not part of the repository's tier-1 suite).

    python3 -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import os
import re
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run                          # noqa: E402  (first: it puts src/ on the path)
import adapter                                                  # noqa: E402
import compare                                                  # noqa: E402
import measure                                                  # noqa: E402
import workloads                                                # noqa: E402
from tracer import Tracer                                       # noqa: E402

IN_PROCESS = ("oltp_update", "oltp_pressure", "asof_deep")


def quick(name, seed=5, trace="0"):
    return run.run_workload(name, seed, seconds=1, trace=trace, quick=True)


@pytest.mark.parametrize("name", IN_PROCESS)
def test_same_seed_same_task_and_counts(name):
    first, second = quick(name), quick(name)
    assert first["correct"] and second["correct"], first["notes"] + second["notes"]
    assert first["digest"] == second["digest"]
    assert first["counts"] == second["counts"]
    space = "stored_bytes_per_user_byte"
    assert first["metrics"][space]["value"] == second["metrics"][space]["value"]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_other_seed_other_task(name):
    assert (workloads.generate(name, 1, 0.1).digest
            != workloads.generate(name, 2, 0.1).digest)
    assert (workloads.generate(name, 1, 0.1).digest
            == workloads.generate(name, 1, 0.1).digest)


def test_self_times_sum_to_the_root_span(tmp_path):
    task = workloads.generate("oltp_update", 5, 0.1)
    tracer = Tracer()
    tracer.install(adapter.SPANS)
    try:
        rep = run.engine_rep(task, str(tmp_path), measure.Calibrator(), tracer)
    finally:
        tracer.uninstall()
    assert adapter.Table.update.__name__ == "update"        # originals are back
    assert not hasattr(adapter.Table.update, "__wrapped__")
    root = sum(rec[1] for (_, name), rec in rep["agg"].items() if name == "bench.op")
    self_times = sum(rec[2] for rec in rep["agg"].values())
    assert self_times == root
    metrics = run.layers.traced_metrics(task, rep, 1000.0)
    assert 0 < metrics["trace.unattributed_frac"] < 0.2
    by_op = {}
    for span in tracer.spans:
        by_op.setdefault(span["op"], []).append(span)
    some_update = next(s for s in by_op.values() if s[0]["class"] == "update")
    roots = [s for s in some_update if s["parent"] is None]
    assert [s["name"] for s in roots] == ["bench.op"]
    assert {"core", "wal", "concurrency"} <= {s["layer"] for s in some_update}


def test_percentile_needs_ten_samples_beyond():
    with pytest.raises(measure.TooFewSamples):
        measure.percentile(list(range(999)), 99)
    assert measure.percentile(list(range(1000)), 99) == 989
    with pytest.raises(measure.TooFewSamples):
        measure.percentile(list(range(19)), 50)
    assert measure.percentile(list(range(1, 21)), 50) == 10


def test_every_printed_name_is_in_benchmark_json(capsys):
    result = quick("asof_deep", trace="both")
    run.report(result)
    lines = capsys.readouterr().out.strip().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    known = set(run.END_TO_END) | set(run.PER_LAYER)
    printed = {line.split()[0] for line in lines[1:-1] if not line.startswith("   !")}
    assert printed == set(last["metrics"])
    for name in printed:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)
        assert name in known
    assert os.path.exists(os.path.join(run.RESULTS, "spans-asof_deep.jsonl"))


def test_full_run_prints_every_metric_of_its_kind(monkeypatch):
    """With a trace flag of 0 or 1 the metrics are exactly one list."""
    monkeypatch.setattr(run, "MIN_REPS", 1)
    result = run.run_workload("oltp_update", 5, seconds=0.1, trace="0", quick=False)
    assert list(result["metrics"]) == run.END_TO_END
    assert all(m["value"] != 0 for m in result["metrics"].values())


def test_wrong_shadow_entry_fails_the_run(monkeypatch):
    real = workloads.generate

    def corrupted(name, seed, scale=1.0):
        task = real(name, seed, scale)
        ops = task.streams[0]
        at = next(i for i, op in enumerate(ops) if op[0] == "read")
        ops[at] = ops[at][:3] + ("not what was written",)
        return task

    monkeypatch.setattr(workloads, "generate", corrupted)
    assert run.main(["--workload", "oltp_update", "--quick", "--trace", "0"]) == 1


def test_lost_write_fails_the_run(monkeypatch):
    real = workloads.generate

    def corrupted(name, seed, scale=1.0):
        task = real(name, seed, scale)
        task.final_rows[next(iter(task.final_rows))] = "never acknowledged"
        return task

    monkeypatch.setattr(workloads, "generate", corrupted)
    result = quick("oltp_update")
    assert not result["correct"] and result["failed"] == 1


def test_compare_verdicts_and_modes(tmp_path):
    def side(values, mode="full"):
        return {"mode": mode, "workloads": {"w": {
            "failed": 0, "attempted": 10,
            "metrics": {"ops_per_s": {"unit": "1/s", **measure.summarize(values)}},
        }}}

    metric = [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]
    steady = side([100, 101, 102, 103, 104])
    assert compare.compare(steady, side([99, 100, 101, 102, 103]), metric)[1][5] \
        == "within bound"
    assert compare.compare(steady, side([80, 81, 82, 83, 84]), metric)[1][5] \
        == "regressed"
    assert compare.compare(steady, side([60, 80, 100, 120, 140]), metric)[1][5] \
        == "unresolved"
    assert compare.compare(side([60, 80, 100, 120, 140]),
                           side([150, 160, 170, 180, 190]), metric)[1][5] \
        == "within bound"
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(steady))
    b.write_text(json.dumps(side([100, 101, 102, 103, 104], mode="quick")))
    assert compare.main([str(a), str(b)]) == 2
    b.write_text(json.dumps(side([50, 51, 52, 53, 54])))   # worse than any bound
    assert compare.main([str(a), str(b)]) == 1
