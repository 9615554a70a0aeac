"""Tests for the benchmark infrastructure: cost model, harness, reporting."""

from __future__ import annotations

import json
import os

import pytest

from repro.bench.costmodel import (
    COST_2005,
    MODEL_FRAME_BYTES,
    CostModel,
    stats_delta,
)
from repro.bench.harness import (
    apply_event,
    fresh_moving_objects_db,
    measure,
    run_moving_object_stream,
)
from repro.bench.reporting import format_table, save_results
from repro.storage.framing import HEADER
from repro.workloads.moving_objects import MovingObjectEvent


class TestCostModel:
    def test_empty_delta_is_free(self):
        assert COST_2005.simulated_ms({}) == 0.0

    def test_log_force_dominates_small_transactions(self):
        cost = COST_2005.simulated_ms({"log_forces": 1, "commits": 1})
        assert cost == pytest.approx(
            COST_2005.log_force_ms + COST_2005.commit_cpu_ms
        )

    def test_single_record_txn_matches_paper_magnitudes(self):
        """The calibration targets of Section 5.1."""
        conventional = COST_2005.simulated_ms({
            "log_forces": 1, "commits": 1, "log_bytes": 110,
            "version_ops": 1,
        })
        immortal_extra = COST_2005.simulated_ms({
            "ptt_inserts": 1, "stamps": 1, "vtt_hits": 1, "log_bytes": 60,
        })
        assert 8.5 < conventional < 10.5        # paper: 9.6 ms
        assert 0.7 < immortal_extra < 1.5       # paper: +1.1 ms

    def test_random_vs_sequential_io(self):
        random_cost = COST_2005.simulated_ms({"disk_reads": 1})
        seq_cost = COST_2005.simulated_ms(
            {"disk_reads": 1, "disk_sequential_reads": 1}
        )
        assert random_cost > 5 * seq_cost

    def test_image_bytes_excluded_from_log_bandwidth(self):
        with_images = COST_2005.simulated_ms({
            "log_bytes": 10_000, "log_image_bytes": 10_000,
            "log_image_records": 1,
        })
        without = COST_2005.simulated_ms({"log_bytes": 10_000})
        assert with_images < without

    def test_log_bytes_are_priced_in_the_models_frame(self):
        """A plain record costs its codec bytes plus a 4-byte length,
        whatever the log's own frame is; image records stay priced by
        count."""
        plain, image_records, codec, image = 98, 2, 30, 8_000
        image_bytes = image_records * (HEADER.size + image)
        delta = {
            "log_appends": plain + image_records,
            "log_image_records": image_records,
            "log_bytes": plain * (HEADER.size + codec) + image_bytes,
            "log_image_bytes": image_bytes,
        }
        assert COST_2005.simulated_ms(delta) == pytest.approx(
            plain * (MODEL_FRAME_BYTES + codec) * COST_2005.log_byte_ms
            + image_records * COST_2005.smo_log_ms
        )
        assert MODEL_FRAME_BYTES == 4

    def test_model_is_configurable(self):
        expensive = CostModel(log_force_ms=100.0)
        assert expensive.simulated_ms({"log_forces": 1}) == 100.0

    def test_stats_delta(self):
        before = {"a": 10, "b": 5}
        after = {"a": 15, "b": 5, "c": 3}
        assert stats_delta(before, after) == {"a": 5, "b": 0, "c": 3}


class TestHarness:
    def test_apply_event_advances_clock(self):
        db, table = fresh_moving_objects_db()
        event = MovingObjectEvent(10_000.0, "insert", 1, 5, 6)
        apply_event(db, table, event)
        assert db.clock.tick * 20.0 >= 10_000.0
        with db.transaction() as txn:
            assert table.read(txn, 1) == {
                "Oid": 1, "LocationX": 5, "LocationY": 6,
            }

    def test_run_stream_marks(self):
        db, table = fresh_moving_objects_db()
        marks = run_moving_object_stream(
            db, table, objects=20, transactions=100, mark_every=25
        )
        assert len(marks) == 5  # 4 interior marks + the final one
        assert marks == sorted(marks)

    def test_measure_returns_deltas(self):
        db, table = fresh_moving_objects_db()

        def body():
            with db.transaction() as txn:
                table.insert(txn, {"Oid": 1, "LocationX": 0, "LocationY": 0})

        m = measure(db, body)
        assert m.delta["commits"] == 1
        assert m.simulated_ms > 0
        assert m.wall_seconds >= 0

    def test_conventional_engine_variant(self):
        db, table = fresh_moving_objects_db(immortal=False)
        assert not table.immortal

    def test_eager_engine_variant(self):
        from repro.timestamp.eager import EagerTimestampManager

        db, _ = fresh_moving_objects_db(timestamping="eager")
        assert isinstance(db.tsmgr, EagerTimestampManager)


class TestReporting:
    def test_format_table_aligns(self):
        text = format_table(
            "demo", ["name", "value"],
            [["short", 1.5], ["a-much-longer-name", 123456]],
            note="hello",
        )
        assert "=== demo ===" in text
        assert "note: hello" in text
        lines = [l for l in text.splitlines() if "|" in l]
        assert len({len(l) for l in lines}) == 1  # all rows equal width

    def test_format_table_number_styles(self):
        text = format_table("n", ["x"], [[0.1234], [12.5], [1234567]])
        assert "0.1234" in text
        assert "12.50" in text
        assert "1,234,567" in text

    def test_save_results_writes_json(self, tmp_path, monkeypatch):
        monkeypatch.setenv("IMMORTAL_RESULTS_DIR", str(tmp_path))
        path = save_results("unit_test", {"rows": [1, 2, 3]})
        with open(path) as fh:
            assert json.load(fh) == {"rows": [1, 2, 3]}
        assert os.path.dirname(path) == str(tmp_path)
