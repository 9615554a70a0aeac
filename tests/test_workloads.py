"""Tests for the road network and moving-objects workload generator."""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.workloads.moving_objects import (
    MovingObjectWorkload,
    REPORT_INTERVAL_MS,
)
from repro.workloads.roadnet import RoadNetwork


class TestRoadNetwork:
    def test_network_is_connected(self):
        net = RoadNetwork(rows=10, cols=10, seed=1)
        assert nx.is_connected(net.graph)

    def test_deterministic_under_seed(self):
        a = RoadNetwork(rows=8, cols=8, seed=5)
        b = RoadNetwork(rows=8, cols=8, seed=5)
        assert sorted(a.graph.edges) == sorted(b.graph.edges)

    def test_edges_removed(self):
        full = 2 * 10 * 10 - 10 - 10  # grid edge count
        net = RoadNetwork(rows=10, cols=10, removal_fraction=0.1, seed=2)
        assert net.graph.number_of_edges() < full

    def test_shortest_path_respects_lengths(self):
        net = RoadNetwork(rows=6, cols=6, seed=3)
        path = net.shortest_path((0, 0), (5, 5))
        assert path[0] == (0, 0) and path[-1] == (5, 5)
        assert net.path_length(path) > 0

    def test_random_trip_has_min_hops(self):
        net = RoadNetwork(rows=8, cols=8, seed=4)
        rng = random.Random(0)
        _, _, path = net.random_trip(rng, min_hops=4)
        assert len(path) > 4

    def test_tiny_grid_rejected(self):
        with pytest.raises(ValueError):
            RoadNetwork(rows=1, cols=5)


class TestMovingObjectWorkload:
    def test_every_object_inserts_before_updating(self):
        workload = MovingObjectWorkload(objects=20, seed=1)
        seen: set[int] = set()
        for event in workload.events(max_events=500):
            if event.kind == "update":
                assert event.oid in seen
            else:
                assert event.oid not in seen
                seen.add(event.oid)

    def test_events_are_time_ordered(self):
        workload = MovingObjectWorkload(objects=30, seed=2)
        times = [e.time_ms for e in workload.events(max_events=800)]
        assert times == sorted(times)

    def test_deterministic_under_seed(self):
        a = list(MovingObjectWorkload(objects=10, seed=3).events(max_events=200))
        b = list(MovingObjectWorkload(objects=10, seed=3).events(max_events=200))
        assert a == b

    def test_variable_update_counts(self):
        """'Not all moving objects have the same number of updates.'"""
        workload = MovingObjectWorkload(objects=40, seed=4)
        counts: dict[int, int] = {}
        for event in workload.events():
            if event.kind == "update":
                counts[event.oid] = counts.get(event.oid, 0) + 1
        assert len(set(counts.values())) > 3

    def test_bounded_stream_stops_exactly(self):
        workload = MovingObjectWorkload(objects=10, seed=5)
        assert len(list(workload.events(max_events=123))) == 123

    def test_unbounded_stream_terminates(self):
        """Without a cap, every object eventually reaches its destination."""
        workload = MovingObjectWorkload(objects=10, seed=6)
        events = list(workload.events())
        assert events  # finite
        assert all(e.kind in ("insert", "update") for e in events)

    def test_capped_stream_sustains_any_length(self):
        """The paper's 32K-transaction runs need objects to keep moving."""
        workload = MovingObjectWorkload(objects=5, seed=7)
        events = list(workload.events(max_events=3000))
        assert len(events) == 3000

    def test_transaction_mix(self):
        workload = MovingObjectWorkload(objects=50, seed=8)
        inserts, updates = workload.transaction_mix(1000)
        assert inserts == 50
        assert updates == 950

    def test_positions_move_between_reports(self):
        workload = MovingObjectWorkload(objects=1, seed=9)
        events = list(workload.events(max_events=10))
        positions = {(e.x, e.y) for e in events}
        assert len(positions) > 3  # the object actually travels

    def test_report_interval_spacing(self):
        workload = MovingObjectWorkload(objects=1, seed=10)
        events = list(workload.events(max_events=5))
        deltas = [
            b.time_ms - a.time_ms for a, b in zip(events, events[1:])
        ]
        assert all(abs(d - REPORT_INTERVAL_MS) < 1e-6 for d in deltas)
