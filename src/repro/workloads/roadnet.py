"""A synthetic road network for the moving-objects generator.

The paper drives its experiments with objects moving on the Seattle-area
road network (Figure 4).  We build a comparable substrate: a grid of
intersections with randomly perturbed edge lengths and a sprinkling of
removed edges (rivers, parks), which yields realistic non-straight shortest
paths while staying fully deterministic under a seed.
"""

from __future__ import annotations

import random

import networkx as nx


class RoadNetwork:
    """A connected grid road network with weighted edges.

    Nodes are ``(row, col)`` intersections with ``pos`` attributes in
    meters; edge ``length`` is the road distance between intersections.
    """

    def __init__(
        self,
        rows: int = 20,
        cols: int = 20,
        *,
        block_meters: float = 250.0,
        removal_fraction: float = 0.08,
        seed: int = 42,
    ) -> None:
        if rows < 2 or cols < 2:
            raise ValueError("a road network needs at least a 2x2 grid")
        rng = random.Random(seed)
        graph = nx.grid_2d_graph(rows, cols)
        for node in graph.nodes:
            row, col = node
            graph.nodes[node]["pos"] = (
                col * block_meters + rng.uniform(-20, 20),
                row * block_meters + rng.uniform(-20, 20),
            )
        for u, v in graph.edges:
            graph.edges[u, v]["length"] = block_meters * rng.uniform(0.8, 1.4)
        # Remove a fraction of edges, but never disconnect the network.
        removable = list(graph.edges)
        rng.shuffle(removable)
        to_remove = int(len(removable) * removal_fraction)
        removed = 0
        for edge in removable:
            if removed >= to_remove:
                break
            graph.remove_edge(*edge)
            if nx.is_connected(graph):
                removed += 1
            else:
                graph.add_edge(*edge, length=block_meters)
        self.graph = graph
        self._rng = rng
        self._nodes = list(graph.nodes)

    def random_node(self, rng: random.Random):
        return rng.choice(self._nodes)

    def position_of(self, node) -> tuple[float, float]:
        return self.graph.nodes[node]["pos"]

    def shortest_path(self, source, target) -> list:
        """Shortest path by road length (Dijkstra)."""
        return nx.shortest_path(self.graph, source, target, weight="length")

    def path_length(self, path: list) -> float:
        return sum(
            self.graph.edges[u, v]["length"] for u, v in zip(path, path[1:])
        )

    def random_trip(self, rng: random.Random, *, min_hops: int = 3):
        """A (source, destination, path) with a path of at least min_hops."""
        for _ in range(100):
            source = self.random_node(rng)
            target = self.random_node(rng)
            if source == target:
                continue
            path = self.shortest_path(source, target)
            if len(path) > min_hops:
                return source, target, path
        raise RuntimeError("could not sample a trip; network too small?")
