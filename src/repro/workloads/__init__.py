"""Workload generators for the paper's experiments.

* :mod:`repro.workloads.roadnet` — a synthetic road network (grid with
  randomized edge weights) standing in for the Seattle-area map of Figure 4,
* :mod:`repro.workloads.moving_objects` — a network-based generator of
  moving objects after Brinkhoff [8], matching the paper's description: an
  object appears (→ one Insert transaction of its id and location), moves
  along shortest paths at a class-specific speed (→ one Update transaction
  per step), and stops reporting when it reaches its destination — so
  objects accumulate different numbers of updates, exactly the skew the
  Fig-5/Fig-6 experiments rely on.
"""

from repro.workloads.roadnet import RoadNetwork
from repro.workloads.moving_objects import (
    MovingObjectEvent,
    MovingObjectWorkload,
)

__all__ = [
    "RoadNetwork",
    "MovingObjectEvent",
    "MovingObjectWorkload",
]
