"""Access methods: time splits, the B-tree primary index, the TSB-tree.

* :mod:`repro.access.timesplit` — the page time split of Section 3.3
  (Figure 3): the four-case assignment of versions between the current page
  and a new history page, delete-stub pruning, and the key-split-threshold
  policy that yields ≈ T·ln 2 single-timeslice utilization,
* :mod:`repro.access.btree` — the B+tree primary index whose leaves are the
  current data pages; full pages make room with a time split (immortal
  tables), snapshot-version pruning (conventional tables), and/or a key
  split,
* :mod:`repro.access.tsbtree` — the time-split B-tree index over key × time
  rectangles, giving direct access to the history page holding any
  (key, as-of-time) — the paper's "next step" (Section 7.2), built here as
  the indexed-as-of ablation.
"""

from repro.access.timesplit import (
    SplitOutcome,
    needs_key_split,
    plan_time_split,
)
from repro.access.btree import BTree, BTreeIndexPage
from repro.access.tsbtree import TSBHistoryIndex, TSBIndexPage, Rect

__all__ = [
    "plan_time_split",
    "needs_key_split",
    "SplitOutcome",
    "BTree",
    "BTreeIndexPage",
    "TSBHistoryIndex",
    "TSBIndexPage",
    "Rect",
]
