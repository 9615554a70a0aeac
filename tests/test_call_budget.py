"""A call budget for the paper's Fig. 5 transaction.

With the data in the buffer pool nothing on the update path waits, so its
speed is its instruction count — for this engine, the number of Python
function calls.  The budgets below sit about 10 % above what the path
costs today: a count, not a timing, so the test cannot flake, and the next
layer of indirection someone adds to the path fails here instead of
quietly costing two percent.  Raise a budget only together with the per-layer
table in DESIGN.md ("Hot-path performance").
"""

from __future__ import annotations

import statistics
import sys

from repro import ImmortalDB

# Python calls on CPython 3.10-3.12 (3.12 takes two fewer):
UPDATE_BUDGET = 164   # begin + update one record + commit: 149 (256 before the diet)
READ_BUDGET = 75      # begin + read one record + commit: 68 (159 before)

KEYS = 200
SAMPLES = 50


def python_calls(operation) -> int:
    """Python-level ``call`` events while ``operation()`` runs.

    Built-in (C) calls are left out: their number moves between interpreter
    versions for the same source, the Python frames entered do not.
    """
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call":
            count += 1

    sys.setprofile(profile)
    try:
        operation()
    finally:
        sys.setprofile(None)
    return count - 1    # the lambda/function passed in is one call itself


def measure() -> tuple[float, float]:
    """Median calls of one update transaction and of one current read."""
    db = ImmortalDB()
    table = db.create_table("kv", [("k", "int"), ("v", "text")], key="k",
                            immortal=True)
    with db.transaction() as txn:
        for k in range(KEYS):
            table.insert(txn, {"k": k, "v": "x" * 40})

    def update(k: int) -> None:
        txn = db.begin()
        table.update(txn, k, {"v": "y" * 40})
        db.commit(txn)

    def read(k: int) -> None:
        txn = db.begin()
        assert table.read(txn, k) is not None
        db.commit(txn)

    for k in range(KEYS):       # warm: every chain has a stamped predecessor
        update(k)
        read(k)
    # The median of 50 leaves out the few transactions that split a page.
    updates = [python_calls(lambda: update(k)) for k in range(SAMPLES)]
    reads = [python_calls(lambda: read(k)) for k in range(SAMPLES)]
    return statistics.median(updates), statistics.median(reads)


def test_update_and_read_stay_within_their_call_budgets():
    update_calls, read_calls = measure()
    assert update_calls <= UPDATE_BUDGET, (
        f"one update transaction now takes {update_calls} Python calls "
        f"(budget {UPDATE_BUDGET})"
    )
    assert read_calls <= READ_BUDGET, (
        f"one current read now takes {read_calls} Python calls "
        f"(budget {READ_BUDGET})"
    )
    # A budget left far above the path protects nothing.
    assert update_calls >= 0.8 * UPDATE_BUDGET
    assert read_calls >= 0.8 * READ_BUDGET


if __name__ == "__main__":
    print("update, read:", measure())
