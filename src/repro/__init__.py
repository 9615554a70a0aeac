"""Immortal DB — transaction time support inside a database engine.

A from-scratch Python reproduction of:

    David Lomet, Roger Barga, Mohamed F. Mokbel, Rui Wang, Yunyue Zhu,
    German Shegalov.  "Transaction Time Support Inside a Database Engine."
    ICDE 2006.

The package provides the full engine the paper builds and measures:
versioned slotted-page storage with time splits, lazy commit-time
timestamping with a persistent timestamp table, snapshot isolation,
ARIES-style recovery that never logs timestamping, AS OF queries routed by
time-split page chains or a TSB-tree index, a tiny SQL front end with the
paper's syntax extensions, the moving-objects workload generator used in
its evaluation, and executable baselines for the related systems of
Section 6 (Rdb commit lists, Oracle Flashback, Postgres vacuuming).

Quick start::

    from repro import ImmortalDB, ColumnType, TxnMode

    db = ImmortalDB()
    db.create_table(
        "MovingObjects",
        columns=[("Oid", ColumnType.SMALLINT),
                 ("LocationX", ColumnType.INT),
                 ("LocationY", ColumnType.INT)],
        key="Oid",
        immortal=True,
    )
    objects = db.table("MovingObjects")
    with db.transaction() as txn:
        objects.insert(txn, {"Oid": 1, "LocationX": 10, "LocationY": 20})
    past = db.now()
    db.advance_time(60_000)
    with db.transaction() as txn:
        objects.update(txn, 1, {"LocationX": 99})
    assert objects.read_as_of(past, 1)["LocationX"] == 10
"""

from repro.clock import SimClock, Timestamp
from repro.concurrency.transaction import Transaction, TxnMode
from repro.core.catalog import Catalog, ColumnDef, TableSchema
from repro.core.engine import ImmortalDB
from repro.core.inspect import inspect_table
from repro.core.integrity import verify_integrity
from repro.core.rowcodec import ColumnType
from repro.core.table import Table
from repro.errors import ImmortalDBError

__version__ = "0.1.0"

PROFILES: dict[str, dict] = {
    "paper": {},
    "tuned": dict(group_commit_window=8, asof_route_cache=True, read_ahead=4),
}
"""The two ways an engine is built, as keyword arguments for
``ImmortalDB(path, **PROFILES[name])``: ``paper`` is the defaults that
regenerate the figures (a log force per commit, the plain as-of walk, no
read-ahead); ``tuned`` is what the wall-clock benchmark (``benchmarks/e2e``)
measures.  Both evict 2Q, write back in batches and checksum every page.
The crash explorer sweeps both."""

__all__ = [
    "ImmortalDB",
    "PROFILES",
    "Table",
    "Timestamp",
    "SimClock",
    "ColumnType",
    "TxnMode",
    "Transaction",
    "Catalog",
    "ColumnDef",
    "TableSchema",
    "ImmortalDBError",
    "inspect_table",
    "verify_integrity",
    "__version__",
]
