"""Queryable backup (paper Section 7.2, after Lomet & Salzberg [22]).

A transaction-time database's history pages *are* a backup of the current
database: they are always installed (no restore step), they grow
incrementally (each time split adds exactly one read-only page), and they
can be queried directly (any AS OF query).  This module packages those
three advantages behind an explicit API:

* :meth:`QueryableBackup.status` — how much of the database is already
  "backed up" into read-only history pages vs still only in current pages,
* :meth:`QueryableBackup.freeze` — force a time split of every current page
  so the entire state as of now is captured in history pages (the paper's
  "forcing all pages to eventually time-split", also how otherwise
  uncollectable PTT entries can be retired),
* :meth:`QueryableBackup.restore_as_of` — point-in-time recovery from
  erroneous transactions: materialize the table's state at an earlier time
  into a fresh table, without touching the damaged one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.clock import Timestamp
from repro.errors import AccessMethodError
from repro.access.timesplit import plan_time_split

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import ImmortalDB
    from repro.core.table import Table


@dataclass
class BackupStatus:
    current_pages: int = 0
    history_pages: int = 0
    history_versions: int = 0
    oldest_covered: Timestamp | None = None
    newest_covered: Timestamp | None = None


class QueryableBackup:
    """Backup/restore facade over one immortal table's history pages."""

    def __init__(self, table: "Table") -> None:
        if not table.immortal:
            raise AccessMethodError(
                f"table {table.name!r} is not immortal: it keeps no history "
                f"to back anything up with"
            )
        self.table = table
        self.engine: "ImmortalDB" = table.engine

    # -- inspection -----------------------------------------------------------

    def status(self) -> BackupStatus:
        """How much state already lives in read-only history pages."""
        status = BackupStatus()
        for page in self.table.iter_all_pages():
            if page.is_history:
                status.history_pages += 1
                status.history_versions += len(page.versions)
                if (
                    status.oldest_covered is None
                    or page.split_ts < status.oldest_covered
                ):
                    status.oldest_covered = page.split_ts
                if (
                    status.newest_covered is None
                    or page.end_ts > status.newest_covered
                ):
                    status.newest_covered = page.end_ts
            else:
                status.current_pages += 1
        return status

    # -- freezing --------------------------------------------------------------------

    def freeze(self) -> int:
        """Time split every current page so history covers the present.

        Afterwards every version committed before "now" is in a read-only
        history page; the incremental backup is complete up to this moment.
        Returns the number of pages split.  Pages whose whole content is
        current (a time split would free nothing) are still split — backup
        is the one caller that *wants* the redundant copies.
        """
        split = 0
        self.engine.clock.advance_ticks(1)  # the freeze point must be fresh
        freeze_ts = self.engine.clock.now()
        btree = self.table.btree
        for leaf, key_low, key_high in list(btree.leaves_with_bounds()):
            self.engine.tsmgr.stamp_page_for_split(leaf)
            if freeze_ts <= leaf.split_ts or not leaf.versions:
                continue
            plan = plan_time_split(leaf, freeze_ts)
            if plan.retained == len(leaf.versions):
                continue  # only uncommitted content: nothing to capture
            btree.install_time_split(plan, key_low, key_high)
            split += 1
        return split

    # -- point-in-time restore --------------------------------------------------------

    def restore_as_of(
        self, ts: Timestamp, new_table_name: str
    ) -> "Table":
        """Materialize the table's state AS OF ``ts`` into a new table.

        This is the paper's answer to erroneous transactions (compare Oracle
        Flashback, Section 6.2): no backup media, no redo-log roll-forward —
        the versions are already in the database.  The restored table is a
        plain (non-immortal) copy; the damaged original stays queryable.
        """
        schema = self.table.schema
        restored = self.engine.create_table(
            new_table_name,
            columns=[(c.name, c.column_type) for c in schema.columns],
            key=schema.key_column,
            immortal=False,
        )
        rows = self.table.scan_as_of(ts)
        with self.engine.transaction() as txn:
            for row in rows:
                restored.insert(txn, row)
        return restored
