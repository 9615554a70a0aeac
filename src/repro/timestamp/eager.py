"""Eager timestamping — the alternative the paper rejects (Section 2.2).

Eager timestamping keeps a list of the record versions a transaction wrote
and, **at commit but before the commit record**, revisits each of them to
write the timestamp in place.  Its costs, all reproduced here so the
lazy-vs-eager ablation can measure them:

* revisited pages may have left the buffer pool → extra page reads,
* the timestamping writes must be logged (``StampOp`` records) so redo can
  repeat them after a crash → extra log volume,
* all of this happens while the transaction still holds its locks →
  commit is delayed and lock hold time grows.

Because every version is stamped by commit time, eager mode never needs the
PTT: there are no committed-but-unstamped records to resolve.
"""

from __future__ import annotations

from collections import defaultdict

from repro.clock import Timestamp
from repro.errors import TimestampError
from repro.timestamp.manager import TimestampManager
from repro.wal.records import StampOp


class EagerTimestampManager(TimestampManager):
    """Timestamp at commit by revisiting every version the transaction wrote."""

    def __init__(self, log, buffer, ptt) -> None:
        super().__init__(log, buffer, ptt)
        # {tid: {(table_id, key): version_count}} — where to revisit at commit.
        self._writes: dict[int, dict[tuple[int, bytes], int]] = defaultdict(dict)

    # -- stage II: remember where the versions are ------------------------------

    def on_version_created(
        self, tid: int, table_id: int, page_id: int, key: bytes
    ) -> None:
        super().on_version_created(tid, table_id, page_id, key)
        writes = self._writes[tid]
        writes[(table_id, key)] = writes.get((table_id, key), 0) + 1

    # -- commit-time revisit -------------------------------------------------------

    def on_commit_prepare(self, tid: int, ts: Timestamp) -> None:
        """Stamp (and log) every version written by ``tid`` before commit."""
        if self.locator is None:
            raise TimestampError("eager timestamping needs a record locator")
        pages_touched = set()
        for (table_id, key), count in self._writes.pop(tid, {}).items():
            page = self.locator(table_id, key)
            if page is None:
                raise TimestampError(
                    f"eager commit: key {key!r} of table {table_id} vanished"
                )
            stamped = 0
            for version in page.chain(key):
                if not version.is_timestamped and version.tid == tid:
                    version.stamp(ts)
                    stamped += 1
                    self.stats.stamps += 1
                    self.vtt.decrement(tid, self.log.end_lsn)
                    # The page carries the LSN of the last record applied to
                    # it, as after redo: else its image looks older than its
                    # log (the scrubber's dropped-write test).
                    page.lsn = self.log.append(
                        StampOp(
                            tid=tid, table_id=table_id, page_id=page.page_id,
                            key=key, ttime=ts.ttime, sn=ts.sn,
                        )
                    )
            if stamped != count:
                raise TimestampError(
                    f"eager commit: stamped {stamped} of {count} versions "
                    f"for key {key!r}"
                )
            if page.page_id not in pages_touched:
                pages_touched.add(page.page_id)
                self.stats.commit_revisit_pages += 1
            self.buffer.mark_dirty_page(page)

    def on_commit(
        self, tid: int, ts: Timestamp, commit_lsn: int, *, persistent: bool
    ) -> None:
        """No PTT entry is ever needed: everything is stamped already."""
        entry = self.vtt.set_committed(tid, ts, self.log.end_lsn)
        entry.persistent = False
        # The entry has served its purpose; there is nothing left to stamp.
        if entry.refcount == 0:
            self.vtt.drop(tid)

    def on_abort(self, tid: int) -> None:
        self._writes.pop(tid, None)
        super().on_abort(tid)

    def garbage_collect(self, redo_scan_start_lsn: int) -> int:
        """Eager mode has no PTT entries to collect."""
        return 0
