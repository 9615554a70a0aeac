"""The two halves of media recovery's coverage: redo index and page backup.

Media recovery needs exactly two things to rebuild any page (Mohan's
ARIES-style single-page restore, applied to the Immortal DB engine):

1. **The log**, indexed by page.  The WAL rule guarantees every on-disk
   page image has ``page.lsn <= flushed_lsn``, so the durable records are
   always sufficient to roll any backup (or surviving) image forward to
   the current durable state.  The log is never truncated, so nothing
   needs copying: the :class:`RedoIndex` keeps only the LSNs of each
   page's durable records, taken from :meth:`LogManager.durable_frames`
   after every physical force, and reads the records back when a restore
   asks.

2. **A page backup** taken fuzzily online.  Right after a flush checkpoint
   every disk image is current, so capturing the raw pages then yields a
   consistent "backup as of flushed_lsn" without stopping the engine.
   Pages that fail verification at capture time keep their previous backup
   image (the log bridges the gap).

Trimming is per page: at each backup refresh a page forgets the LSNs at or
below its own backup image's LSN, since replay starts past that LSN.  A
page that failed capture keeps its older image, so it keeps the LSNs that
bridge the gap.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import TYPE_CHECKING, Callable, Iterator

from repro.errors import StorageError
from repro.wal.records import LogRecord

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.disk import PageStore
    from repro.wal.log import LogManager

_LSN_OFFSET = 8  # page LSN lives at bytes [8:16) of the common page header


def _image_lsn(raw: bytes) -> int:
    return int.from_bytes(raw[_LSN_OFFSET:_LSN_OFFSET + 8], "big")


class RedoIndex:
    """Per page id, the ascending LSNs of the durable records touching it.

    Commit/abort bookkeeping touches no page and is never indexed: restored
    versions are re-stamped from the PTT instead, exactly like the
    flush-time lazy timestamping path.  PTT mutations are logged logically
    (the commit record carries the entry; ``PTTDelete`` records GC), so a
    PTT page's refill reads them straight from the log instead.
    """

    def __init__(self, log: "LogManager") -> None:
        self.log = log
        self._by_page: dict[int, list[int]] = {}
        self.indexed_upto = 0   # highest durable LSN seen (incl. skipped)
        self.records_indexed = 0

    def capture(self) -> int:
        """Index newly durable records; returns how many touch a page."""
        indexed = 0
        for lsn, raw in self.log.durable_frames(self.indexed_upto):
            self.indexed_upto = lsn
            pages = LogRecord.decode(raw).affected_pages()
            for page_id in pages:
                self._by_page.setdefault(page_id, []).append(lsn)
            indexed += bool(pages)
        self.records_indexed += indexed
        return indexed

    def records_for(
        self, page_id: int, after_lsn: int = 0
    ) -> Iterator[LogRecord]:
        """Records touching ``page_id`` with LSN > ``after_lsn``, read back
        from the log (a damaged frame raises its ``LogFormatError``)."""
        lsns = self._by_page.get(page_id, [])
        for lsn in lsns[bisect_right(lsns, after_lsn):]:
            yield self.log.record_at(lsn)

    def max_lsn_for(self, page_id: int) -> int:
        """The newest indexed LSN touching ``page_id`` (0 if none).

        The scrubber's staleness check: a page that is not dirty in the
        buffer pool whose disk image LSN is below this was the victim of a
        silently dropped write.
        """
        lsns = self._by_page.get(page_id)
        return lsns[-1] if lsns else 0

    def trim(self, image_lsn: Callable[[int], int]) -> None:
        """Forget, per page, the LSNs at or below ``image_lsn(page_id)`` —
        its backup image's LSN, past which every replay starts."""
        for page_id, lsns in self._by_page.items():
            del lsns[:bisect_right(lsns, image_lsn(page_id))]


class PageBackup:
    """Raw page images captured fuzzily at flush checkpoints.

    Backup media is modelled as separate from the data disk: a simulated
    crash of the engine does not touch it, and media faults on the data
    disk cannot corrupt it.
    """

    def __init__(self) -> None:
        self._images: dict[int, bytes] = {}
        # log.flushed_lsn when each page's current image was captured —
        # the refill floor for logically-logged (LSN-0) pages like the PTT.
        self._capture_lsn: dict[int, int] = {}
        self.captures = 0
        self.pages_captured = 0
        self.pages_skipped = 0

    def put(self, page_id: int, raw: bytes, flushed_lsn: int = 0) -> None:
        self._images[page_id] = bytes(raw)
        self._capture_lsn[page_id] = flushed_lsn

    def image(self, page_id: int) -> bytes | None:
        return self._images.get(page_id)

    def image_lsn(self, page_id: int) -> int:
        raw = self._images.get(page_id)
        return _image_lsn(raw) if raw is not None else 0

    def capture_lsn(self, page_id: int) -> int:
        """``log.flushed_lsn`` when this page's image was captured (0 if
        never captured): the end of a durable prefix, so a record boundary."""
        return self._capture_lsn.get(page_id, 0)

    def capture_all(self, disk: "PageStore", flushed_lsn: int = 0) -> list[int]:
        """Capture every page's current image; returns page ids that failed.

        A page whose read fails verification keeps its previous backup
        image (and its previous capture LSN) — the log still covers it
        from that older point forward.
        """
        failed: list[int] = []
        for page_id in range(disk.page_count):
            try:
                raw = disk.read_page(page_id)
            except StorageError:
                failed.append(page_id)
                continue
            self._images[page_id] = raw
            self._capture_lsn[page_id] = flushed_lsn
            self.pages_captured += 1
        self.captures += 1
        self.pages_skipped += len(failed)
        return failed

    def __len__(self) -> int:
        return len(self._images)
