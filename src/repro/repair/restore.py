"""ARIES-style single-page restore: backup image + archived redo by LSN.

A page is rebuilt entirely outside the buffer pool: start from the newest
backup image (or from nothing — every page's birth is logged as a full
after-image by the B-tree's redo-only SMO records, so a page allocated
after the last backup is reconstructible from the archive alone), then
replay the archived records that touch the page, each guarded by the page
LSN exactly like recovery's redo pass.  The engine keeps serving other
pages throughout.

Timestamps: stamping is never logged, so replay recreates versions
TID-marked and the restore finishes with a stamping pass.  It deliberately
does **not** go through :meth:`TimestampManager.stamp_version` — that path
decrements the VTT reference count, and the versions being re-created here
were already counted once when the lost image was stamped live; a second
decrement would underflow.  Restore resolves and stamps directly, with the
same group-commit durability guard (never stamp a version whose commit
record is not yet durable).

The mappings needed here are guaranteed to still exist because PTT garbage
collection is gated on the backup horizon (see ``MediaRecoveryManager``):
any mapping old enough to have been collected belongs to versions that were
already stamped *inside* the backup image, which replay never revisits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import MediaRecoveryError, UnknownTransactionError
from repro.faults.failpoints import fire
from repro.storage.page import DataPage, Page, decode_page
from repro.wal.records import CompensationRecord, LogRecord, MultiPageImage

if TYPE_CHECKING:  # pragma: no cover
    from repro.repair.manager import MediaRecoveryManager
    from repro.timestamp.manager import TimestampManager


@dataclass
class RestoreOutcome:
    """What one single-page restore did."""

    page_id: int
    page: Page | None        # None for an "unborn" (never-written) page
    source: str              # "backup", "log-only", or "unborn"
    base_lsn: int            # LSN of the starting image (0 for log-only)
    final_lsn: int
    records_replayed: int
    versions_stamped: int


def restore_page(manager: "MediaRecoveryManager", page_id: int) -> RestoreOutcome:
    """Rebuild ``page_id`` from backup + archive and write it back to disk.

    Returns the restored page object (decoded, current, clean — the caller
    may admit it to the buffer pool).  Raises :exc:`MediaRecoveryError`
    when the archive has no coverage for the page.
    """
    fire("repair.restore")
    archive = manager.archive
    page: Page | None = None
    base_lsn = 0
    source = "log-only"
    base_raw = manager.backup.image(page_id)
    if base_raw is not None and any(base_raw):
        page = decode_page(base_raw)
        base_lsn = page.lsn
        source = "backup"

    replayed = 0
    for record in archive.records_for(page_id, after_lsn=base_lsn):
        page, applied = _apply(page, page_id, record)
        replayed += applied

    if page is None:
        if replayed == 0:
            # No image and no records: the page was allocated but never
            # written (e.g. a backed-out time split abandons its history
            # pid) — its correct content *is* zeros.  Real pages always
            # leave a trace: every birth is logged as a full image, the
            # meta page is mirrored, and trimming only drops records the
            # backup already covers.
            fire("repair.restore.write")
            zeros = bytes(len(base_raw) if base_raw is not None
                          else manager.engine.disk.page_size)
            # The raw seam: write_page would stamp a checksum into the
            # image, and an unborn page's on-disk state is exactly zeros.
            manager.engine.disk._write(page_id, zeros)
            return RestoreOutcome(
                page_id=page_id, page=None, source="unborn",
                base_lsn=0, final_lsn=0, records_replayed=0,
                versions_stamped=0,
            )
        raise MediaRecoveryError(
            f"page {page_id}: no backup image and the archive holds no "
            f"records for it",
            page_id=page_id,
        )
    if page.page_id != page_id:
        raise MediaRecoveryError(
            f"restore of page {page_id} produced an image claiming to be "
            f"page {page.page_id}",
            page_id=page_id,
        )

    stamped = 0
    if isinstance(page, DataPage) and page.has_unstamped_records():
        stamped = _stamp_restored(manager.engine.tsmgr, page)
        if stamped:
            page.touch()

    fire("repair.restore.write")
    manager.engine.disk.write_page(page_id, page.to_bytes())
    return RestoreOutcome(
        page_id=page_id,
        page=page,
        source=source,
        base_lsn=base_lsn,
        final_lsn=page.lsn,
        records_replayed=replayed,
        versions_stamped=stamped,
    )


def _apply(
    page: Page | None, page_id: int, record: LogRecord
) -> tuple[Page | None, int]:
    """Apply one archived record to the page under reconstruction.

    The record's effect is its own ``redo`` / ``image_for`` — the methods
    restart redo calls; what is restore's own is the detached page (no
    buffer pool), and the errors only a trimmed archive can produce.
    """
    lsn = record.lsn
    if isinstance(record, (MultiPageImage, CompensationRecord)):
        if page is not None and page.lsn >= lsn:
            return page, 0
        image = record.image_for(page_id)
        return (page, 0) if image is None else (image, 1)

    if page is None:
        # A non-image record cannot be the page's first archived action:
        # its birth image must have been trimmed past — coverage gap.
        raise MediaRecoveryError(
            f"page {page_id}: archive coverage gap — record at LSN {lsn} "
            f"predates any full image",
            page_id=page_id,
        )
    if page.lsn >= lsn:
        return page, 0
    if not isinstance(page, DataPage):
        raise MediaRecoveryError(
            f"page {page_id}: versioned record at LSN {lsn} targets a "
            f"non-data page",
            page_id=page_id,
        )
    record.redo(page)
    page.lsn = lsn
    return page, 1


def _stamp_restored(tsmgr: "TimestampManager", page: DataPage) -> int:
    """Stamp committed-and-durable versions without touching VTT refcounts."""
    stamped = 0
    for version in page.unstamped_versions():
        try:
            ts, committed = tsmgr.resolve_with_fallback(
                version.tid, immortal=page.immortal
            )
        except UnknownTransactionError:
            # Defensive: the GC gate makes this unreachable for any page
            # the archive covers; leave the version for a later pass.
            continue
        if not committed:
            continue
        entry = tsmgr.vtt.get(version.tid)
        if entry is not None and entry.commit_lsn is not None \
                and entry.commit_lsn >= tsmgr.log.flushed_lsn:
            continue
        assert ts is not None
        version.stamp(ts)
        stamped += 1
    return stamped
