"""MediaRecoveryManager: the wiring between engine and repair machinery.

Attachment points (all passive until a fault actually happens):

* ``log.post_force_hooks`` — the redo index records which pages each newly
  durable record touches, after every physical force;
* ``checkpoints.post_checkpoint_hooks`` — flush checkpoints refresh the
  fuzzy page backup (every disk image is current right after one) and trim
  each page's indexed LSNs to those past its new backup image;
* ``buffer.fault_handler`` — a page that fails verification on a buffer
  miss is restored in place (the caller gets the repaired page and never
  sees the fault) or, when that is impossible, quarantined behind a typed
  :exc:`~repro.errors.PageQuarantinedError`;
* ``engine._save_meta`` — the meta page's writes are unlogged, so the
  backup mirrors it on every save instead of relying on the log.

GC interlock: restoring a page finishes with a stamping pass, which needs
the TID → timestamp mappings for every version replayed from the log.
The engine therefore gates PTT garbage collection on
:attr:`backup_gc_horizon` — the redo scan start point as of the last backup
refresh.  A mapping is only collectable once the pages it stamped were
flushed *and* captured into the backup, at which point replay never
recreates those versions TID-marked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import (
    BufferPoolError,
    MediaRecoveryError,
    PageQuarantinedError,
    StorageError,
    WALError,
)
from repro.repair.coverage import PageBackup, RedoIndex
from repro.repair.quarantine import QuarantineManager
from repro.repair.restore import RestoreOutcome, restore_page

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import ImmortalDB
    from repro.storage.page import Page


@dataclass
class RepairStats:
    page_faults: int = 0           # buffer misses that hit damaged pages
    pages_repaired: int = 0
    repair_records_replayed: int = 0
    repair_versions_stamped: int = 0
    repair_failures: int = 0
    pages_quarantined: int = 0
    degraded_reads: int = 0        # reads answered Degraded or via stale view
    backup_refreshes: int = 0


class MediaRecoveryManager:
    """Owns the redo index, backup, quarantine, and the repair entry points."""

    def __init__(self, engine: "ImmortalDB", *, auto_repair: bool = True) -> None:
        self.engine = engine
        self.auto_repair = auto_repair
        self.redo_index = RedoIndex(engine.log)
        self.backup = PageBackup()
        self.quarantine = QuarantineManager()
        self.stats = RepairStats()
        #: redo scan start point at the last backup refresh — the PTT GC
        #: bound that keeps restore's stamping pass resolvable (0 = no
        #: refresh yet, nothing collectable).
        self.backup_gc_horizon = 0
        engine.log.post_force_hooks.append(self.redo_index.capture)
        engine.checkpoints.post_checkpoint_hooks.append(self._on_checkpoint)
        engine.buffer.fault_handler = self._page_fault
        # Seed coverage: whatever is already durable, plus current images.
        self.redo_index.capture()
        self.backup.capture_all(engine.disk)

    # -- hooks -------------------------------------------------------------

    def _on_checkpoint(self, flush: bool) -> None:
        if flush:
            self.refresh_backup()

    def refresh_backup(self) -> None:
        """Capture a fresh fuzzy backup and trim the LSNs it covers."""
        engine = self.engine
        self.redo_index.capture()
        failed = self.backup.capture_all(engine.disk)
        for page_id in failed:
            # A page too damaged to even back up: repair it right now if
            # allowed — its older backup image plus the log suffice.
            if self.auto_repair and self.repair_page(page_id):
                try:
                    self.backup.put(page_id, engine.disk.read_page(page_id))
                except StorageError:  # pragma: no cover - freshly rewritten
                    pass
        self.redo_index.trim(self.backup.image_lsn)
        self.backup_gc_horizon = engine.checkpoints.redo_scan_start()
        self.stats.backup_refreshes += 1

    def mirror_meta(self) -> None:
        """Mirror the just-saved meta page (its writes are never logged)."""
        try:
            self.backup.put(0, self.engine.disk.read_page(0))
        except StorageError:
            pass  # the scrubber / next fault will deal with it

    # -- repair entry points ----------------------------------------------

    def repair_page(self, page_id: int) -> bool:
        """Restore one page on disk; True on success.

        Used by the scrubber and the backup refresher.  The buffer pool is
        left alone: any cached clean frame already holds content at least
        as new as the restored image, and a dirty frame will overwrite the
        disk image on its next flush anyway.
        """
        try:
            self._restore(page_id)
        except StorageError as exc:
            self.stats.repair_failures += 1
            self.quarantine.quarantine(
                page_id, exc, stale_image=self.backup.image(page_id)
            )
            self.stats.pages_quarantined += 1
            return False
        buffer = self.engine.buffer
        if buffer.contains(page_id):
            # A cached frame is always at least as new as the restored
            # image; rewriting it through the normal flush path re-aligns
            # the disk with the cache (restore may have written an image
            # older than a clean frame's content for LSN-0 page types).
            buffer.mark_dirty(page_id)
            buffer.flush_page(page_id)
        return True

    def _page_fault(self, page_id: int, exc: Exception) -> "Page":
        """Buffer-pool fault handler: repair in place or quarantine.

        Returns the restored page (admitted by the buffer as a clean
        frame), or raises :exc:`PageQuarantinedError`.
        """
        self.stats.page_faults += 1
        if self.auto_repair:
            try:
                outcome = self._restore(page_id)
            except StorageError as repair_exc:
                self.stats.repair_failures += 1
                exc = repair_exc
            else:
                if outcome.page is not None:
                    return outcome.page
                # Restored to the unborn (all-zero) state: there is no
                # page object to serve — surface the plain never-written
                # error the caller expects from such a page.
                raise BufferPoolError(
                    f"page {page_id} is allocated but was never written"
                )
        self.quarantine.quarantine(
            page_id, exc, stale_image=self.backup.image(page_id)
        )
        self.stats.pages_quarantined += 1
        raise PageQuarantinedError(
            f"page {page_id} is quarantined: {exc}", page_id=page_id
        ) from exc

    def _restore(self, page_id: int) -> RestoreOutcome:
        """Restore one page (a PTT node like any other) and count it.

        Restore reads its records back from the log: a frame that fails
        its check there is a :exc:`MediaRecoveryError` like any other gap
        in coverage, so the callers quarantine the page.
        """
        try:
            outcome = restore_page(self, page_id)
        except WALError as exc:
            raise MediaRecoveryError(
                f"page {page_id}: a log record it needs cannot be read: "
                f"{exc}",
                page_id=page_id,
            ) from exc
        self.stats.pages_repaired += 1
        self.stats.repair_records_replayed += outcome.records_replayed
        self.stats.repair_versions_stamped += outcome.versions_stamped
        self.quarantine.release(page_id)
        return outcome

    # -- crash semantics ---------------------------------------------------

    def on_crash(self) -> None:
        """A simulated crash wipes volatile state; the redo index and the
        backup survive (the index holds only durable LSNs, all still in
        the log the crash truncated to its durable prefix)."""
        self.quarantine.clear()
