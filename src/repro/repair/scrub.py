"""The online scrubber: budgeted background verification of the disk.

Detection-by-crash (PR 1's checksums) only finds damage when a query
happens to read the page; latent corruption on cold pages survives until
the worst possible moment.  The scrubber closes that window: each
:meth:`Scrubber.step` verifies a bounded batch of pages straight from disk
— checksum, decode, structural self-check, and a dropped-write staleness
probe against the log archive — and emits structured
:class:`~repro.core.integrity.Finding`\\ s instead of raising.  When the
engine has a media-recovery manager attached, findings are dispatched to it
for immediate single-page repair.

The staleness probe is the only defense that catches *silently dropped*
writes (the fault model's ``dropped_write`` leaves the old, checksum-valid
image in place).  It is false-positive-free: a page that is not dirty in
the buffer pool has had its last write-back complete, so every archived
record for it must already be reflected in the disk image's LSN — a disk
LSN below the archive's newest LSN for that page proves a write was lost.
Dirty pages are skipped (their disk image is legitimately stale).

Scrub work is counted in the engine stats (``scrub_steps``,
``scrub_pages``, ``scrub_findings``); the cost model does not price it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from dataclasses import dataclass

from repro.core.integrity import Finding, integrity_report
from repro.errors import ChecksumError, StorageError, TransientIOError
from repro.faults.failpoints import fire
from repro.storage.page import DataPage, decode_page

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import ImmortalDB

#: finding kinds the media-recovery manager can repair with a page restore
REPAIRABLE_KINDS = ("checksum", "decode", "layout", "stale")


@dataclass
class ScrubStats:
    steps: int = 0
    passes: int = 0
    pages_scanned: int = 0
    pages_skipped_dirty: int = 0
    findings: int = 0
    repairs_dispatched: int = 0


class Scrubber:
    """Incremental disk verifier with a page budget per step."""

    def __init__(self, engine: "ImmortalDB", *, pages_per_step: int = 8) -> None:
        self.engine = engine
        self.pages_per_step = pages_per_step
        self.cursor = 0
        self.stats = ScrubStats()
        engine.scrubber = self   # engine.stats() picks the counters up

    def step(self, budget: int | None = None) -> list[Finding]:
        """Scrub the next ``budget`` pages (wrapping); returns findings.

        Repairable findings are handed to the engine's media-recovery
        manager (if attached) before returning.
        """
        fire("repair.scrub")
        page_count = self.engine.disk.page_count
        budget = min(budget or self.pages_per_step, page_count)
        findings: list[Finding] = []
        for _ in range(budget):
            pid = self.cursor % page_count
            self.cursor = (self.cursor + 1) % page_count
            findings.extend(self._scrub_page(pid))
        self.stats.steps += 1
        self.stats.findings += len(findings)
        self._dispatch(findings)
        return findings

    def full_pass(self, *, deep: bool = False) -> list[Finding]:
        """Scrub every page once.  ``deep=True`` additionally runs the full
        in-memory integrity walk and appends its findings (not dispatched —
        cross-structure problems are not fixable by a page restore)."""
        self.cursor = 0
        page_count = self.engine.disk.page_count
        findings: list[Finding] = []
        scanned = 0
        while scanned < page_count:
            batch = min(self.pages_per_step, page_count - scanned)
            findings.extend(self.step(batch))
            scanned += batch
        if deep:
            findings.extend(integrity_report(self.engine).findings)
        self.stats.passes += 1
        return findings

    # ------------------------------------------------------------------

    def _scrub_page(self, pid: int) -> list[Finding]:
        engine = self.engine
        if engine.buffer.is_dirty(pid):
            # The disk image is legitimately behind the cached page; the
            # next flush rewrites it wholesale.
            self.stats.pages_skipped_dirty += 1
            return []
        free_list = getattr(engine.disk, "free_list", None)
        if free_list is not None and pid in free_list:
            # Archive migration zero-filled this page when it freed it; the
            # staleness probe below would otherwise flag it as a lost
            # sector (the log archive still holds its pre-migration
            # records).
            return []
        self.stats.pages_scanned += 1
        try:
            raw = engine.disk.read_page(pid)
        except ChecksumError as exc:
            return [Finding("checksum", f"page {pid}: {exc}", page_id=pid)]
        except TransientIOError as exc:
            # Transient by definition: not repairable, retried next pass.
            return [Finding("io", f"page {pid}: {exc}", page_id=pid)]
        except StorageError as exc:
            return [Finding("decode", f"page {pid}: {exc}", page_id=pid)]
        if not any(raw):
            # All zeros: either a page allocated and never written (a
            # backed-out time split abandons its freshly allocated history
            # pid) — benign — or a lost sector that zeroed a real page.
            # The page demonstrably had content iff the archive holds
            # records for it or the backup holds a non-zero image.
            repair = getattr(engine, "repair", None)
            if repair is not None:
                backup_raw = repair.backup.image(pid)
                if repair.archive.max_lsn_for(pid) > 0 or (
                    backup_raw is not None and any(backup_raw)
                ):
                    return [Finding(
                        "stale",
                        f"page {pid} image is all zeros but the page has "
                        f"archived history (lost sector)",
                        page_id=pid,
                    )]
            return []
        try:
            page = decode_page(raw)
        except StorageError as exc:
            return [Finding(
                "decode", f"page {pid} fails to decode: {exc}", page_id=pid
            )]
        findings: list[Finding] = []
        if page.page_id != pid:
            findings.append(Finding(
                "decode",
                f"page {pid} image claims to be page {page.page_id}",
                page_id=pid,
            ))
        elif isinstance(page, DataPage):
            for problem in page.self_check():
                findings.append(Finding(
                    "layout", f"page {pid}: {problem}", page_id=pid
                ))
        repair = getattr(engine, "repair", None)
        if repair is not None and not findings and pid == 0:
            # The meta page's writes are unlogged and its LSN stays 0, so
            # the LSN probes below are blind to it — and a lost sector
            # (all-zero image, checksum field 0) even skips checksum
            # verification and decodes as a valid empty meta page.  But the
            # backup mirrors the meta image on every save, so any
            # divergence from the mirror proves corruption.
            mirror = repair.backup.image(0)
            if mirror is not None and raw != mirror:
                findings.append(Finding(
                    "stale",
                    "page 0 diverges from its backup mirror "
                    "(meta writes are unlogged)",
                    page_id=0,
                ))
        if repair is not None and not findings:
            # The backup image's LSN also bounds staleness: it was captured
            # from this very disk, so the disk can never legitimately hold
            # an older image than the backup (matters once the archive has
            # been trimmed of records the backup already covers).
            expected = max(
                repair.archive.max_lsn_for(pid),
                repair.backup.image_lsn(pid),
            )
            if expected > page.lsn:
                findings.append(Finding(
                    "stale",
                    f"page {pid} image stops at LSN {page.lsn} but the "
                    f"archive holds its records up to LSN {expected} "
                    f"(dropped write)",
                    page_id=pid,
                ))
        return findings

    def _dispatch(self, findings: list[Finding]) -> None:
        repair = getattr(self.engine, "repair", None)
        if repair is None:
            return
        repaired: set[int] = set()
        for finding in findings:
            if finding.kind not in REPAIRABLE_KINDS:
                continue
            if finding.page_id in repaired:
                continue
            if repair.repair_page(finding.page_id):
                repaired.add(finding.page_id)
                self.stats.repairs_dispatched += 1
