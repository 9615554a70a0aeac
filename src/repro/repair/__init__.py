"""Media recovery and self-healing (redo index, restore, scrub, quarantine).

PR 1 gave the engine *detection*: page checksums turn torn writes and
bit-rot into typed :class:`~repro.errors.ChecksumError`\\ s.  This package
adds *survival* — the missing half of media robustness:

* :class:`~repro.repair.coverage.RedoIndex` — per page, the LSNs of the
  durable log records that touch it; the records themselves are read back
  from the WAL, which is never truncated;
* :class:`~repro.repair.coverage.PageBackup` — a fuzzy online page backup,
  refreshed at flush checkpoints without stopping the engine;
* :func:`~repro.repair.restore.restore_page` — ARIES-style single-page
  restore: backup image + redo of the page's logged records by page LSN;
* :class:`~repro.repair.scrub.Scrubber` — an incremental background pass
  over the disk that emits structured findings instead of raising;
* :class:`~repro.repair.quarantine.QuarantineManager` — graceful
  degradation when a page cannot (yet) be repaired: as-of reads are served
  from intact history pages, current reads return a typed
  :class:`~repro.repair.quarantine.Degraded` result;
* :class:`~repro.repair.manager.MediaRecoveryManager` — the wiring:
  log-force tap, buffer-pool fault handler, checkpoint-time backup refresh.

Everything here is off by default (``media_recovery=False`` on the engine),
so the figure benchmarks and the crash-point enumeration are unchanged.
"""

from repro.repair.coverage import PageBackup, RedoIndex
from repro.repair.manager import MediaRecoveryManager, RepairStats
from repro.repair.quarantine import Degraded, QuarantineEntry, QuarantineManager
from repro.repair.restore import RestoreOutcome, restore_page
from repro.repair.scrub import Scrubber, ScrubStats

__all__ = [
    "Degraded",
    "MediaRecoveryManager",
    "PageBackup",
    "QuarantineEntry",
    "QuarantineManager",
    "RedoIndex",
    "RepairStats",
    "RestoreOutcome",
    "Scrubber",
    "ScrubStats",
    "restore_page",
]
