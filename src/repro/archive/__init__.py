"""Cold-history archive tiering (ROADMAP item: tier history out of the TSB store).

Historical pages are immutable once their time range closes, yet the seed
engine keeps them in the same page file — and the same buffer pool — as the
hot current-time working set.  This package migrates cold history pages into
an append-only archive store of delta-compressed blocks, reclaims
the TSB-tree pages through a free list, and serves archived pages back to
the read path transparently through the buffer pool's resolver seam.

Layout:

* :mod:`repro.archive.delta` — the block codec: one archived history page
  per block, version payloads delta-compressed against the per-key base
  version, whole block zlib-compressed.  Decoding reconstructs the exact
  page image.
* :mod:`repro.archive.store` — the append-only sequence of block frames,
  a block's position being its ref, with an explicit durable/unsynced
  boundary so crash simulation and recovery behave like the WAL's.
* :mod:`repro.archive.manager` — migration policy and mechanism: candidate
  scan, crash-atomic per-page migration protocol, the decoded-page cache
  behind ``BufferPool.archive_resolver``, and quarantine of damaged blocks.

Everything is opt-in behind ``ImmortalDB(archive=...)``; with the default
(``None``) the engine's behaviour and on-disk images are byte-identical to
the pre-archive engine.
"""

from repro.archive.manager import ArchiveConfig, ArchiveManager, ArchiveStats
from repro.archive.store import ArchiveStore

__all__ = [
    "ArchiveConfig",
    "ArchiveManager",
    "ArchiveStats",
    "ArchiveStore",
]
