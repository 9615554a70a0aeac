"""Postgres-style two-store versioning with vacuuming (Section 6.3).

Postgres stamps records with real commit times (like Immortal DB it must
revisit after commit), but it manages versions differently: a **vacuum**
process moves old versions out of the current store into a separate
archival structure.  The paper's criticisms, reproduced measurably:

* "most as of queries need to access both current and historical storage
  structures — otherwise it is impossible, in general, to determine whether
  the query has seen the record version with the largest timestamp less
  than the as-of time" — :meth:`read_as_of` probes the current store *and*
  the archive, counting both probes;
* archive blocks have no time-split coverage guarantee: a record's versions
  scatter across blocks by vacuum batch, so an as-of lookup may touch
  several archive blocks ("storage utilization for some timeslices … can
  be very low");
* vacuuming itself "degrades current database performance" — its cost is
  metered so benches can charge it.

The archival structure is the engine's own :class:`~repro.archive.store.
ArchiveStore` — the same append-only block sequence ``repro.archive`` uses
for TSB-tree tiering — so ``bench_cmp1_related_work.py`` compares the two
architectures over identical storage machinery.  What stays deliberately
Postgres-shaped is the *placement policy*: versions are packed into blocks
in vacuum-scan order with no per-block coverage guarantee, which is exactly
the scattered-version effect the paper criticises — and why this table,
unlike the engine, has to *search* its archive: it keeps a key/time fence
per block, in memory, to prune that search.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass

from repro.archive.store import ArchiveStore
from repro.clock import Timestamp
from repro.errors import DuplicateKeyError, KeyNotFoundError


@dataclass
class _Version:
    ts: Timestamp
    value: dict | None      # None = delete tombstone


def _key_bytes(key) -> bytes:
    """Order-preserving byte image of a key, for block fences."""
    if isinstance(key, bytes):
        return key
    if isinstance(key, str):
        return key.encode()
    if isinstance(key, int):
        return struct.pack(">Q", key + (1 << 63))
    raise TypeError(f"unfenceable key type {type(key).__name__}")


def _encode_batch(batch: list[tuple[object, _Version]]) -> bytes:
    doc = [
        [key, [v.ts.ttime, v.ts.sn], v.value]
        for key, v in batch
    ]
    return zlib.compress(
        json.dumps(doc, separators=(",", ":")).encode(), 6
    )


def _decode_batch(payload: bytes) -> list[tuple[object, _Version]]:
    doc = json.loads(zlib.decompress(payload).decode())
    return [
        (key, _Version(Timestamp(ts[0], ts[1]), value))
        for key, ts, value in doc
    ]


@dataclass
class Metrics:
    current_probes: int = 0
    archive_pages_probed: int = 0
    archive_versions_scanned: int = 0
    vacuum_runs: int = 0
    vacuum_versions_moved: int = 0


class PostgresStyleTable:
    """Current store with chains + vacuum-fed :class:`ArchiveStore`."""

    def __init__(self, vacuum_batch_pages: int = 64) -> None:
        self._current: dict = {}            # key -> [newest _Version, ...]
        self.store = ArchiveStore()
        # (key_low, key_high, t_low) of the block at each store position.
        self._fences: list[tuple[bytes, bytes, Timestamp]] = []
        self.vacuum_batch_pages = vacuum_batch_pages
        self.metrics = Metrics()

    # -- updates ---------------------------------------------------------------

    def insert(self, ts: Timestamp, key, value: dict) -> None:
        chain = self._current.setdefault(key, [])
        if chain and chain[0].value is not None:
            raise DuplicateKeyError(f"key {key!r} already exists")
        chain.insert(0, _Version(ts, dict(value)))

    def update(self, ts: Timestamp, key, value: dict) -> None:
        chain = self._current.get(key)
        if not chain or chain[0].value is None:
            raise KeyNotFoundError(f"no record with key {key!r}")
        chain.insert(0, _Version(ts, dict(value)))

    def delete(self, ts: Timestamp, key) -> None:
        chain = self._current.get(key)
        if not chain or chain[0].value is None:
            raise KeyNotFoundError(f"no record with key {key!r}")
        chain.insert(0, _Version(ts, None))

    # -- vacuuming -------------------------------------------------------------------

    def vacuum(self, versions_per_page: int = 50) -> int:
        """Move all non-current versions to the archive; returns count moved.

        Versions are packed into archive blocks in vacuum-scan order — so
        one record's history scatters across the blocks of successive
        vacuum runs, with no per-block coverage guarantee.  Each vacuum
        syncs the store once its blocks are appended.
        """
        self.metrics.vacuum_runs += 1
        moved: list[tuple[object, _Version]] = []
        for key, chain in self._current.items():
            if len(chain) > 1:
                moved.extend((key, v) for v in chain[1:])
                del chain[1:]
        for start in range(0, len(moved), versions_per_page):
            batch = moved[start : start + versions_per_page]
            key_images = [_key_bytes(k) for k, _ in batch]
            self.store.append_block(
                _encode_batch(batch),
                sum(len(json.dumps(v.value or {})) for _, v in batch),
            )
            self._fences.append(
                (min(key_images), max(key_images), min(v.ts for _, v in batch))
            )
        self.store.sync()
        self.metrics.vacuum_versions_moved += len(moved)
        return len(moved)

    # -- queries ---------------------------------------------------------------------------

    def read_current(self, key) -> dict | None:
        self.metrics.current_probes += 1
        chain = self._current.get(key)
        if not chain or chain[0].value is None:
            return None
        return dict(chain[0].value)

    def read_as_of(self, ts: Timestamp, key) -> dict | None:
        """Probe the current store, then (always) the archive.

        Even when the current store has a version with timestamp ≤ ts, a
        *newer-but-still-≤-ts* version may have been vacuumed away, so the
        archive must be consulted before answering — the structural cost of
        the two-store design.  Archive blocks are pruned by their fences,
        then read back from the store and decoded; every surviving block is
        a separate probe.
        """
        best: _Version | None = None
        self.metrics.current_probes += 1
        for version in self._current.get(key, []):
            if version.ts <= ts and (best is None or version.ts > best.ts):
                best = version
        key_image = _key_bytes(key)
        for position, (key_low, key_high, t_low) in enumerate(self._fences):
            if t_low > ts or not key_low <= key_image <= key_high:
                continue
            self.metrics.archive_pages_probed += 1
            for rec_key, version in _decode_batch(
                self.store.read_block(position)
            ):
                self.metrics.archive_versions_scanned += 1
                if rec_key != key:
                    continue
                if version.ts <= ts and (
                    best is None or version.ts > best.ts
                ):
                    best = version
        if best is None or best.value is None:
            return None
        return dict(best.value)

    # -- accounting ------------------------------------------------------------------------

    @property
    def archive_page_count(self) -> int:
        return len(self.store)

    @property
    def archive_bytes_stored(self) -> int:
        return self.store.stored_bytes

    @property
    def archive_bytes_raw(self) -> int:
        return self.store.raw_bytes

    def current_chain_length(self, key) -> int:
        return len(self._current.get(key, []))

    def close(self) -> None:
        self.store.close()
