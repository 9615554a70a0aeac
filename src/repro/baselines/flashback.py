"""Oracle-Flashback-style versioning from retained undo (Section 6.2).

Flashback keeps no organized version store: it *re-creates* past versions
by applying retained undo records backwards from the current state.  The
paper's two criticisms, both measurable here:

* "If a query uses clock time for its as of time, the result is only
  approximate, since versions are identified by something analogous to a
  transaction identifier, not a time" — undo records carry an SCN (system
  change number); mapping a wall-clock time to an SCN is approximate
  (:meth:`scn_for_time` rounds to coarse boundaries).
* "Search starts with the current state, and scans back through the undo
  versions … performance [degrades] the farther back in time one goes" —
  :attr:`Metrics.undo_records_scanned` grows linearly with depth.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ImmortalDBError, KeyNotFoundError


class FlashbackHorizonError(ImmortalDBError):
    """The requested time predates the retained undo."""


@dataclass
class _UndoRecord:
    scn: int
    key: object
    before: dict | None      # None = the key did not exist before (insert)


@dataclass
class Metrics:
    undo_records_scanned: int = 0
    flashback_queries: int = 0


SCN_TIME_GRANULARITY_MS = 3_000.0
"""Coarseness of the SCN-to-time mapping (Oracle's is seconds-coarse)."""


class FlashbackTable:
    """Current store + a global retained undo stream."""

    def __init__(self, retention_records: int = 1_000_000) -> None:
        self._current: dict = {}
        self._undo: list[_UndoRecord] = []    # append-only, SCN-ordered
        self._scn = 0
        self._scn_times: list[tuple[float, int]] = []  # (time_ms, scn) marks
        self.retention_records = retention_records
        self.metrics = Metrics()

    # -- updates -----------------------------------------------------------------

    def _bump_scn(self, now_ms: float) -> int:
        self._scn += 1
        if (
            not self._scn_times
            or now_ms - self._scn_times[-1][0] >= SCN_TIME_GRANULARITY_MS
        ):
            self._scn_times.append((now_ms, self._scn))
        return self._scn

    def insert(self, now_ms: float, key, value: dict) -> None:
        scn = self._bump_scn(now_ms)
        self._undo.append(_UndoRecord(scn, key, None))
        self._current[key] = dict(value)
        self._enforce_retention()

    def update(self, now_ms: float, key, value: dict) -> None:
        if key not in self._current:
            raise KeyNotFoundError(f"no record with key {key!r}")
        scn = self._bump_scn(now_ms)
        self._undo.append(_UndoRecord(scn, key, dict(self._current[key])))
        self._current[key] = dict(value)
        self._enforce_retention()

    def delete(self, now_ms: float, key) -> None:
        if key not in self._current:
            raise KeyNotFoundError(f"no record with key {key!r}")
        scn = self._bump_scn(now_ms)
        self._undo.append(_UndoRecord(scn, key, dict(self._current[key])))
        del self._current[key]
        self._enforce_retention()

    def _enforce_retention(self) -> None:
        excess = len(self._undo) - self.retention_records
        if excess > 0:
            del self._undo[:excess]

    # -- flashback queries -------------------------------------------------------------

    def scn_for_time(self, when_ms: float) -> int:
        """Approximate SCN for a wall-clock time (coarse by design)."""
        best = 0
        for time_ms, scn in self._scn_times:
            if time_ms <= when_ms:
                best = scn
            else:
                break
        return best

    def read_as_of_scn(self, scn: int, key) -> dict | None:
        """Reconstruct the key's value at ``scn`` by backward undo scan."""
        self.metrics.flashback_queries += 1
        if self._undo and self._undo[0].scn > scn + 1 and scn > 0:
            raise FlashbackHorizonError(
                f"undo for SCN {scn} has been discarded (retention window)"
            )
        value = self._current.get(key)
        present = key in self._current
        for record in reversed(self._undo):
            self.metrics.undo_records_scanned += 1
            if record.scn <= scn:
                break
            if record.key != key:
                continue
            if record.before is None:
                value, present = None, False
            else:
                value, present = dict(record.before), True
        return dict(value) if present and value is not None else None

    def read_as_of_time(self, when_ms: float, key) -> dict | None:
        """Clock-time flashback: approximate by SCN mapping, then scan."""
        return self.read_as_of_scn(self.scn_for_time(when_ms), key)

    # -- point-in-time recovery (Flashback's design center) ---------------------------------

    def flashback_table_to_scn(self, scn: int) -> int:
        """Rewind the whole table to ``scn``; returns records changed.

        This is what Flashback is tuned for: shortening the outage after an
        erroneous transaction, without restoring a backup.
        """
        changed = 0
        while self._undo and self._undo[-1].scn > scn:
            record = self._undo.pop()
            self.metrics.undo_records_scanned += 1
            if record.before is None:
                self._current.pop(record.key, None)
            else:
                self._current[record.key] = record.before
            self._scn = record.scn - 1
            changed += 1
        return changed
