"""Timestamps and the simulated clock.

Immortal DB represents a transaction timestamp exactly the way the paper's
Section 2.1 describes it:

* an 8-byte time value with **20 ms resolution** (SQL Server's ``datetime``
  has a 1/300 s ≈ 3.3 ms granularity; the paper quotes 20 ms, which we
  follow), plus
* a 4-byte **sequence number** (SN) that distinguishes up to 2**32
  transactions that commit within the same 20 ms tick.

Before a transaction commits, the 8-byte field of each record it wrote holds
the transaction id (TID) instead of a time.  We tag such values with the high
bit (:data:`TID_FLAG`) so a field can always be classified as
"timestamped" or "TID-marked" without external state.

The :class:`SimClock` is the single source of time for a database instance.
It is *logical*: tests and workloads advance it explicitly, which makes every
experiment deterministic and lets a benchmark compress "a day of updates"
into milliseconds of wall-clock.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass
from typing import ClassVar

TICK_MS = 20
"""Resolution of the 8-byte time value, in milliseconds (paper Section 2.1)."""

TID_FLAG = 1 << 63
"""High bit set in an 8-byte Ttime field ⇒ the field holds a TID, not a time."""

_FIELD_MASK = TID_FLAG - 1

EPOCH = _dt.datetime(2006, 1, 1, 0, 0, 0)
"""Datetime corresponding to tick 0 (the paper's experiments ran in 2005/06)."""

SN_INVALID = 0xFFFFFFFF
"""SN value marking a VTT entry whose transaction is still active (§2.2 stage I)."""


def encode_tid_field(tid: int) -> int:
    """Return the 8-byte Ttime field value that marks a record with ``tid``."""
    if not 0 < tid <= _FIELD_MASK:
        raise ValueError(f"TID out of range: {tid}")
    return TID_FLAG | tid


def field_is_tid(field: int) -> bool:
    """True if an 8-byte Ttime field holds a TID (record not yet timestamped)."""
    return bool(field & TID_FLAG)


def field_tid(field: int) -> int:
    """Extract the TID from a TID-marked Ttime field."""
    if not field & TID_FLAG:
        raise ValueError(f"field {field:#x} is a timestamp, not a TID")
    return field & _FIELD_MASK


@dataclass(frozen=True, order=True, slots=True)
class Timestamp:
    """A transaction timestamp: (20 ms tick, sequence number).

    Total order of timestamps equals the commit (serialization) order of the
    transactions that received them, because Immortal DB chooses timestamps
    at commit time under a short critical section (§2.1, "late choice").
    """

    ttime: int
    sn: int

    MIN: ClassVar["Timestamp"]
    MAX: ClassVar["Timestamp"]

    SIZE = 12  # 8-byte ttime + 4-byte SN, as laid out in Figure 1b

    def __post_init__(self) -> None:
        if not 0 <= self.ttime <= _FIELD_MASK:
            raise ValueError(f"ttime out of range: {self.ttime}")
        if not 0 <= self.sn <= 0xFFFFFFFF:
            raise ValueError(f"sn out of range: {self.sn}")

    @property
    def key(self) -> int:
        """``ttime << 32 | sn``: the same order as one int, so it compares,
        hashes and bisects in C; a record's Ttime and SN fields make it too."""
        return self.ttime << 32 | self.sn

    def to_bytes(self) -> bytes:
        """Serialize to the fixed-size on-disk image."""
        return self.ttime.to_bytes(8, "big") + self.sn.to_bytes(4, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "Timestamp":
        """Deserialize from an on-disk image."""
        if len(data) != cls.SIZE:
            raise ValueError(f"timestamp image must be {cls.SIZE} bytes")
        return cls(int.from_bytes(data[:8], "big"), int.from_bytes(data[8:], "big"))

    def to_datetime(self) -> _dt.datetime:
        """The wall-clock time this timestamp's tick corresponds to."""
        return EPOCH + _dt.timedelta(milliseconds=self.ttime * TICK_MS)

    @classmethod
    def from_datetime(cls, when: _dt.datetime, sn: int = 0) -> "Timestamp":
        """Convert a wall-clock datetime to a timestamp (20 ms ticks)."""
        delta = when - EPOCH
        ticks = int(delta.total_seconds() * 1000) // TICK_MS
        if ticks < 0:
            raise ValueError(f"datetime {when} precedes the clock epoch {EPOCH}")
        return cls(ticks, sn)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.to_datetime().isoformat(sep=' ')}+{self.sn}"


Timestamp.MIN = Timestamp(0, 0)
Timestamp.MAX = Timestamp(_FIELD_MASK, 0xFFFFFFFE)


class SimClock:
    """Deterministic logical clock with 20 ms ticks.

    The clock hands out unique, monotonically increasing timestamps: within
    one tick the 4-byte sequence number increments, and advancing the tick
    resets it.  Workload drivers move time forward with :meth:`advance_ms`;
    optionally ``ms_per_timestamp`` makes every timestamp draw advance the
    clock, which is convenient for tests that want time to "just pass".
    """

    def __init__(self, start_tick: int = 1, ms_per_timestamp: float = 0.0) -> None:
        if start_tick < 1:
            raise ValueError("start_tick must be >= 1 (tick 0 is Timestamp.MIN)")
        self._tick = start_tick
        self._issued_sn = 0        # SN of the last timestamp issued this tick
        self._ms_remainder = 0.0
        self.ms_per_timestamp = ms_per_timestamp
        self._last_issued: Timestamp | None = None

    # -- reading time -------------------------------------------------------

    @property
    def tick(self) -> int:
        """The current 20 ms tick (the raw 8-byte Ttime value)."""
        return self._tick

    def now(self) -> Timestamp:
        """The current moment, as an *inclusive* upper bound on the past.

        ``now()`` is ≥ every timestamp issued so far and strictly less than
        every timestamp that will be issued later, so "AS OF now()" sees
        exactly the transactions committed so far — snapshot horizons and
        as-of bounds can both compare with ``<=``.
        """
        return Timestamp(self._tick, self._issued_sn)

    def now_datetime(self) -> _dt.datetime:
        """The current simulated moment as a datetime."""
        return Timestamp(self._tick, 0).to_datetime()

    # -- advancing time -----------------------------------------------------

    def advance_ms(self, ms: float) -> None:
        """Move the clock forward by ``ms`` milliseconds (fractional ok)."""
        if ms < 0:
            raise ValueError("time cannot move backwards")
        self._ms_remainder += ms
        whole_ticks = int(self._ms_remainder // TICK_MS)
        if whole_ticks:
            self._ms_remainder -= whole_ticks * TICK_MS
            self._tick += whole_ticks
            self._issued_sn = 0

    def advance_ticks(self, ticks: int = 1) -> None:
        """Move the clock forward by whole 20 ms ticks."""
        if ticks < 0:
            raise ValueError("time cannot move backwards")
        if ticks:
            self._tick += ticks
            self._issued_sn = 0

    def adopt_floor(self, floor: Timestamp) -> None:
        """Never again issue (or report as ``now()``) a time below ``floor``.

        Called after crash recovery with the durable high-water commit
        timestamp (persisted in the boot page at every checkpoint, plus the
        max commit timestamp replayed from the log suffix).  A restarted
        engine's clock restarts from tick 1, so without this a fresh commit
        could stamp *below* an already-durable version — breaking the
        invariant that timestamp order equals commit order.  Monotone: a
        floor at or below the current position is a no-op.
        """
        if floor.ttime > self._tick:
            self._tick = floor.ttime
            self._issued_sn = floor.sn
            self._ms_remainder = 0.0
        elif floor.ttime == self._tick and floor.sn > self._issued_sn:
            self._issued_sn = floor.sn

    # -- issuing timestamps --------------------------------------------------

    def next_timestamp(self) -> Timestamp:
        """Issue a unique timestamp that is strictly greater than all prior ones.

        Also strictly greater than any ``now()`` read before this call, so a
        snapshot horizon taken earlier can never equal a later commit time.
        """
        if self._issued_sn >= SN_INVALID - 1:
            # Approaching 2**32 commits in one 20 ms tick: roll to the next
            # tick rather than hand out the reserved SN_INVALID value.
            self.advance_ticks(1)
        self._issued_sn += 1
        ts = Timestamp(self._tick, self._issued_sn)
        if self.ms_per_timestamp:
            self.advance_ms(self.ms_per_timestamp)
        assert self._last_issued is None or ts > self._last_issued
        self._last_issued = ts
        return ts
