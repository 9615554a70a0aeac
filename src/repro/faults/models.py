"""Fault models: a device that corrupts I/O and loses power, and a wire.

:class:`FaultyDevice` wraps any :mod:`repro.storage.device` — the page
file's, the log's or the archive's — and injects the classic storage
failure modes: a **torn write** (a prefix of the write lands, the old bytes
stay after it), a **dropped write**, **bit-rot** on a read, and a
**transient I/O error** (:class:`~repro.errors.InjectedIOError`, which a
retry clears).  Each is armed one-shot (``device.arm("torn_write")`` hits
the next write) or drawn with a seeded probability; all randomness comes
from one ``random.Random(seed)``, so a failing run replays exactly.  Torn
and rotten pages are silent here: the page CRC32 every page write stamps
and the log's frame CRCs detect them.

**Power loss.**  The device remembers each write (and size change) since its
last ``sync()``.  :meth:`FaultyDevice.lose_power` keeps the synced image
plus a chosen subset of those writes, in their order, and may tear one of
them: keeping all of them is a process kill, keeping none the strictest
power loss — the method of the ALICE study (Pillai et al., OSDI 2014).
"""

from __future__ import annotations

import random
from collections import Counter, deque
from typing import Iterable

from repro.errors import InjectedIOError
from repro.storage.device import Device

READ_FAULTS = ("bitrot_read", "read_error")
WRITE_FAULTS = ("torn_write", "dropped_write", "write_error")
FAULT_KINDS = READ_FAULTS + WRITE_FAULTS


class FaultyDevice:
    """A device that corrupts a wrapped device's I/O (``<kind>_p`` keywords
    set each fault's probability) and can lose power."""

    def __init__(self, inner: Device, *, seed: int = 0, **probabilities: float) -> None:
        self.inner = inner
        self.rng = random.Random(seed)
        self.probabilities = {
            kind: probabilities.pop(f"{kind}_p", 0.0) for kind in FAULT_KINDS
        }
        if probabilities:
            raise TypeError(f"unknown fault probabilities {sorted(probabilities)}")
        self._armed: deque[str] = deque()
        self.injected: Counter[str] = Counter()
        # Each write since the last sync, undoable: (offset, data — None for
        # a truncate to ``offset`` —, the bytes it replaced, the old size).
        self._unsynced: list[tuple[int, bytes | None, bytes, int]] = []

    # -- fault selection ------------------------------------------------------

    def arm(self, kind: str, count: int = 1) -> None:
        """Queue ``count`` one-shot faults; each hits the next matching op."""
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r}")
        self._armed.extend([kind] * count)

    def disarm(self) -> None:
        """Drop every queued one-shot fault (probabilities are untouched)."""
        self._armed.clear()

    def _next_fault(self, applicable: tuple[str, ...]) -> str | None:
        if self._armed and self._armed[0] in applicable:
            fault = self._armed.popleft()
        else:
            fault = next((kind for kind in applicable if self.probabilities[kind]
                          and self.rng.random() < self.probabilities[kind]), None)
        if fault is not None:
            self.injected[fault] += 1
        if fault in ("read_error", "write_error"):
            op = fault.split("_")[0]
            raise InjectedIOError(f"injected transient {op} error", op=op)
        return fault

    def _flip(self, raw: bytearray) -> bytes:
        raw[self.rng.randrange(len(raw))] ^= 1 << self.rng.randrange(8)
        return bytes(raw)

    # -- the device, corrupted --------------------------------------------------

    @property
    def size(self) -> int:
        return self.inner.size

    def read(self, size: int, offset: int) -> bytes:
        fault = self._next_fault(READ_FAULTS)
        raw = self.inner.read(size, offset)
        return self._flip(bytearray(raw)) if fault and raw else raw

    def write(self, data: bytes, offset: int) -> None:
        fault = self._next_fault(WRITE_FAULTS)
        if fault == "dropped_write":
            return
        if fault == "torn_write":
            data = self._tear(data, offset)
        self._remember(offset, data)
        self.inner.write(data, offset)

    def _tear(self, data: bytes, offset: int) -> bytes:
        """``data`` cut at a seeded offset, the old bytes after it."""
        tear_at = self.rng.randrange(min(64, len(data) - 1), len(data))
        old = self.inner.read(len(data), offset).ljust(len(data), b"\0")
        return data[:tear_at] + old[tear_at:]

    def truncate(self, size: int) -> None:
        self._remember(size, None)
        self.inner.truncate(size)

    def _remember(self, offset: int, data: bytes | None) -> None:
        size = self.inner.size
        length = len(data) if data is not None else max(size - offset, 0)
        self._unsynced.append((offset, data, self.inner.read(length, offset), size))

    def sync(self) -> None:
        self.inner.sync()
        self._unsynced.clear()

    def replace(self, data: bytes) -> None:
        self.inner.replace(data)
        self._unsynced.clear()

    def close(self) -> None:
        self.inner.close()

    # -- power loss ----------------------------------------------------------------

    @property
    def unsynced(self) -> int:
        """How many writes a power loss now could lose."""
        return len(self._unsynced)

    def lose_power(self, keep: Iterable[int] = (), *, tear: int | None = None) -> None:
        """Leave the synced image plus the unsynced writes numbered in
        ``keep`` (0 is the oldest), in order, write ``tear`` of them torn;
        later writes count from this image."""
        ops, self._unsynced = self._unsynced, []
        for offset, _, old, size in reversed(ops):
            self.inner.truncate(size)
            if old:
                self.inner.write(old, offset)
        for n in sorted(set(keep)):
            offset, data, _, _ = ops[n]
            if data is None:
                self.inner.truncate(offset)
            else:
                if n == tear:
                    self.injected["torn_write"] += 1
                    data = self._tear(data, offset)
                self.inner.write(data, offset)

    # -- stored-image corruption (for scrubber / repair exercises) ------------

    def corrupt_stored(self, offset: int, size: int, *, mode: str = "bitrot") -> None:
        """Damage ``size`` stored bytes at ``offset`` in the inner device, so
        every later read sees it — the scrubber's and restore's case.
        Modes: ``bitrot`` (one bit), ``garbage`` (a 256-byte run), ``zero``
        (all zeros, a lost sector)."""
        raw = bytearray(self.inner.read(size, offset))
        if mode == "bitrot":
            raw = self._flip(raw)
        elif mode == "garbage":
            start = self.rng.randrange(max(1, len(raw) - 256))
            raw[start : start + 256] = bytes(
                self.rng.randrange(256) for _ in range(256)
            )
        elif mode == "zero":
            raw = bytes(len(raw))
        else:
            raise ValueError(f"unknown corruption mode {mode!r}")
        self.inner.write(bytes(raw), offset)


NETWORK_FAULT_KINDS = (
    "torn_frame",        # a byte of the request frame flips in flight
    "drop_response",     # request executes; the response never arrives
    "slow_loris",        # the request frame dribbles in one byte at a time
    "dup_deliver",       # the request frame is delivered twice
)


class FaultyWire:
    """Network fault model for the service's framed protocol.

    The transport asks it how to deliver each frame; armed one-shot faults
    perturb exactly the next matching exchange (the crashtest arms one per
    crossing), seeded probabilities support soak runs.  Mirrors
    :class:`FaultyDevice`'s arming discipline so fault schedules replay
    deterministically.

    * ``torn_frame`` — flip one payload byte of the request in flight; the
      receiver's frame CRC must catch it (a typed
      :class:`~repro.errors.TornFrameError`, never a misparse) and the
      connection must close, since framing sync is unrecoverable.
    * ``drop_response`` — the server executes and replies, but the
      connection dies before the response arrives (the classic ambiguous
      ack); the client must retry with the same request id and the
      server's idempotency cache must make that retry exactly-once.
    * ``slow_loris`` — the request frame arrives one byte per feed; the
      incremental decoder must reassemble it (servers additionally bound
      this with idle/request timeouts).
    * ``dup_deliver`` — the request frame is delivered twice back-to-back
      (a retransmit race); the second delivery must dedup.
    """

    def __init__(self, *, seed: int = 0, fault_p: float = 0.0) -> None:
        self.rng = random.Random(seed)
        self.fault_p = fault_p
        self._armed: deque[str] = deque()
        self.injected: Counter[str] = Counter()

    def arm(self, kind: str, count: int = 1) -> None:
        if kind not in NETWORK_FAULT_KINDS:
            raise ValueError(f"unknown network fault kind {kind!r}")
        for _ in range(count):
            self._armed.append(kind)

    def disarm(self) -> None:
        self._armed.clear()

    @property
    def armed(self) -> bool:
        return bool(self._armed)

    def next_fault(self) -> str | None:
        """The fault to apply to the next request exchange, if any."""
        if self._armed:
            kind = self._armed.popleft()
            self.injected[kind] += 1
            return kind
        if self.fault_p and self.rng.random() < self.fault_p:
            kind = NETWORK_FAULT_KINDS[
                self.rng.randrange(len(NETWORK_FAULT_KINDS))
            ]
            self.injected[kind] += 1
            return kind
        return None

    def corrupt(self, frame: bytes) -> bytes:
        """Flip one bit somewhere in the frame (header or payload)."""
        pos = self.rng.randrange(len(frame))
        torn = bytearray(frame)
        torn[pos] ^= 1 << self.rng.randrange(8)
        return bytes(torn)
