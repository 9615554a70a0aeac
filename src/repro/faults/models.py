"""Media fault models: a corrupting page store and a log-tail mangler.

:class:`FaultyDisk` wraps any :class:`~repro.storage.disk.PageStore` and
injects the classic storage failure modes between the buffer pool and the
real store:

* **torn write** — only a prefix of the 8 KB image reaches the platter; the
  rest keeps the previous image's bytes (or zeros for a fresh page);
* **dropped write** — the write is silently lost in the device cache;
* **bit-rot** — a read returns the stored image with one bit flipped;
* **transient I/O error** — the operation raises
  :class:`~repro.errors.InjectedIOError` once; a retry would succeed.

Faults trigger two ways, both deterministic: one-shot arming
(``disk.arm("torn_write")`` corrupts exactly the next page write) for unit
tests, and seeded per-operation probabilities for soak-style runs.  All
randomness (which fault, where the tear lands, which bit rots) comes from
one ``random.Random(seed)``, so a failing run replays exactly.

Torn and bit-rotten images are *silent* at this layer by design — detection
belongs to the page CRC32 checksums (``page_checksums=True`` on the
engine), which turn them into typed
:class:`~repro.errors.ChecksumError`\\ s on the next read.

:func:`tear_log_tail` mangles the end of a file-backed WAL the way an OS
crash mid-write would: truncating mid-frame or garbling a byte, which the
log's framing CRC must catch on the next open.
"""

from __future__ import annotations

import os
import random
from collections import Counter, deque

from repro.errors import InjectedIOError, PageNotFoundError
from repro.storage.disk import PageStore
from repro.storage.framing import scan
from repro.wal.filelog import FileLogManager

READ_FAULTS = ("bitrot_read", "read_error")
WRITE_FAULTS = ("torn_write", "dropped_write", "write_error")
FAULT_KINDS = READ_FAULTS + WRITE_FAULTS


class FaultyDisk(PageStore):
    """A page store that corrupts a wrapped inner store's I/O."""

    def __init__(
        self,
        inner: PageStore,
        *,
        seed: int = 0,
        torn_write_p: float = 0.0,
        dropped_write_p: float = 0.0,
        bitrot_read_p: float = 0.0,
        read_error_p: float = 0.0,
        write_error_p: float = 0.0,
    ) -> None:
        super().__init__(inner.page_size)
        self.inner = inner
        self.rng = random.Random(seed)
        self.probabilities = {
            "torn_write": torn_write_p,
            "dropped_write": dropped_write_p,
            "bitrot_read": bitrot_read_p,
            "read_error": read_error_p,
            "write_error": write_error_p,
        }
        self._armed: deque[str] = deque()
        self.injected: Counter[str] = Counter()

    # -- fault selection ------------------------------------------------------

    def arm(self, kind: str, count: int = 1) -> None:
        """Queue ``count`` one-shot faults; each hits the next matching op."""
        if kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {kind!r}")
        for _ in range(count):
            self._armed.append(kind)

    def disarm(self) -> None:
        """Drop every queued one-shot fault (probabilities are untouched)."""
        self._armed.clear()

    def _next_fault(self, applicable: tuple[str, ...]) -> str | None:
        if self._armed and self._armed[0] in applicable:
            return self._armed.popleft()
        for kind in applicable:
            p = self.probabilities[kind]
            if p and self.rng.random() < p:
                return kind
        return None

    # -- corrupted backend hooks ----------------------------------------------

    def _read(self, page_id: int) -> bytes:
        fault = self._next_fault(READ_FAULTS)
        if fault == "read_error":
            self.injected[fault] += 1
            raise InjectedIOError(
                f"injected transient read error on page {page_id}",
                page_id=page_id, op="read",
            )
        raw = self.inner._read(page_id)
        if fault == "bitrot_read":
            self.injected[fault] += 1
            pos = self.rng.randrange(len(raw))
            flipped = bytearray(raw)
            flipped[pos] ^= 1 << self.rng.randrange(8)
            raw = bytes(flipped)
        return raw

    def _write(self, page_id: int, raw: bytes) -> None:
        fault = self._next_fault(WRITE_FAULTS)
        if fault == "write_error":
            self.injected[fault] += 1
            raise InjectedIOError(
                f"injected transient write error on page {page_id}",
                page_id=page_id, op="write",
            )
        if fault == "dropped_write":
            self.injected[fault] += 1
            return
        if fault == "torn_write":
            self.injected[fault] += 1
            tear_at = self.rng.randrange(64, self.page_size)
            try:
                old = self.inner._read(page_id)
            except PageNotFoundError:
                old = bytes(self.page_size)
            raw = raw[:tear_at] + old[tear_at:]
        self.inner._write(page_id, raw)

    def _allocate(self) -> int:
        return self.inner._allocate()

    # -- stored-image corruption (for scrubber / repair exercises) ------------

    def corrupt_stored(self, page_id: int, *, mode: str = "bitrot") -> None:
        """Deterministically damage the *stored* image of a page.

        Unlike the transient read faults, this mutates what the inner store
        holds, so every subsequent read sees the damage — the scenario the
        scrubber and single-page restore exist for.  Modes: ``bitrot``
        (flip one bit), ``garbage`` (overwrite a 256-byte run), ``zero``
        (whole-page zeros, a lost sector).
        """
        raw = bytearray(self.inner._read(page_id))
        if mode == "bitrot":
            pos = self.rng.randrange(len(raw))
            raw[pos] ^= 1 << self.rng.randrange(8)
        elif mode == "garbage":
            start = self.rng.randrange(max(1, len(raw) - 256))
            raw[start : start + 256] = bytes(
                self.rng.randrange(256) for _ in range(256)
            )
        elif mode == "zero":
            raw = bytearray(len(raw))
        else:
            raise ValueError(f"unknown corruption mode {mode!r}")
        self.inner._write(page_id, bytes(raw))

    @property
    def page_count(self) -> int:
        return self.inner.page_count

    def close(self) -> None:
        """Release underlying resources (idempotent)."""
        self.inner.close()


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
    :class:`FaultyDisk`'s arming discipline so fault schedules replay
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


def tear_log_tail(
    path: str | os.PathLike,
    *,
    drop_bytes: int = 0,
    garble_at: int | None = None,
) -> int:
    """Mangle the tail of a log file like an OS crash mid-write would.

    The log file is preallocated, so its tail is measured from the *end of
    the log* (the end of its last valid frame), not from the file's size.
    ``drop_bytes`` zeroes that many bytes before the end of the log (a final
    write of which only a prefix landed); ``garble_at`` flips one bit at
    that file offset (negative offsets count from the end of the log).
    Returns the offset the intact bytes now end at.
    """
    with open(path, "r+b") as fh:
        data = fh.read()
        end = scan(data, FileLogManager.HEADER_BYTES)[2]
        if drop_bytes:
            keep = max(0, end - drop_bytes)
            fh.seek(keep)
            fh.write(bytes(end - keep))
            end = keep
        if garble_at is not None:
            offset = garble_at if garble_at >= 0 else end + garble_at
            if not 0 <= offset < len(data):
                raise ValueError(f"garble offset {garble_at} outside file")
            fh.seek(offset)
            fh.write(bytes([data[offset] ^ 0x01]))
        fh.flush()
        os.fsync(fh.fileno())
    return end
