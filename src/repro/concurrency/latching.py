"""Engine latching for concurrent execution.

The concurrent-execution design (see DESIGN.md, "Concurrent execution")
uses a two-level discipline:

1. **Record/table locks first** — every table operation acquires its 2PL
   locks *before* touching any shared structure, and may block there.
2. **One engine latch second** — the structural work (B-tree descent, page
   mutation, WAL append, clock draw, VTT/PTT updates) runs under a single
   reentrant engine latch, held only for the duration of one operation,
   never across a lock wait.

Because no thread ever blocks on a record lock while holding the latch,
lock waits cannot entangle with latch waits: the latch is always released
in bounded time, so the only cycles possible are record-lock cycles — which
the lock manager detects and breaks.

:class:`NullLatch` is the zero-cost stand-in used when concurrency is off
(the default), keeping the single-threaded paths byte-identical in
behaviour and almost identical in cost.

Latch waiters queue FIFO and are woken by the releaser in queue order, the
same grant-on-release scheme the blocking lock manager uses; combined with
the ``wait_hooks`` seam this makes latch handoff replayable under the
deterministic interleaving scheduler.
"""

from __future__ import annotations

import threading
import time

from repro.errors import ConcurrencyError


class NullLatch:
    """A free pass: the latch used while concurrency is disabled."""

    __slots__ = ()

    def acquire(self) -> None:
        pass

    def release(self) -> None:
        pass

    def __enter__(self) -> "NullLatch":
        return self

    def __exit__(self, *exc) -> None:
        pass


class ReentrantLatch:
    """A FIFO-fair reentrant mutex with scheduler hooks.

    Unlike :class:`threading.RLock`, waiters are granted strictly in
    arrival order, and the *releasing* thread decides (and announces via
    ``wait_hooks.on_wake``) who runs next — the properties the
    deterministic interleaving harness needs.  ``wait_hooks`` follows the
    same protocol as the lock manager's: ``on_wait()`` before parking,
    ``on_wake(ident)`` from the releaser, ``on_resume()`` after waking,
    outside the monitor.
    """

    def __init__(self, *, timeout_s: float = 30.0) -> None:
        # The monitor's lock is taken directly, a C call: ``with self._cv``
        # is two Python frames each way on every acquire and release.
        self._mu = threading.Lock()
        self._cv = threading.Condition(self._mu)
        self._owner: int | None = None
        self._depth = 0
        self._queue: list[int] = []     # thread idents, FIFO
        self.timeout_s = timeout_s
        self.wait_hooks = None
        self.acquisitions = 0
        self.waits = 0
        self.wait_ns = 0

    def acquire(self) -> None:
        me = threading.get_ident()
        hooks = self.wait_hooks
        self._mu.acquire()
        try:
            if self._owner == me:
                self._depth += 1
                return
            if self._owner is None and not self._queue:
                self._owner = me
                self._depth = 1
                self.acquisitions += 1
                return
            self._queue.append(me)
            self.waits += 1
            if hooks is not None:
                hooks.on_wait()
            started = time.perf_counter_ns()
            deadline = time.monotonic() + self.timeout_s
            while not (self._owner is None and self._queue[0] == me):
                if not self._cv.wait(timeout=self.timeout_s) \
                        and time.monotonic() >= deadline:
                    self._queue.remove(me)
                    self._cv.notify_all()
                    raise ConcurrencyError(
                        f"engine latch wait timed out after {self.timeout_s}s"
                    )
            self.wait_ns += time.perf_counter_ns() - started
            self._queue.pop(0)
            self._owner = me
            self._depth = 1
            self.acquisitions += 1
        finally:
            self._mu.release()
        if hooks is not None:
            hooks.on_resume()

    def release(self) -> None:
        self._mu.acquire()
        try:
            if self._owner != threading.get_ident():
                raise ConcurrencyError(
                    "engine latch released by a thread that does not hold it"
                )
            self._depth -= 1
            if self._depth:
                return
            self._owner = None
            if self._queue:
                if self.wait_hooks is not None:
                    self.wait_hooks.on_wake(self._queue[0])
                self._cv.notify_all()
        finally:
            self._mu.release()

    def __enter__(self) -> "ReentrantLatch":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    @property
    def held(self) -> bool:
        """True when the calling thread owns the latch."""
        return self._owner == threading.get_ident()
