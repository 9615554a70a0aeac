"""Lock manager: fine-grained record locks with table intents.

Two execution modes share one lock table:

* **Non-blocking** (the default, and the historical behaviour): a
  conflicting request raises :exc:`~repro.errors.LockConflictError` naming
  the holders.  Single-threaded tests interleave transactions cooperatively
  and assert on exactly these conflicts — which is also how the paper
  motivates snapshot isolation: "reads are not blocked by concurrent
  updates" because snapshot readers take no locks at all (see
  :mod:`repro.concurrency.snapshot`).

* **Blocking** (``blocking=True``, enabled by the worker pool): a
  conflicting request parks the calling thread on a condition variable in a
  per-resource FIFO wait queue.  Grants happen *on release* — the releasing
  thread scans the queue and hands locks to every waiter that is compatible
  with the remaining holders and with every conflicting waiter ahead of it
  (no barging past a conflicting request, but a compatible one may pass a
  blocked stranger).  Granting in the releaser's context keeps the grant
  order deterministic under the interleaving harness: who gets the lock
  never depends on which sleeping thread the OS wakes first.

  Every wait first runs cycle detection over the waits-for graph (edges to
  conflicting holders and to conflicting earlier waiters).  A cycle picks a
  victim — by default the *youngest* transaction (highest TID), a
  deterministic choice — which is woken with a doom marker and raises
  :exc:`~repro.errors.DeadlockError` from its wait; its owner aborts the
  transaction, releasing the locks that let the cycle drain.

Upgrades (a transaction that already holds S requesting X) never queue
behind strangers: they are granted the moment no *other* holder conflicts,
and while waiting they contribute waits-for edges like any waiter, so two
crossing upgraders become a detected deadlock instead of a livelock.
"""

from __future__ import annotations

import enum
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Hashable

from repro.errors import ConcurrencyError, DeadlockError, LockConflictError


class LockMode(enum.IntEnum):
    IS = 0   # intent shared (table)
    IX = 1   # intent exclusive (table)
    S = 2    # shared (record, or whole-table scans)
    X = 3    # exclusive (record)


# Compatibility matrix: _COMPAT[held][requested]
_COMPAT: dict[LockMode, set[LockMode]] = {
    LockMode.IS: {LockMode.IS, LockMode.IX, LockMode.S},
    LockMode.IX: {LockMode.IS, LockMode.IX},
    LockMode.S: {LockMode.IS, LockMode.S},
    LockMode.X: set(),
}

Resource = Hashable


def record_resource(table_id: int, key: bytes) -> tuple:
    return ("record", table_id, key)


def table_resource(table_id: int) -> tuple:
    return ("table", table_id)


def _conflicts(held: LockMode, requested: LockMode) -> bool:
    return requested not in _COMPAT[held]


def _cross_conflicts(a: LockMode, b: LockMode) -> bool:
    """Conflict in either direction — the ordering test between two waiters."""
    return a not in _COMPAT[b] or b not in _COMPAT[a]


@dataclass
class _Waiter:
    """One parked lock request (blocking mode only)."""

    tid: int
    mode: LockMode
    resource: Resource
    thread_ident: int
    granted: bool = False
    doomed: tuple[int, ...] | None = None   # the cycle, once chosen as victim


@dataclass
class LockStats:
    """Concurrency counters (all zero in single-threaded runs)."""

    lock_waits: int = 0          # requests that had to park
    lock_wait_ns: int = 0        # total parked time
    deadlocks_detected: int = 0  # waits-for cycles found


class LockManager:
    """Lock table keyed by resource; per-transaction held-lock index."""

    def __init__(
        self,
        *,
        blocking: bool = False,
        wait_timeout_s: float = 30.0,
        victim_policy: Callable[[tuple[int, ...]], int] | None = None,
    ) -> None:
        self._holders: dict[Resource, dict[int, LockMode]] = defaultdict(dict)
        self._held_by: dict[int, set[Resource]] = defaultdict(set)
        self._waiters: dict[Resource, list[_Waiter]] = {}
        self._waiting_tids: dict[int, _Waiter] = {}
        # ``_mutex`` is the condition's own lock: the two entry points every
        # transaction passes (acquire, release_all) take it by hand, not
        # through ``with`` (twice the cost, and Python frames on Condition).
        self._mutex = threading.RLock()
        self._cv = threading.Condition(self._mutex)
        # TIDs that cannot finish without external action (in-doubt 2PC
        # participants reinstated after recovery): waiting behind one is
        # futile — the holder releases only when resolution runs — so
        # conflicts with a wedged holder raise immediately even in
        # blocking mode, where they can be surfaced as typed errors.
        self.wedged: set[int] = set()
        self.blocking = blocking
        self.wait_timeout_s = wait_timeout_s
        # Deterministic default: abort the youngest transaction in the cycle.
        self.victim_policy = victim_policy or max
        # Scheduler seam (the interleaving harness installs one): an object
        # with on_wait() [caller is about to sleep], on_wake(thread_ident)
        # [another thread made `ident` runnable], on_resume() [caller woke
        # and wants to run engine code again].
        self.wait_hooks = None
        self.upgrades = 0
        self.stats = LockStats()

    # -- acquisition --------------------------------------------------------

    def acquire(self, tid: int, resource: Resource, mode: LockMode) -> None:
        """Grant ``mode`` on ``resource`` to ``tid``.

        Re-acquiring an equal or weaker mode is a no-op; a stronger mode is
        an upgrade, granted as soon as no *other* holder conflicts.  In
        non-blocking mode a conflict raises :exc:`LockConflictError`
        immediately; in blocking mode the caller parks until granted, or
        raises :exc:`DeadlockError` if its wait would close (and it is
        chosen to break) a waits-for cycle.
        """
        try:
            mutex = self._mutex
            mutex.acquire()
            try:
                holders = self._holders.get(resource)
                if holders is None and resource not in self._waiters:
                    # Nobody holds or wants it: the uncontended common case.
                    self._holders[resource] = {tid: mode}
                    self._held_by[tid].add(resource)
                    return
                holders = self._holders[resource]
                current = holders.get(tid)
                if current is not None and current >= mode:
                    return      # already held, as strong or stronger
                # The conflict lists are built only when somebody else
                # holds the resource, or (for a fresh request) waits for it.
                blocking_holders = [
                    (t, m) for t, m in holders.items()
                    if t != tid and _conflicts(m, mode)
                ] if len(holders) > (current is not None) else []
                blocking_waiters = [
                    w for w in self._waiters[resource]
                    if w.tid != tid and _cross_conflicts(mode, w.mode)
                ] if current is None and resource in self._waiters else []
                if not blocking_holders and not blocking_waiters:
                    # Free, or an upgrade with no conflicting co-holder:
                    # upgrades barge (queueing behind a stranger's X request
                    # on a resource we already hold would be a self-made
                    # deadlock).
                    self._grant(
                        tid, resource, mode, upgrade=current is not None
                    )
                    return
                if not self.blocking or any(
                    t in self.wedged for t, _ in blocking_holders
                ):
                    raise self._conflict_error(
                        tid, resource, mode, blocking_holders
                    )
                self._wait_for_grant(tid, resource, mode)
            finally:
                mutex.release()
        finally:
            # Token re-entry happens outside the monitor — including the
            # deadlock-victim and timeout raise paths, so an aborting victim
            # still runs under the scheduler's token.  Threads that never
            # slept resume as a no-op.
            if self.wait_hooks is not None:
                self.wait_hooks.on_resume()

    def _grant(
        self, tid: int, resource: Resource, mode: LockMode, *, upgrade: bool
    ) -> None:
        if upgrade:
            self.upgrades += 1
        holders = self._holders[resource]
        current = holders.get(tid)
        if current is None or mode > current:
            holders[tid] = mode
        self._held_by[tid].add(resource)

    def _conflict_error(
        self,
        tid: int,
        resource: Resource,
        mode: LockMode,
        blocking_holders: list[tuple[int, LockMode]],
    ) -> LockConflictError:
        holder_tid, holder_mode = blocking_holders[0]
        return LockConflictError(
            f"{mode.name} lock on {resource!r} conflicts with "
            f"{holder_mode.name} held by transaction {holder_tid}",
            holder_tid=holder_tid,
            waiter_tid=tid,
            holder_tids=tuple(t for t, _ in blocking_holders),
            holder_modes=tuple(m for _, m in blocking_holders),
            resource=resource,
            requested_mode=mode,
        )

    # -- blocking wait path -------------------------------------------------

    def _wait_for_grant(
        self, tid: int, resource: Resource, mode: LockMode
    ) -> None:
        """Park until granted or doomed.  Monitor held on entry and exit."""
        if tid in self._waiting_tids:
            raise ConcurrencyError(
                f"transaction {tid} is already waiting for a lock "
                f"(one thread per transaction is required)"
            )
        waiter = _Waiter(tid, mode, resource, threading.get_ident())
        self._waiters.setdefault(resource, []).append(waiter)
        self._waiting_tids[tid] = waiter
        self.stats.lock_waits += 1
        self._resolve_deadlocks(waiter)
        if self.wait_hooks is not None and waiter.doomed is None \
                and not waiter.granted:
            self.wait_hooks.on_wait()
        started = time.perf_counter_ns()
        deadline = time.monotonic() + self.wait_timeout_s
        while not waiter.granted and waiter.doomed is None:
            if not self._cv.wait(timeout=self.wait_timeout_s) \
                    and time.monotonic() >= deadline:
                self._remove_waiter(waiter)
                self.stats.lock_wait_ns += time.perf_counter_ns() - started
                raise ConcurrencyError(
                    f"transaction {tid} timed out after "
                    f"{self.wait_timeout_s}s waiting for {mode.name} on "
                    f"{resource!r}"
                )
        self.stats.lock_wait_ns += time.perf_counter_ns() - started
        if waiter.doomed is not None:
            raise DeadlockError(
                f"transaction {tid} chosen as deadlock victim "
                f"(cycle {' -> '.join(map(str, waiter.doomed))}) while "
                f"requesting {mode.name} on {resource!r}",
                cycle=waiter.doomed,
                victim_tid=tid,
                resource=resource,
            )

    def _resolve_deadlocks(self, waiter: _Waiter) -> None:
        """Detect and break every cycle the new wait closes (monitor held)."""
        while waiter.doomed is None and not waiter.granted:
            cycle = self._find_cycle(waiter.tid)
            if cycle is None:
                return
            self.stats.deadlocks_detected += 1
            victim = self.victim_policy(cycle)
            victim_waiter = self._waiting_tids.get(victim)
            if victim_waiter is None:   # policy picked a non-waiting tid
                victim_waiter = waiter
            victim_waiter.doomed = cycle
            # Remove the victim from the graph in the *detector's* context,
            # so promotion order never depends on when the victim thread
            # wakes (determinism under the interleaving harness).
            self._remove_waiter(victim_waiter)
            if self.wait_hooks is not None and victim_waiter is not waiter:
                self.wait_hooks.on_wake(victim_waiter.thread_ident)
            self._cv.notify_all()
            if victim_waiter is waiter:
                return

    def _blockers(self, waiter: _Waiter) -> set[int]:
        """TIDs this waiter is waiting for (the waits-for out-edges)."""
        out: set[int] = set()
        for t, m in self._holders.get(waiter.resource, {}).items():
            if t != waiter.tid and _conflicts(m, waiter.mode):
                out.add(t)
        for other in self._waiters.get(waiter.resource, ()):
            if other is waiter:
                break
            if other.tid != waiter.tid and not other.granted \
                    and _cross_conflicts(waiter.mode, other.mode):
                out.add(other.tid)
        return out

    def _find_cycle(self, start: int) -> tuple[int, ...] | None:
        """DFS from ``start`` through the waits-for graph; a path back to
        ``start`` is returned as the cycle (monitor held)."""
        path: list[int] = []
        visited: set[int] = set()

        def dfs(tid: int) -> tuple[int, ...] | None:
            w = self._waiting_tids.get(tid)
            if w is None:
                return None
            for nxt in sorted(self._blockers(w)):
                if nxt == start:
                    return tuple(path + [tid])
                if nxt in visited:
                    continue
                visited.add(nxt)
                path.append(tid)
                found = dfs(nxt)
                path.pop()
                if found is not None:
                    return found
            return None

        return dfs(start)

    def _remove_waiter(self, waiter: _Waiter) -> None:
        queue = self._waiters.get(waiter.resource)
        if queue is not None and waiter in queue:
            queue.remove(waiter)
            if not queue:
                del self._waiters[waiter.resource]
        self._waiting_tids.pop(waiter.tid, None)
        # Whoever queued behind the removed request may now be grantable.
        self._promote(waiter.resource)

    def _promote(self, resource: Resource) -> None:
        """Grant every queued waiter the current state allows (monitor held).

        Runs in the context of the thread that changed the lock table (a
        release, or a waiter removal), which makes grant order a pure
        function of the request order — deterministic under the harness.
        """
        queue = self._waiters.get(resource)
        if not queue:
            return
        holders = self._holders[resource]
        pending: list[_Waiter] = []
        woke = False
        for waiter in list(queue):
            blocked = any(
                _conflicts(m, waiter.mode)
                for t, m in holders.items() if t != waiter.tid
            ) or any(
                _cross_conflicts(waiter.mode, p.mode)
                for p in pending if p.tid != waiter.tid
            )
            if blocked:
                pending.append(waiter)
                continue
            upgrade = waiter.tid in holders
            self._grant(waiter.tid, resource, waiter.mode, upgrade=upgrade)
            waiter.granted = True
            queue.remove(waiter)
            self._waiting_tids.pop(waiter.tid, None)
            if self.wait_hooks is not None:
                self.wait_hooks.on_wake(waiter.thread_ident)
            woke = True
        if not queue:
            del self._waiters[resource]
        if woke:
            self._cv.notify_all()

    # -- convenience wrappers ------------------------------------------------

    # The two per-record wrappers spell out the tuples ``table_resource`` and
    # ``record_resource`` build: every read and every write passes here.

    def lock_record_shared(self, tid: int, table_id: int, key: bytes) -> None:
        self.acquire(tid, ("table", table_id), LockMode.IS)
        self.acquire(tid, ("record", table_id, key), LockMode.S)

    def lock_record_exclusive(self, tid: int, table_id: int, key: bytes) -> None:
        self.acquire(tid, ("table", table_id), LockMode.IX)
        self.acquire(tid, ("record", table_id, key), LockMode.X)

    def lock_table_shared(self, tid: int, table_id: int) -> None:
        self.acquire(tid, table_resource(table_id), LockMode.S)

    # -- release --------------------------------------------------------------

    def release_all(self, tid: int) -> int:
        """Drop every lock held by ``tid`` (commit/abort).  Returns count."""
        mutex = self._mutex
        mutex.acquire()
        try:
            resources = self._held_by.pop(tid, ())
            holders_of, waiters = self._holders, self._waiters
            for resource in resources:
                holders = holders_of.get(resource)
                if holders is not None:
                    holders.pop(tid, None)
                    if not holders:
                        del holders_of[resource]
                if waiters and resource in waiters:
                    self._promote(resource)
            return len(resources)
        finally:
            mutex.release()

    # -- inspection ------------------------------------------------------------

    def mode_held(self, tid: int, resource: Resource) -> LockMode | None:
        with self._cv:
            return self._holders.get(resource, {}).get(tid)

    def locks_held(self, tid: int) -> int:
        with self._cv:
            return len(self._held_by.get(tid, ()))

    def total_locks(self) -> int:
        with self._cv:
            return sum(len(h) for h in self._holders.values())

    def waiting_tids(self) -> list[int]:
        """TIDs currently parked (diagnostics and harness assertions)."""
        with self._cv:
            return sorted(self._waiting_tids)
