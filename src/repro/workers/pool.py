"""A thread-based transaction worker pool.

``WorkerPool(db, n_workers)`` drives many concurrent transactions against
one :class:`~repro.core.engine.ImmortalDB`:

* **Bounded admission**: :meth:`submit` enqueues a transaction body
  (a callable receiving the open transaction) onto a bounded queue and
  returns a :class:`TxnFuture`; when the queue is full, submit blocks —
  backpressure instead of unbounded buffering.
* **Conflict retry**: deadlock victimhood, lock conflicts and snapshot
  write-conflicts abort the attempt and retry the body in a *fresh*
  transaction, after a seeded exponential
  backoff (a :class:`~repro.storage.disk.RetryPolicy` seeded per task, so
  reruns of a seeded workload retry on the same schedule).  Anything else
  fails the future with the original exception.
* **Group-commit batching**: with ``group_commit_window > 1`` commits are
  volatile until a force.  The pool's durability policy is
  *last-active-worker-flushes*: a worker that finishes a task while no
  other task is in flight forces the log.  One worker therefore behaves
  like a synchronous-commit client (a force per transaction); N busy
  workers share forces across whole batches — which is exactly the group
  commit amortization the paper's commit protocol is designed for.

The pool enables the engine's concurrent mode lazily (blocking locks,
engine latch, buffer/WAL/timestamp-manager mutexes), so it can wrap an
engine built with the defaults.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.concurrency.transaction import Transaction, TxnMode
from repro.errors import (
    ConcurrencyError,
    DeadlockError,
    LockConflictError,
    TimestampOrderError,
    WriteConflictError,
)
from repro.storage.disk import RetryPolicy

MAX_RETRIES = 16          # fresh attempts a conflicting task gets after its first
BACKOFF_STEP_MS = 0.1     # one RetryPolicy backoff step
BACKOFF_CAP_MS = 5.0      # no single backoff sleeps longer

#: Conflicts a fresh attempt may well not hit again.
RETRYABLE_ERRORS = (
    DeadlockError,
    LockConflictError,
    TimestampOrderError,
    WriteConflictError,
)


class RetriesExhaustedError(ConcurrencyError):
    """A task kept conflicting past the pool's retry budget."""

    def __init__(self, message: str, *, attempts: int, last: Exception) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.last = last


class TxnFuture:
    """The pending result of one pooled transaction."""

    def __init__(self) -> None:
        self._completed = threading.Event()
        self._durable = threading.Event()
        self.result_value = None
        self.exception: BaseException | None = None
        self.retries = 0
        self.commit_ts = None
        self.tid: int | None = None    # TID of the attempt that committed

    def done(self) -> bool:
        return self._completed.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        return self._completed.wait(timeout)

    def result(self, timeout: float | None = None):
        """Block for the outcome; re-raise the task's failure if it failed."""
        if not self._completed.wait(timeout):
            raise TimeoutError("transaction still pending")
        if self.exception is not None:
            raise self.exception
        return self.result_value

    @property
    def durable(self) -> bool:
        """True once the commit record is known forced to the log."""
        return self._durable.is_set()

    def wait_durable(self, timeout: float | None = None) -> bool:
        return self._durable.wait(timeout)


@dataclass
class _Task:
    fn: Callable[[Transaction], object]
    future: TxnFuture
    seq: int = 0        # submission number: seeds the task's backoff schedule
    mode: TxnMode | None = None
    raw: bool = False   # call fn() directly: no txn bracket, no retry


_STOP = _Task(fn=lambda txn: None, future=TxnFuture())


@dataclass
class PoolStats:
    submitted: int = 0
    committed: int = 0
    failed: int = 0
    retries: int = 0
    flushes: int = 0     # durability forces issued by the pool policy


class WorkerPool:
    """N worker threads executing queued transaction bodies against one DB."""

    def __init__(
        self,
        db,
        n_workers: int = 4,
        *,
        seed: int = 0,
        queue_depth: int = 128,
    ) -> None:
        if n_workers < 1:
            raise ValueError("need at least one worker")
        db.enable_concurrency()
        self.db = db
        self.seed = seed
        self.stats = PoolStats()
        self._queue: queue.Queue[_Task] = queue.Queue(maxsize=queue_depth)
        self._mu = threading.Lock()
        self._in_flight = 0
        self._seq = 0
        self._closed = False
        self._awaiting_ack: dict[int, TxnFuture] = {}
        self._prior_durable_hook = db.txn_mgr.durable_commit_hook
        db.txn_mgr.durable_commit_hook = self._on_durable_commit
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"txn-worker-{i}", daemon=True
            )
            for i in range(n_workers)
        ]
        for worker in self._workers:
            worker.start()

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        fn: Callable[[Transaction], object],
        *,
        mode: TxnMode | None = None,
    ) -> TxnFuture:
        """Queue ``fn(txn)`` to run in its own transaction; returns a future.

        ``fn`` may run more than once (in a fresh transaction each time) if
        it conflicts, so it must not carry side effects outside the
        transaction.  Blocks while the admission queue is full — except on
        one of the pool's own workers (a raw task fanning out): there the
        body runs at once on the calling thread, because waiting for a worker from a worker deadlocks as
        soon as every worker does it.
        """
        if self._closed:
            raise RuntimeError("worker pool is closed")
        future = TxnFuture()
        with self._mu:
            seq = self._seq
            self._seq += 1
            self.stats.submitted += 1
        task = _Task(
            fn=fn,
            future=future,
            seq=seq,
            mode=mode,
        )
        if threading.current_thread() in self._workers:
            self._run_task(task)
        else:
            self._queue.put(task)
        return future

    def map(self, fns) -> list[TxnFuture]:
        return [self.submit(fn) for fn in fns]

    def submit_call(self, fn: Callable[[], object]) -> TxnFuture:
        """Queue a raw ``fn()`` call (no transaction bracket, no retry).

        For a body that manages its own transaction state (a SQL session's
        open bracket spans many calls), so the pool must not wrap or rerun
        it — but the call still flows through the bounded admission queue
        and still participates in the last-active-worker flush policy.
        """
        if self._closed:
            raise RuntimeError("worker pool is closed")
        future = TxnFuture()
        with self._mu:
            self._seq += 1
            self.stats.submitted += 1
        task = _Task(fn=fn, future=future, raw=True)
        self._queue.put(task)
        return future

    # -- lifecycle ------------------------------------------------------------

    def join(self) -> None:
        """Wait for every queued task, then force any unacked commits."""
        self._queue.join()
        if self.db.txn_mgr.unacked_commits:
            self.db.flush_commits()

    def close(self) -> None:
        """Drain, stop the workers, and restore the engine's durable hook."""
        if self._closed:
            return
        self.join()
        self._closed = True
        for _ in self._workers:
            self._queue.put(_STOP)
        for worker in self._workers:
            worker.join()
        self.db.txn_mgr.durable_commit_hook = self._prior_durable_hook

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- worker internals ---------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            task = self._queue.get()
            if task is _STOP:
                self._queue.task_done()
                return
            with self._mu:
                self._in_flight += 1
            try:
                self._run_task(task)
            finally:
                with self._mu:
                    self._in_flight -= 1
                    last_active = self._in_flight == 0
                self._queue.task_done()
                # Durability policy: the last active worker forces the log,
                # acking every batched commit.  Busy pools reach this rarely
                # (batches form); an idle pool acks promptly.
                if last_active and self.db.txn_mgr.unacked_commits:
                    self.stats.flushes += 1
                    self.db.flush_commits()

    def _run_task(self, task: _Task) -> None:
        future = task.future
        if task.raw:
            try:
                future.result_value = task.fn()
            except BaseException as exc:
                future.exception = exc
                self.stats.failed += 1
            future._durable.set()   # durability is the caller's contract
            future._completed.set()
            return
        last_error: Exception | None = None
        backoff: RetryPolicy | None = None
        for attempt in range(MAX_RETRIES + 1):
            if attempt:
                self.db.txn_mgr.txn_retries += 1
                self.stats.retries += 1
                future.retries += 1
                if backoff is None:
                    # Deterministic per task: reruns back off on the same
                    # schedule, and conflicting tasks spread out.
                    backoff = RetryPolicy(seed=(self.seed << 24) ^ task.seq)
                steps = backoff.backoff_steps(attempt)
                time.sleep(min(BACKOFF_CAP_MS, steps * BACKOFF_STEP_MS) / 1000.0)
            txn = (
                self.db.begin(task.mode)
                if task.mode is not None
                else self.db.begin()
            )
            try:
                result = task.fn(txn)
                with self._mu:
                    self._awaiting_ack[txn.tid] = future
                ts = self.db.commit(txn)
            except RETRYABLE_ERRORS as exc:
                last_error = exc
                self._cleanup_attempt(txn)
                continue
            except BaseException as exc:
                self._cleanup_attempt(txn)
                future.exception = exc
                self.stats.failed += 1
                future._completed.set()
                return
            future.result_value = result
            future.commit_ts = ts
            future.tid = txn.tid
            if ts is None:
                # A read-only transaction has nothing awaiting durability.
                with self._mu:
                    self._awaiting_ack.pop(txn.tid, None)
                future._durable.set()
            self.stats.committed += 1
            future._completed.set()
            return
        future.exception = RetriesExhaustedError(
            f"task still conflicting after {MAX_RETRIES + 1} attempts "
            f"(last: {last_error!r})",
            attempts=MAX_RETRIES + 1,
            last=last_error,
        )
        self.stats.failed += 1
        future._completed.set()

    def _cleanup_attempt(self, txn: Transaction) -> None:
        with self._mu:
            self._awaiting_ack.pop(txn.tid, None)
        if txn.state.value == "active":
            try:
                self.db.abort(txn)
            except Exception:
                pass

    def _on_durable_commit(self, txn: Transaction) -> None:
        # Called from whichever thread performed the physical force, with
        # the engine latch held — keep it tiny.
        with self._mu:
            future = self._awaiting_ack.pop(txn.tid, None)
        if future is not None:
            future._durable.set()
        if self._prior_durable_hook is not None:
            self._prior_durable_hook(txn)
