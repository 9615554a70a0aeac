"""Deterministic interleaving harness for concurrent-execution tests.

Concurrency bugs hide in *specific* interleavings; stress tests hit them
by luck.  :class:`InterleaveScheduler` removes the luck: it runs a small
cast of transaction scripts on real threads under a **token discipline** —
exactly one script executes engine code at any moment, and every switch
between scripts is decided by the scheduler, deterministically from a
seed.  The same seed therefore replays the same schedule, byte for byte,
which is what makes a failing interleaving a regression test instead of a
flake.

Switch points come from three seams:

* **Explicit yields**: a script calls :meth:`ScriptContext.pause`, either
  handing the token to a named peer (scripted scenarios: "A updates k and
  pauses; B blocks behind A's lock") or letting the seeded RNG choose.
* **Blocking waits**: the lock manager, the engine latch and the log's
  force-order lock call the scheduler's
  ``on_wait``/``on_wake``/``on_resume`` hooks.  ``on_wait`` fires inside
  the lock monitor just before the thread parks, so the scheduler marks
  it BLOCKED and passes the token on *without blocking*;
  ``on_wake`` (called by the releaser that granted the lock) marks it
  READY; ``on_resume`` re-acquires the token outside the monitor before
  the thread re-enters engine code — including on the deadlock-victim
  raise path, so even an aborting victim runs under the token.
* **Failpoint crossings**: :meth:`attach_failpoints` registers a wildcard
  rule on a :class:`~repro.faults.failpoints.FailpointRegistry`; every
  ``fire()`` site in the engine becomes a potential preemption point,
  taken with ``switch_probability`` using the scheduler's *own* seeded
  RNG (the rule's ``probability`` stays ``None`` so the registry's RNG
  stream — and thus crash-exploration reproducibility — is untouched).

Lock ordering: the scheduler's mutex is a leaf — hooks may be invoked
while a caller holds the lock-manager monitor or the latch monitor, and
the scheduler never blocks inside a hook except in ``on_resume``/
``pause``, which park on a per-script event *outside* every monitor.
A schedule where every script is BLOCKED is a genuine deadlock the lock
manager failed to break; it surfaces as a timeout in :meth:`run`.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Callable

from repro.errors import ConcurrencyError


class _Script:
    """One participant: a named function run on its own thread."""

    __slots__ = (
        "name", "fn", "thread", "state", "go", "parked", "result", "error"
    )

    def __init__(self, name: str, fn: Callable) -> None:
        self.name = name
        self.fn = fn
        self.thread: threading.Thread | None = None
        self.state = "ready"        # ready | running | blocked | done
        self.go = threading.Event()  # token handed to this script
        self.parked = True           # thread is (about to be) waiting on go
        self.result = None
        self.error: BaseException | None = None


class ScriptContext:
    """What a script's function receives: its identity and yield points."""

    def __init__(self, scheduler: "InterleaveScheduler", script: _Script):
        self._scheduler = scheduler
        self._script = script

    @property
    def name(self) -> str:
        return self._script.name

    @property
    def db(self):
        return self._scheduler.db

    def pause(self, to: str | None = None) -> None:
        """Yield the token: to the named peer, or a seeded-RNG choice.

        A no-op when no other script is ready (there is nobody to run).
        Handing off to a BLOCKED or DONE peer is a script bug and raises.
        """
        self._scheduler._switch_from(self._script, to)

    def note(self, message: str) -> None:
        """Append a marker to the schedule trace (for test assertions)."""
        self._scheduler.trace.append(f"note {self.name}: {message}")


class InterleaveScheduler:
    """Seeded one-token-at-a-time scheduler over real threads."""

    def __init__(
        self,
        db,
        *,
        seed: int = 0,
        switch_probability: float = 0.0,
        timeout_s: float = 20.0,
    ) -> None:
        db.enable_concurrency()
        self.db = db
        self.seed = seed
        self.switch_probability = switch_probability
        self.timeout_s = timeout_s
        self.trace: list[str] = []
        self._rng = random.Random(seed)
        self._mu = threading.Lock()
        self._scripts: list[_Script] = []
        self._by_name: dict[str, _Script] = {}
        self._by_ident: dict[int, _Script] = {}
        self._current: _Script | None = None
        self._prior_lock_hooks = db.locks.wait_hooks
        self._prior_latch_hooks = db._latch.wait_hooks
        db.locks.wait_hooks = self
        db._latch.wait_hooks = self
        # A script preempted inside a log force's sync stage holds only the
        # force-order lock; a peer queueing behind it must yield the token.
        db.log.force_order.wait_hooks = self

    # -- cast assembly -------------------------------------------------------

    def spawn(self, name: str, fn: Callable) -> None:
        """Register script ``fn(ctx)`` under ``name`` (spawn order matters:
        the first spawned script receives the token first)."""
        if name in self._by_name:
            raise ValueError(f"duplicate script name {name!r}")
        script = _Script(name, fn)
        self._scripts.append(script)
        self._by_name[name] = script

    def attach_failpoints(self, registry) -> None:
        """Make every failpoint crossing a potential preemption point."""
        registry.on("*", self._failpoint_action)

    # -- execution -----------------------------------------------------------

    def run(
        self, *, timeout_s: float | None = None, raise_errors: bool = True
    ) -> dict:
        """Run every script to completion; returns ``{name: result}``.

        With ``raise_errors`` (the default) the first script error — in
        spawn order — is re-raised here; scripts are expected to catch
        the exceptions their scenario *intends* to provoke.
        """
        if not self._scripts:
            raise ValueError("no scripts spawned")
        timeout = self.timeout_s if timeout_s is None else timeout_s
        for script in self._scripts:
            script.thread = threading.Thread(
                target=self._script_main,
                args=(script,),
                name=f"script-{script.name}",
                daemon=True,
            )
        for script in self._scripts:
            script.thread.start()
        with self._mu:
            self._grant_locked(self._scripts[0])
        deadline = time.monotonic() + timeout
        for script in self._scripts:
            script.thread.join(max(0.0, deadline - time.monotonic()))
        stuck = [s.name for s in self._scripts if s.thread.is_alive()]
        if stuck:
            states = {s.name: s.state for s in self._scripts}
            raise ConcurrencyError(
                f"interleaving stuck after {timeout}s "
                f"(alive: {stuck}, states: {states})"
            )
        self.db.locks.wait_hooks = self._prior_lock_hooks
        self.db._latch.wait_hooks = self._prior_latch_hooks
        self.db.log.force_order.wait_hooks = None
        if raise_errors:
            for script in self._scripts:
                if script.error is not None:
                    raise script.error
        return {s.name: s.result for s in self._scripts}

    def _script_main(self, script: _Script) -> None:
        with self._mu:
            self._by_ident[threading.get_ident()] = script
        self._park(script)   # wait for the opening grant
        try:
            script.result = script.fn(ScriptContext(self, script))
        except BaseException as exc:
            script.error = exc
        finally:
            with self._mu:
                script.state = "done"
                self.trace.append(f"done {script.name}")
                if self._current is script:
                    self._current = None
                    self._schedule_next_locked()

    # -- wait-hook protocol (lock manager + latch call these) -----------------

    def on_wait(self) -> None:
        """Caller is about to park on a cv — monitor held, must not block."""
        with self._mu:
            script = self._by_ident.get(threading.get_ident())
            if script is None:
                return
            script.state = "blocked"
            script.parked = True
            self.trace.append(f"block {script.name}")
            if self._current is script:
                self._current = None
                self._schedule_next_locked()

    def on_wake(self, ident: int) -> None:
        """The releaser made ``ident`` runnable — monitor held."""
        with self._mu:
            script = self._by_ident.get(ident)
            if script is None or script.state != "blocked":
                return
            script.state = "ready"
            self.trace.append(f"wake {script.name}")
            if self._current is None:
                self._grant_locked(script)

    def on_resume(self) -> None:
        """Caller woke from its wait — outside every monitor; may block."""
        with self._mu:
            script = self._by_ident.get(threading.get_ident())
            if script is None or not script.parked:
                return   # never yielded the token (immediate-grant path)
            if script.state == "blocked":
                # Woken without an on_wake (wait timeout): self-promote.
                script.state = "ready"
            if self._current is None:
                self._grant_locked(script)
        self._park(script)

    # -- internals -----------------------------------------------------------

    def _switch_from(self, script: _Script, to: str | None) -> None:
        with self._mu:
            if self._current is not script:
                return
            if to is not None:
                target = self._by_name.get(to)
                if target is None:
                    raise ConcurrencyError(f"no script named {to!r}")
                if target is script:
                    return
                if target.state != "ready":
                    raise ConcurrencyError(
                        f"cannot hand the token to {to!r}: it is "
                        f"{target.state}"
                    )
                nxt = target
            else:
                candidates = [
                    s for s in self._scripts
                    if s is not script and s.state == "ready"
                ]
                if not candidates:
                    return   # nobody else to run; keep going
                nxt = (
                    candidates[0] if len(candidates) == 1
                    else self._rng.choice(candidates)
                )
            script.state = "ready"
            script.parked = True
            self._current = None
            self.trace.append(f"pause {script.name}")
            self._grant_locked(nxt)
        self._park(script)

    def _schedule_next_locked(self) -> None:
        candidates = [s for s in self._scripts if s.state == "ready"]
        if not candidates:
            return   # everyone blocked or done; a wake will grant directly
        nxt = (
            candidates[0] if len(candidates) == 1
            else self._rng.choice(candidates)
        )
        self._grant_locked(nxt)

    def _grant_locked(self, script: _Script) -> None:
        self._current = script
        script.state = "running"
        self.trace.append(f"run {script.name}")
        script.go.set()

    def _park(self, script: _Script) -> None:
        if not script.go.wait(timeout=self.timeout_s):
            raise ConcurrencyError(
                f"script {script.name!r} starved waiting for the token"
            )
        with self._mu:
            script.go.clear()
            script.parked = False

    def _failpoint_action(self, event) -> None:
        if self.switch_probability <= 0.0:
            return
        with self._mu:
            script = self._by_ident.get(threading.get_ident())
            if script is None or self._current is not script:
                return
            # The scheduler's own RNG stream: the registry's stays pristine.
            roll = self._rng.random()
        if roll < self.switch_probability:
            self._switch_from(script, None)
