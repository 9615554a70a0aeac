"""The one temporal oracle: what a driver saw committed, keyed by timestamp.

Under strict 2PL commit-timestamp order is a serialization order, so the
state as of ``t`` folds the mutations committed at or before ``t`` in
timestamp order.  Fed only what a driver saw (a mutation begun, the
timestamp a commit call returned, an engine's ``durable_commit_hook``), it
keeps two rules (DESIGN.md, "Crash-point exploration"): a commit is acked
when the hook fires for its timestamp, and a crash keeps every acked
commit plus, per engine, a timestamp-order prefix of the un-acked ones,
each mutation whole; the in-flight one may land last, where its engines
keep all their un-acked commits.
"""

from __future__ import annotations

from itertools import product


class Oracle:
    def __init__(self) -> None:
        self.commits: dict = {}     # ts -> {key: value, None deletes}, ts order
        self.volatile: dict = {}    # unacked commit ts -> its engine
        self.marks: list = []       # as-of probe timestamps
        self.in_flight: dict | None = None  # begun; its commit call is out
        self._engines: tuple = (0,)  # the engines the in-flight one commits on
        self._claimed = None        # the ts a hook gave the in-flight mutation

    def begin(self, mutation: dict, engines: tuple = (0,)) -> None:
        self.in_flight, self._engines, self._claimed = mutation, engines, None

    def committed(self, ts=None) -> None:
        """The in-flight commit call returned ``ts`` (``None``: none seen).  A
        hook must have acked it unless ``ts`` came back from a single engine."""
        if self._claimed is None:
            if ts is None or len(self._engines) > 1:
                raise AssertionError(f"{self.in_flight!r} acked before it was durable")
            self._record(ts, self.in_flight)
            self.volatile[ts] = self._engines[0]
        elif ts not in (None, self._claimed):
            raise AssertionError(f"commit returned {ts}, acked as {self._claimed}")
        self.in_flight = self._claimed = None

    def durable(self, ts) -> None:
        """An engine's durable-commit hook fired for ``ts``: a hook for a
        timestamp no commit call has returned belongs to the in-flight
        mutation (so a driver that never sees timestamps learns its acks)."""
        if ts in self.commits:
            self.volatile.pop(ts, None)
        elif self.in_flight is not None and self._claimed is None:
            self._record(ts, self.in_flight)
            self._claimed = ts
        else:
            raise AssertionError(f"durable ack for {ts}, which no mutation can own")

    def _record(self, ts, mutation: dict) -> None:
        assert not self.commits or ts > next(reversed(self.commits)), ts
        self.commits[ts] = mutation

    @staticmethod
    def _fold(mutations) -> dict:
        state: dict = {}
        for mutation in mutations:
            state.update(mutation)
        return {k: v for k, v in state.items() if v is not None}

    def as_of(self, ts) -> dict:
        """The acked state at ``ts``."""
        return self._fold(
            m for t, m in self.commits.items() if t <= ts and t not in self.volatile
        )

    def current(self) -> dict:
        """The driver's view: every commit it saw return, acked or not."""
        return self._fold(self.commits.values())

    def acceptable_states(self) -> list[dict]:
        """Every state the survival rule lets a crash leave."""
        lanes: dict = {}
        for ts, engine in sorted(self.volatile.items()):
            lanes.setdefault(engine, []).append(ts)
        # The in-flight commit record follows its engines' un-acked ones.
        ahead = {ts for ts, engine in self.volatile.items() if engine in self._engines}
        unacked = self.in_flight is not None and self._claimed is None
        states: list[dict] = []
        for cut in product(*(range(len(lane) + 1) for lane in lanes.values())):
            lost = {ts for lane, n in zip(lanes.values(), cut) for ts in lane[n:]}
            kept = [m for ts, m in self.commits.items() if ts not in lost]
            tails = [[], [self.in_flight]] if unacked and not lost & ahead else [[]]
            for tail in tails:
                state = self._fold(kept + tail)
                if state not in states:
                    states.append(state)
        return states
