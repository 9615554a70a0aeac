"""Admission control: a bounded in-flight budget with read-first shedding.

The controller tracks how many requests are executing (or waiting for an
execution slot) right now and rejects above a budget, raising
:class:`~repro.errors.ServiceOverloadedError` with a load-scaled
retry-after hint instead of letting latency grow without bound.

Shedding is *tiered*: reads are rejected once in-flight crosses
``read_shed_fraction`` of the budget, writes only at the full budget.
Reads are stateless and cheap to retry (no locks held, no log force
wasted); letting writes keep draining is what prevents the collapse mode
where a retry storm of reads starves the writes whose locks everyone
waits on.

Decisions are a pure function of the current counters — no clocks, no
randomness — so rejection is deterministic under the interleave scheduler.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.errors import ServiceOverloadedError


@dataclass
class AdmissionStats:
    admitted: int = 0
    rejected_reads: int = 0
    rejected_writes: int = 0
    rejected_draining: int = 0
    peak_inflight: int = 0

    @property
    def rejected(self) -> int:
        return (self.rejected_reads + self.rejected_writes
                + self.rejected_draining)


class AdmissionController:
    """Bounded concurrent admission; sheds reads before writes."""

    def __init__(
        self,
        *,
        max_inflight: int = 64,
        read_shed_fraction: float = 0.75,
        retry_after_ms: float = 50.0,
    ) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if not 0.0 < read_shed_fraction <= 1.0:
            raise ValueError("read_shed_fraction must be in (0, 1]")
        self.max_inflight = max_inflight
        # ceil-like: a budget of 4 at 0.75 sheds reads from the 3rd slot.
        self.read_high_water = max(1, int(max_inflight * read_shed_fraction))
        self.retry_after_ms = retry_after_ms
        self.stats = AdmissionStats()
        self.draining = False
        self._mu = threading.Lock()
        self._inflight = 0

    @property
    def inflight(self) -> int:
        return self._inflight

    def _hint_ms(self) -> float:
        # Scale the hint with saturation so herds spread out: an exactly-
        # full service says "come back in one budget-drain", a drain says
        # "come back after the restart".  Deterministic (no jitter here —
        # the client adds seeded jitter from its RetryPolicy).
        load = self._inflight / self.max_inflight
        return round(self.retry_after_ms * (1.0 + load), 3)

    def try_admit(self, kind: str) -> None:
        """Admit a request of ``kind`` ("read" or "write") or raise.

        Every successful admit must be paired with one :meth:`release`.
        """
        with self._mu:
            if self.draining:
                self.stats.rejected_draining += 1
                raise ServiceOverloadedError(
                    "service is draining; no new requests",
                    retry_after_ms=self._hint_ms(),
                    shed_kind=kind,
                )
            limit = (
                self.read_high_water if kind == "read" else self.max_inflight
            )
            if self._inflight >= limit:
                if kind == "read":
                    self.stats.rejected_reads += 1
                else:
                    self.stats.rejected_writes += 1
                raise ServiceOverloadedError(
                    f"service saturated ({self._inflight} in flight, "
                    f"{kind} limit {limit})",
                    retry_after_ms=self._hint_ms(),
                    shed_kind=kind,
                )
            self._inflight += 1
            self.stats.admitted += 1
            if self._inflight > self.stats.peak_inflight:
                self.stats.peak_inflight = self._inflight

    def release(self) -> None:
        with self._mu:
            assert self._inflight > 0, "release without admit"
            self._inflight -= 1

    def begin_drain(self) -> None:
        with self._mu:
            self.draining = True
