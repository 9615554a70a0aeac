"""Order statistics and the in-run speed control."""

from __future__ import annotations

import copy
import math
import random
import statistics
import struct
import time

MIN_BEYOND = 10    # samples that must lie beyond a reported percentile


class TooFewSamples(ValueError):
    """The sample cannot support the percentile asked for."""


def percentile(samples, p: float) -> float:
    """Nearest-rank ``p``-th percentile of ``samples``.

    Refused unless at least :data:`MIN_BEYOND` samples lie beyond it, so a
    p99 needs 1,000 samples and a median needs 20.
    """
    n = len(samples)
    rank = max(1, math.ceil(p / 100.0 * n))
    if min(rank, n - rank) < MIN_BEYOND:
        raise TooFewSamples(f"p{p:g} of {n} samples")
    return sorted(samples)[rank - 1]


def summarize(values) -> dict:
    """Median and quartiles of one metric's per-repetition values."""
    values = list(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "value": statistics.median(values), "q1": q1, "q3": q3,
        "n": len(values), "values": values,
    }


def spread(summary: dict) -> float:
    """Interquartile distance as a share of the median."""
    return abs(summary["q3"] - summary["q1"]) / abs(summary["value"])


class Calibrator:
    """The in-run control: a fixed pure-Python kernel timed between ops.

    This sandbox's speed drifts by up to 2x over minutes, so a time read
    off the clock says as much about the neighbours as about the program.
    The runner therefore runs one ~0.2 ms *slice* of this kernel every few
    milliseconds of a repetition, on the thread doing the work, and divides
    the repetition's times by how much slower than :data:`REF_S` the slices
    ran (``wall_x`` for wall-clock times, ``cpu_x`` for CPU time).  The
    kernel mixes what the engine does all day -- byte slicing, struct
    unpacking, lookups in a dict too big for the cache -- because a kernel
    that only computes tracks the engine's slowdowns half as well.
    """

    REF_S = 215e-6          # a slice on this sandbox on a quiet day
    PERIOD_S = 4e-3         # the runner takes a slice this often

    def __init__(self) -> None:
        self._buf = random.Random(0).randbytes(1 << 20)
        self._big = {i: (i, str(i)) for i in range(60_000)}
        self._unpack = struct.Struct(">IHH").unpack_from
        self._j = 1
        self.wall_s = self.cpu_s = 0.0
        self.slices = 0

    def fork(self) -> "Calibrator":
        """A calibrator with its own tallies on the same (read-only) data."""
        other = copy.copy(self)
        other.wall_s = other.cpu_s = 0.0
        other.slices = 0
        return other

    def slice(self) -> None:
        cpu, start = time.thread_time(), time.perf_counter()
        buf, big, unpack, j = self._buf, self._big, self._unpack, self._j
        acc = 0
        for _ in range(150):
            j = (j * 1103515245 + 12345) & 0x7FFFFFFF
            off = j % ((1 << 20) - 64)
            a, b, _c = unpack(buf, off)
            chunk = buf[off:off + 48]
            value = big[(a ^ j) % 60_000]
            acc += len(chunk) + b + value[0] + len(value[1])
        self._j = j
        self.wall_s += time.perf_counter() - start
        self.cpu_s += time.thread_time() - cpu
        self.slices += 1

    def burst(self, slices: int = 5) -> None:
        for _ in range(slices):
            self.slice()

    @property
    def wall_x(self) -> float:
        return self.wall_s / self.slices / self.REF_S

    @property
    def cpu_x(self) -> float:
        return self.cpu_s / self.slices / self.REF_S
