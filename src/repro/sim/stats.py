"""Statistics collection for simulation runs.

Collectors here are deliberately simple and allocation-light: benchmarks run
millions of simulated events and the guides for this domain insist on
measuring before optimizing — so the collectors themselves must not be the
bottleneck.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = [
    "Tally",
    "PercentileTally",
    "TimeWeighted",
    "UtilizationTracker",
    "summary",
]


class Tally:
    """Running mean/variance/min/max of observed samples (Welford)."""

    __slots__ = ("count", "_mean", "_m2", "min", "max", "total")

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.total = 0.0

    def observe(self, x: float) -> None:
        """Fold one sample into the running statistics."""
        self.count += 1
        self.total += x
        delta = x - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (x - self._mean)
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    @property
    def mean(self) -> float:
        return self._mean if self.count else math.nan

    @property
    def variance(self) -> float:
        """Sample variance (n-1 denominator)."""
        if self.count < 2:
            return math.nan
        return self._m2 / (self.count - 1)

    def merge(self, other: "Tally") -> "Tally":
        """Combine two tallies (parallel Welford merge)."""
        out = Tally()
        if self.count == 0:
            out.count, out._mean, out._m2 = other.count, other._mean, other._m2
            out.min, out.max, out.total = other.min, other.max, other.total
            return out
        if other.count == 0:
            out.count, out._mean, out._m2 = self.count, self._mean, self._m2
            out.min, out.max, out.total = self.min, self.max, self.total
            return out
        n = self.count + other.count
        delta = other._mean - self._mean
        out.count = n
        out._mean = self._mean + delta * other.count / n
        out._m2 = (
            self._m2
            + other._m2
            + delta * delta * self.count * other.count / n
        )
        out.min = min(self.min, other.min)
        out.max = max(self.max, other.max)
        out.total = self.total + other.total
        return out


class PercentileTally(Tally):
    """A :class:`Tally` that also keeps raw samples for percentile queries.

    Used where order statistics matter (queue-wait distributions): the
    time-weighted mean hides tail latency, and tails are exactly what QoS
    scheduling is supposed to bound. Samples are kept unsorted and sorted
    lazily on first percentile query after new data.

    By default every sample is retained, which is exact but unbounded for
    long-running simulations. Pass ``reservoir=k`` to cap memory at ``k``
    samples using Vitter's Algorithm R: each of the ``count`` observations
    ends up in the reservoir with equal probability ``k/count``, so
    percentiles stay unbiased estimates. The sampler draws from ``rng`` (a
    ``numpy`` Generator, an int seed, or a named stream from
    :class:`~repro.sim.rng.RngStreams`) so runs remain deterministic;
    ``mean``/``variance``/``min``/``max`` stay exact either way.
    """

    __slots__ = ("_samples", "_sorted", "_reservoir", "_rng")

    def __init__(self, reservoir: int | None = None, rng: Any = None) -> None:
        super().__init__()
        if reservoir is not None:
            if reservoir < 1:
                raise ValueError(f"reservoir size {reservoir} must be >= 1")
            if rng is None:
                rng = 0
            if not hasattr(rng, "integers"):
                rng = np.random.default_rng(rng)
        self._samples: list[float] = []
        self._sorted = True
        self._reservoir = reservoir
        self._rng = rng

    def observe(self, x: float) -> None:
        """Fold one sample in and retain it for percentile queries."""
        super().observe(x)
        k = self._reservoir
        if k is None or len(self._samples) < k:
            self._samples.append(x)
        else:
            # Algorithm R: keep slot j with probability k/count.
            j = int(self._rng.integers(0, self.count))
            if j < k:
                self._samples[j] = x
        self._sorted = False

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0 <= q <= 100), linear interpolation."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile {q} outside [0, 100]")
        if not self._samples:
            return math.nan
        if not self._sorted:
            self._samples.sort()
            self._sorted = True
        samples = self._samples
        if len(samples) == 1:
            return samples[0]
        pos = (q / 100.0) * (len(samples) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(samples) - 1)
        frac = pos - lo
        return samples[lo] * (1.0 - frac) + samples[hi] * frac


class TimeWeighted:
    """Time-weighted average of a piecewise-constant signal (e.g. queue length)."""

    __slots__ = ("_t0", "_last_t", "_last_v", "_area", "max")

    def __init__(self, t0: float = 0.0, initial: float = 0.0):
        self._t0 = t0
        self._last_t = t0
        self._last_v = float(initial)
        self._area = 0.0
        self.max = float(initial)

    def record(self, t: float, value: float) -> None:
        """The signal changed to ``value`` at time ``t``."""
        if t < self._last_t:
            raise ValueError("time went backwards")
        self._area += self._last_v * (t - self._last_t)
        self._last_t = t
        self._last_v = float(value)
        if value > self.max:
            self.max = float(value)

    def mean(self, now: float) -> float:
        """Time-average over [t0, now]."""
        if now < self._last_t:
            raise ValueError("now precedes last record")
        span = now - self._t0
        if span <= 0:
            return self._last_v
        return (self._area + self._last_v * (now - self._last_t)) / span

    @property
    def current(self) -> float:
        return self._last_v


class UtilizationTracker:
    """Fraction of time a server (disk arm, channel) was busy."""

    __slots__ = ("_busy_since", "_busy_total", "_t0")

    def __init__(self, t0: float = 0.0):
        self._t0 = t0
        self._busy_since: float | None = None
        self._busy_total = 0.0

    def busy(self, t: float) -> None:
        """The server became busy at time ``t`` (idempotent)."""
        if self._busy_since is None:
            self._busy_since = t

    def idle(self, t: float) -> None:
        """The server went idle at time ``t`` (idempotent)."""
        if self._busy_since is not None:
            self._busy_total += t - self._busy_since
            self._busy_since = None

    def utilization(self, now: float) -> float:
        """Busy fraction over [t0, now]."""
        busy = self._busy_total
        if self._busy_since is not None:
            busy += now - self._busy_since
        span = now - self._t0
        return busy / span if span > 0 else 0.0


@dataclass
class summary:
    """A labelled scalar result row, printable in benchmark reports."""

    label: str
    value: float
    unit: str = ""
    extra: dict = field(default_factory=dict)

    def __str__(self) -> str:
        s = f"{self.label:<44s} {self.value:>12.4g} {self.unit}"
        if self.extra:
            s += "  " + " ".join(f"{k}={v}" for k, v in self.extra.items())
        return s
