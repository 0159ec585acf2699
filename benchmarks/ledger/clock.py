"""Timed regions: the only places a pass is measured (and, in a traced
pass, the only places the profiler is on)."""

from __future__ import annotations

import time
from contextlib import contextmanager


class RegionClock:
    """Accumulates host seconds per named region of one pass.

    ``profiler`` (a ``cProfile.Profile``) is enabled exactly for the
    duration of each region when given, so the per-layer table covers
    the same code the wall-clock numbers do and nothing else.
    """

    def __init__(self, profiler=None):
        self.profiler = profiler
        self.seconds: dict[str, float] = {}

    @contextmanager
    def region(self, name: str):
        prof = self.profiler
        if prof is not None:
            prof.enable()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            if prof is not None:
                prof.disable()
            self.seconds[name] = self.seconds.get(name, 0.0) + dt

    def total(self, name: str) -> float:
        return self.seconds.get(name, 0.0)
