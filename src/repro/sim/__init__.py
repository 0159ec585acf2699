"""Discrete-event simulation substrate.

The simulator stands in for the MIMD multiprocessor of Crockett (1989):
simulated processes play the application processes, simulated time plays
elapsed machine time. See DESIGN.md §2 for the substitution rationale.
"""

from .engine import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Op,
    Process,
    SimulationError,
    Timeout,
)
from .resources import Resource, Store
from .rng import RngStreams
from .stats import PercentileTally, Tally, TimeWeighted, UtilizationTracker
from .sync import SimBarrier, SimLock, SimSemaphore

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Op",
    "Process",
    "SimulationError",
    "Timeout",
    "Resource",
    "Store",
    "RngStreams",
    "PercentileTally",
    "Tally",
    "TimeWeighted",
    "UtilizationTracker",
    "SimBarrier",
    "SimLock",
    "SimSemaphore",
]
