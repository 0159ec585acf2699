"""Online resilience: degraded-mode I/O, retries, failover, hot-spare rebuild.

The paper's §5 treats failures as an offline concern — detect, then
restore from backup, shadow, or parity. This package keeps the file
system *serving* through the failure:

* :class:`~repro.resilience.volume.ResilientVolume` — the data-plane
  protocol with transparent retries, on-the-fly reconstruction of a dead
  device's reads, and journaled degraded writes;
* :class:`~repro.resilience.retry.RetryPolicy` — bounded attempts with
  exponential backoff + deterministic jitter for transient device errors;
* :class:`~repro.resilience.failover.FailoverManager` — I/O-node crash
  handling: device re-routing, request salvage + replay, circuit-breaker
  quarantine of repeatedly failing nodes;
* :class:`~repro.resilience.rebuild.HotSpareRebuilder` — background
  reconstruction of a failed device onto a spare, with a throttle knob
  trading MTTR against foreground throughput (claim X7);
* :class:`~repro.resilience.config.ResilienceConfig` — the single opt-in
  knob bag threaded through ``build_parallel_fs(..., resilience=...)``.
"""

from .config import ResilienceConfig
from .failover import CircuitBreaker, FailoverManager, NodeFaultInjector
from .journal import JournalEntry, WriteJournal
from .rebuild import HotSpareRebuilder
from .retry import RetriedOp, RetryError, RetryPolicy, retrying
from .stats import ResilienceStats
from .volume import ResilientVolume

__all__ = [
    "CircuitBreaker",
    "FailoverManager",
    "HotSpareRebuilder",
    "JournalEntry",
    "NodeFaultInjector",
    "ResilienceConfig",
    "ResilienceStats",
    "ResilientVolume",
    "RetriedOp",
    "RetryError",
    "RetryPolicy",
    "WriteJournal",
    "retrying",
]
