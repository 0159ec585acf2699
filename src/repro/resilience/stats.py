"""Counters and latency tallies for the resilience layer."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..sim.stats import Tally
from .retry import RetriedOp

__all__ = ["ResilienceStats"]


@dataclass
class ResilienceStats:
    """What the resilience layer did during a run.

    Rendered by :func:`repro.trace.report.resilience_report`; the MTTR
    samples plug straight into
    :func:`repro.reliability.montecarlo.simulate_protected_fleet` as its
    ``mttr_hours`` input.
    """

    degraded_reads: int = 0
    degraded_writes: int = 0
    reconstructed_bytes: int = 0
    journaled_writes: int = 0
    replayed_writes: int = 0
    retried_ops: int = 0          # ops that needed at least one retry
    retry_attempts: int = 0       # re-attempts beyond each op's first try
    retries_exhausted: int = 0
    failovers: int = 0            # node failovers performed
    migrated_requests: int = 0    # requests salvaged across a failover
    quarantined_nodes: int = 0    # circuit-breaker trips
    rebuilds_started: int = 0
    rebuilds_completed: int = 0
    rebuild_bytes: int = 0
    #: degraded-read service time (submit -> reassembled), seconds
    degraded_read_latency: Tally = field(default_factory=Tally)
    #: failure-detected -> spare-swapped, seconds (one sample per rebuild)
    rebuild_times: list[float] = field(default_factory=list)

    def counters(self) -> dict[str, int]:
        """Plain-int snapshot of every counter field.

        Diff two snapshots to attribute activity to one operation — e.g.
        :func:`repro.container.verify.fsck` subtracts the snapshot taken
        before its read pass to report how many of its reads ran
        degraded and how many bytes parity reconstruction supplied.
        """
        return {
            name: getattr(self, name)
            for name in (
                "degraded_reads",
                "degraded_writes",
                "reconstructed_bytes",
                "journaled_writes",
                "replayed_writes",
                "retried_ops",
                "retry_attempts",
                "retries_exhausted",
                "failovers",
                "migrated_requests",
                "quarantined_nodes",
                "rebuilds_started",
                "rebuilds_completed",
                "rebuild_bytes",
            )
        }

    def note_retry(self, op: RetriedOp) -> None:
        """Fold one completed :class:`RetriedOp` into the counters."""
        if op.attempts > 1:
            self.retried_ops += 1
            self.retry_attempts += op.attempts - 1
        if op.gave_up:
            self.retries_exhausted += 1

    @property
    def mttr_seconds(self) -> float:
        """Mean time to repair over completed rebuilds (NaN if none)."""
        if not self.rebuild_times:
            return math.nan
        return sum(self.rebuild_times) / len(self.rebuild_times)
