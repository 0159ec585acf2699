"""Configuration for the multi-tenant QoS subsystem.

One frozen dataclass, mirroring :class:`~repro.resilience.ResilienceConfig`:
construct it once, hand it to ``build_parallel_fs(..., qos=...)``, and
every knob is validated up front.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["QoSConfig"]

_SCHEDULERS = ("wfq", "edf", "fifo")


@dataclass(frozen=True)
class QoSConfig:
    """Knobs for the QoS layer (scheduling, throttling, detection).

    ``scheduler`` picks the queue discipline installed on devices and
    I/O-node inboxes: ``"wfq"`` (virtual-time weighted fair queueing),
    ``"edf"`` (earliest deadline first), or ``"fifo"`` (arrival order —
    tenant accounting without reordering). ``default_weight`` is the
    weight of the implicit tenant untagged work is billed to.
    ``starvation_threshold`` is how many later-arriving requests may be
    served past a waiting one before the sanitizer flags starvation.
    ``strict_deadlines`` escalates deadline misses from per-tenant
    counters to sanitizer violations. The scheduler goes on every data
    drive and every I/O-node inbox of the stack.
    """

    scheduler: str = "wfq"
    default_weight: float = 1.0
    starvation_threshold: int = 128
    strict_deadlines: bool = False

    def __post_init__(self) -> None:
        if self.scheduler not in _SCHEDULERS:
            raise ValueError(
                f"scheduler {self.scheduler!r} not one of {_SCHEDULERS}"
            )
        if self.default_weight <= 0:
            raise ValueError("default_weight must be positive")
        if self.starvation_threshold < 1:
            raise ValueError("starvation_threshold must be >= 1")
