"""Configuration for the multi-tenant QoS subsystem.

One frozen dataclass, mirroring :class:`~repro.resilience.ResilienceConfig`:
construct it once, hand it to ``build_parallel_fs(..., qos=...)``, and
every knob is validated up front.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["QoSConfig"]

_SCHEDULERS = ("wfq", "fifo")


@dataclass(frozen=True)
class QoSConfig:
    """Knobs for the QoS layer (scheduling and starvation detection).

    ``scheduler`` picks the queue discipline installed on devices and
    I/O-node inboxes: ``"wfq"`` (virtual-time weighted fair queueing) or
    ``"fifo"`` (arrival order — tenant accounting without reordering).
    ``starvation_threshold`` is how many later-arriving requests may be
    served past a waiting one before the sanitizer flags starvation. The
    scheduler goes on every data drive and every I/O-node inbox of the
    stack.
    """

    scheduler: str = "wfq"
    starvation_threshold: int = 128

    def __post_init__(self) -> None:
        if self.scheduler not in _SCHEDULERS:
            raise ValueError(
                f"scheduler {self.scheduler!r} not one of {_SCHEDULERS}"
            )
        if self.starvation_threshold < 1:
            raise ValueError("starvation_threshold must be >= 1")
