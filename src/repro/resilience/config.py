"""Configuration for the opt-in resilience layer."""

from __future__ import annotations

from dataclasses import dataclass, field

from .retry import RetryPolicy

__all__ = ["ResilienceConfig"]


@dataclass(frozen=True)
class ResilienceConfig:
    """One knob object for ``build_parallel_fs(..., resilience=...)``.

    ``protection`` picks the §5 redundancy scheme the volume is built
    with. Both are one :class:`~repro.storage.parity.ParityGroup` code,
    and the scheme sets its group width: ``"parity"`` is one check drive
    for all n data drives (width n, Kim-style), ``"shadow"`` one per data
    drive (width 1: the XOR of one unit is a copy, so every drive is
    mirrored). ``None`` keeps the retry/failover machinery only — no
    reconstruction possible.

    ``parity_mode`` is the discipline of a write that does not cover a
    group's row (at width 1 every write does, so it never applies):
    ``"rmw"`` keeps parity fresh through independent writes (two extra
    transfers per write); ``"synchronized"`` maintains parity only on
    full-stripe writes, so independent PS/IS writes leave stale units —
    the paper's claim, surfaced as ``StaleParityError`` on any later
    degraded read over them.

    ``rebuild_throttle`` paces the hot-spare rebuild: after each copied
    chunk the rebuilder idles ``throttle × chunk_time``, trading MTTR for
    foreground bandwidth (0 = rebuild flat out).

    Over I/O nodes the layer always gets a node-failover manager;
    ``breaker_threshold`` / ``breaker_cooldown`` tune its circuit breakers.
    """

    protection: str | None = "parity"
    parity_mode: str = "rmw"
    parity_unit: int = 4096
    retry: RetryPolicy | None = field(default_factory=RetryPolicy)
    spares: int = 1
    rebuild_chunk: int = 1 << 16
    rebuild_throttle: float = 0.0
    auto_rebuild: bool = False
    breaker_threshold: int = 3
    breaker_cooldown: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.protection not in (None, "parity", "shadow"):
            raise ValueError(f"unknown protection {self.protection!r}")
        if self.parity_mode not in ("synchronized", "rmw"):
            raise ValueError(f"unknown parity mode {self.parity_mode!r}")
        if self.parity_unit < 1:
            raise ValueError("parity_unit must be >= 1")
        if self.spares < 0:
            raise ValueError("spares must be >= 0")
        if self.rebuild_chunk < 1:
            raise ValueError("rebuild_chunk must be >= 1")
        if self.rebuild_throttle < 0:
            raise ValueError("rebuild_throttle must be >= 0")
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        if self.breaker_cooldown < 0:
            raise ValueError("breaker_cooldown must be >= 0")
