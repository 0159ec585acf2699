"""Configuration for the I/O-node tier.

One frozen dataclass, mirroring :class:`~repro.resilience.ResilienceConfig`
and :class:`~repro.qos.QoSConfig`; ``DeviceRouter`` and ``IONode`` check
the ranges where they use the values.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["IONodeConfig"]


@dataclass(frozen=True)
class IONodeConfig:
    """One knob object for ``build_parallel_fs(..., io_nodes=...)``.

    ``nodes`` servers share the volume's devices in contiguous bands.
    Every node gets an inbox of ``queue_depth`` requests, drains up to
    ``batch_limit`` per round, sieves reads within the aggregator's
    default bounds, and caches ``cache_blocks`` blocks of
    ``cache_block_bytes`` (0 = no cache).
    """

    nodes: int
    queue_depth: int = 16
    batch_limit: int = 8
    cache_blocks: int = 0
    cache_block_bytes: int = 4096
