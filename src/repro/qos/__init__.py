"""Multi-tenant quality of service for the parallel file system.

Crockett (§4) delegates device arbitration to dedicated I/O processors
but leaves the arbitration *policy* open; every queue in this codebase was
plain FIFO, so one greedy client could monopolize a device or an I/O node
indefinitely. This package adds the policy layer:

* :class:`QoSClass` / :class:`Tenant` — service contracts (weight,
  deadline, rate limit) and per-tenant backpressure accounting
  (blocked at admission vs queued vs in service);
* :class:`WeightedFairQueue` — virtual-time weighted fair queueing with
  deterministic FIFO tie-breaks, plus EDF and FIFO modes — pluggable into
  device controllers (:class:`QoSDevicePolicy`) and I/O-node inboxes
  (:class:`TenantStore`);
* :class:`TokenBucket` — admission throttling at the client boundary;
* :class:`QoSManager` — the per-file-system registry tying it together,
  wired to the engine sanitizer for starvation / over-rate /
  deadline-miss detection.

Opt in via ``build_parallel_fs(..., qos=QoSConfig(...))`` or
``ParallelFileSystem.attach_qos``; composes with ``io_nodes=`` and
``resilience=`` (see ``docs/QOS.md`` for the composition rules).
"""

from .bucket import TokenBucket
from .config import QoSConfig
from .manager import QoSManager
from .scheduler import QoSDevicePolicy, QoSTag, TenantStore, WeightedFairQueue
from .tenant import QoSClass, Tenant

__all__ = [
    "QoSConfig",
    "QoSClass",
    "Tenant",
    "TokenBucket",
    "QoSTag",
    "WeightedFairQueue",
    "QoSDevicePolicy",
    "TenantStore",
    "QoSManager",
]
