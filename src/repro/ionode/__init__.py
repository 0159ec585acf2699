"""Dedicated I/O-node subsystem: client/server request routing (§4).

Crockett names dedicated I/O processors as a first-class implementation
strategy: compute processes hand their requests to processors whose only
job is buffering and device service. This package is that tier, as a
simulated client/server architecture:

* :class:`Interconnect` — the latency + bandwidth cost of each
  client <-> node message (mirrors the two-phase collective's model);
* :class:`IONode` — one server process: bounded admission queue, batch
  service loop, request aggregation (coalescing + data sieving), and an
  optional shared :class:`ServerCache`;
* :class:`DeviceRouter` / :class:`IONodeCluster` — the routing layer
  mapping a volume's device set onto nodes;
* :class:`MediatedVolume` — the standard volume surface with data traffic
  routed through the cluster, which is what
  ``ParallelFileSystem(..., io_nodes=...)`` installs.

Every file organization (S/PS/IS/SS/GDA/PDA) runs unchanged over either
path; the ``x6_io_nodes`` claim in ``benchmarks/claims/`` measures the
trade.
"""

from .aggregator import ReadPlan, Run, WriteOp, coalesce, plan_reads, plan_writes
from .cache import ServerCache
from .interconnect import Interconnect
from .node import IONode, NodeRequest
from .routing import DeviceRouter, IONodeCluster, MediatedVolume

__all__ = [
    "ReadPlan",
    "Run",
    "WriteOp",
    "coalesce",
    "plan_reads",
    "plan_writes",
    "ServerCache",
    "Interconnect",
    "IONode",
    "NodeRequest",
    "DeviceRouter",
    "IONodeCluster",
    "MediatedVolume",
]
