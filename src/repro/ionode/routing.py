"""Routing: mapping an organization's device set onto I/O nodes.

The cluster layer binds everything together: a :class:`DeviceRouter`
assigns each device of a volume to exactly one :class:`~repro.ionode.
node.IONode`; a :class:`MediatedVolume` speaks the data-plane protocol
of :class:`~repro.storage.volume.Volume`, so :class:`~repro.fs.pfs.ParallelFile`
can run server-mediated without any change to the organizations above it
(the ``io_nodes=`` layer of :func:`~repro.fs.stack.build_parallel_fs`).

A file-level transfer maps to device segments exactly as in the direct
path; segments are then grouped per owning node and shipped as one
request message per node over the :class:`~repro.ionode.interconnect.
Interconnect` — so a strided access arrives at the node as a *batch* of
byte ranges, the shape the aggregator needs for coalescing and sieving.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from ..devices.controller import TransientIOError, as_payload
from ..sim.engine import Environment, Op
from ..storage.layout import plan_batch
from .config import IONodeConfig
from .interconnect import Interconnect
from .node import IONode

if TYPE_CHECKING:  # pragma: no cover
    from ..qos.manager import QoSManager
    from ..resilience.failover import FailoverManager
    from ..storage.layout import DataLayout, ExtentPlan
    from ..storage.volume import Extent, Volume

__all__ = ["DeviceRouter", "IONodeCluster", "MediatedVolume"]


class DeviceRouter:
    """Static assignment of device indices to node indices.

    Node ``i`` serves a contiguous band of devices (PS-friendly: a
    partition's device neighbourhood shares one server); failover may
    :meth:`reassign` single devices later.
    """

    def __init__(self, n_devices: int, n_nodes: int):
        if not 1 <= n_nodes <= n_devices:
            raise ValueError(
                f"need 1 <= n_nodes <= n_devices, got {n_nodes} nodes for "
                f"{n_devices} devices"
            )
        self.n_devices = n_devices
        self.n_nodes = n_nodes
        q, r = divmod(n_devices, n_nodes)
        self._map: list[int] = []
        for node in range(n_nodes):
            self._map.extend([node] * (q + (1 if node < r else 0)))

    def node_of(self, device: int) -> int:
        """Index of the node serving ``device``."""
        return self._map[device]

    def devices_of(self, node: int) -> list[int]:
        """The device indices assigned to ``node``."""
        return [d for d, n in enumerate(self._map) if n == node]

    def reassign(self, device: int, node: int) -> None:
        """Move ``device`` to ``node`` (failover re-routing).

        Takes effect for every request submitted after the call; requests
        already inside a node are the failover manager's to salvage.
        """
        if not 0 <= device < self.n_devices:
            raise ValueError(f"no such device {device}")
        if not 0 <= node < self.n_nodes:
            raise ValueError(f"no such node {node}")
        self._map[device] = node


class IONodeCluster:
    """A set of I/O nodes jointly serving one volume's devices."""

    def __init__(
        self,
        env: Environment,
        nodes: list[IONode],
        router: DeviceRouter,
    ):
        if len(nodes) != router.n_nodes:
            raise ValueError("router/node count mismatch")
        self.env = env
        self.nodes = list(nodes)
        self.router = router
        self.interconnect = Interconnect()
        #: the node-failover manager whose circuit breakers every client
        #: request feeds (a :class:`~repro.resilience.FailoverManager`
        #: registers itself here); None when no manager is attached
        self.failover: "FailoverManager | None" = None

    @classmethod
    def build(
        cls, env: Environment, devices: list[Any], config: IONodeConfig,
        qos: "QoSManager | None" = None,
    ) -> "IONodeCluster":
        """Build ``config.nodes`` nodes over ``devices`` (a volume's
        controllers) in contiguous bands, each serving with the config's
        queue, batching and cache settings; with a ``qos`` manager, each
        node's inbox is scheduled by tenant."""
        router = DeviceRouter(len(devices), config.nodes)
        nodes = [
            IONode(
                env,
                f"ion{i}",
                {d: devices[d] for d in router.devices_of(i)},
                queue_depth=config.queue_depth,
                batch_limit=config.batch_limit,
                cache_blocks=config.cache_blocks,
                cache_block_bytes=config.cache_block_bytes,
                qos=qos,
            )
            for i in range(config.nodes)
        ]
        return cls(env, nodes, router)

    def mediate(self, volume: "Volume") -> "MediatedVolume":
        """The data plane routing ``volume``'s traffic through this cluster."""
        return MediatedVolume(volume, self)

    def node_of(self, device: int) -> IONode:
        """The node serving ``device``."""
        return self.nodes[self.router.node_of(device)]

    def invalidate_device(self, device: int) -> None:
        """Drop any cached blocks of ``device`` (out-of-band mutation)."""
        node = self.node_of(device)
        if node.cache is not None:
            node.cache.invalidate_device(device)

    def assert_drained(self) -> None:
        """Raise unless every node has serviced everything it accepted."""
        for node in self.nodes:
            node.assert_drained()

    @property
    def total_device_requests(self) -> int:
        """Device operations issued by all nodes (reads + writes)."""
        return sum(n.device_reads + n.device_writes for n in self.nodes)

    # -- the one request path to the nodes -----------------------------------

    def owners(self, items: list[tuple[int, int, int]]) -> dict[int, list[int]]:
        """Indices of ``items`` grouped by their device's current node."""
        node_of = self.router.node_of
        per_node: dict[int, list[int]] = {}
        for idx, (dev, _, _) in enumerate(items):
            per_node.setdefault(node_of(dev), []).append(idx)
        return per_node

    def request(
        self,
        kind: str,
        items: list[tuple[int, int, int]],
        data: list[np.ndarray] | None = None,
    ):
        """Generator: ``items`` (``(device, offset, nbytes)``, with ``data``
        for writes) submitted to their devices' current owners.

        One sub-request per owning node, all submitted before any is
        awaited; every sub-request is drained, so no failure goes
        unobserved, and each outcome feeds that node's circuit breaker.
        Returns the per-item arrays of a read (``None`` per item of a
        write), or raises the first error seen. Client messages and
        failover replays both go through here.
        """
        subs = []
        for node_idx, slots in self.owners(items).items():
            part = None if data is None else [data[s] for s in slots]
            sub = self.nodes[node_idx].submit(kind, [items[s] for s in slots], part)
            subs.append((node_idx, slots, sub))
        values: list = [None] * len(items)
        error: BaseException | None = None
        for node_idx, slots, sub in subs:
            try:
                yield sub.admitted
                arrays = yield sub.event
            except Exception as exc:  # drain every sub so none goes unobserved
                # only a transient error is the node's fault, not a dead device
                if self.failover is not None and isinstance(exc, TransientIOError):
                    self.failover.note_request_failure(node_idx)
                if error is None:
                    error = exc
                continue
            if self.failover is not None:
                self.failover.note_request_success(node_idx)  # closes the breaker
            if kind == "read":
                for slot, arr in zip(slots, arrays):
                    values[slot] = arr
        if error is not None:
            raise error
        return values


class MediatedVolume:
    """A data plane routing file traffic through the I/O nodes.

    ``read``/``write`` become client/server interactions: one request
    message per touched node, admission control at the node inbox, reply
    payload over the interconnect. Requests are planned with the volume's
    ``coalesce`` flag, so merged runs are grouped per node as fewer,
    larger items. Allocation and zero-time inspection stay on the volume
    (management plane); :meth:`poke` here also invalidates node caches.
    """

    def __init__(self, volume: "Volume", cluster: IONodeCluster):
        if cluster.router.n_devices != volume.n_devices:
            raise ValueError(
                f"cluster routes {cluster.router.n_devices} devices, volume "
                f"has {volume.n_devices}"
            )
        self.volume = volume
        self.env: Environment = volume.env
        self.cluster = cluster

    def poke(self, extent: "Extent", layout: "DataLayout", offset: int, data: Any) -> None:
        """Zero-time write; invalidates node caches over the touched devices."""
        arr = as_payload(data)
        self.volume.poke(extent, layout, offset, arr)
        for dev, _, _, _ in plan_batch(layout, [(offset, arr.size)], coalesce=True).requests:
            self.cluster.invalidate_device(dev)

    # -- server-mediated data plane ------------------------------------------

    def read(
        self, extent: "Extent", layout: "DataLayout", ranges: list[tuple[int, int]]
    ) -> Op:
        """List-I/O read over the nodes: one message per node for the
        whole batch of ``(offset, nbytes)`` ranges. Value is the single
        concatenated uint8 array, ranges in list order."""
        plan = plan_batch(layout, ranges, coalesce=self.volume.coalesce, extent=extent)
        groups: list[list[int]] = []

        def submit():
            # owners are read at the op's start slot, as a process would
            items = self._items(extent, plan)
            groups[:] = self.cluster.owners(items).values()
            return [
                self.env.process(self._client_read([items[i] for i in idxs]))
                for idxs in groups
            ]

        def finish(per_group: list) -> np.ndarray:
            values: list = [None] * len(plan.requests)
            for idxs, arrays in zip(groups, per_group):
                for idx, arr in zip(idxs, arrays):
                    values[idx] = arr
            return plan.assemble(values)

        return self.env.join(submit, finish)

    def write(
        self,
        extent: "Extent",
        layout: "DataLayout",
        ranges: list[tuple[int, int]],
        data: Any,
    ) -> Op:
        """List-I/O write: ``data`` is the concatenation of all ranges;
        the value is the byte count."""
        arr = as_payload(data)
        plan = plan_batch(layout, ranges, coalesce=self.volume.coalesce, extent=extent)
        if plan.nbytes != arr.size:
            raise ValueError(f"ranges cover {plan.nbytes} bytes, data has {arr.size}")
        size = int(arr.size)

        def submit():
            items = self._items(extent, plan)
            chunks = plan.payloads(arr)
            return [
                self.env.process(
                    self._client_write([items[i] for i in idxs], [chunks[i] for i in idxs])
                )
                for idxs in self.cluster.owners(items).values()
            ]

        return self.env.join(submit, lambda _: size)

    @staticmethod
    def _items(extent: "Extent", plan: "ExtentPlan") -> list[tuple[int, int, int]]:
        """The plan's requests as ``(device, absolute offset, nbytes)``."""
        bases = extent.bases
        return [(dev, bases[dev] + off, n) for dev, off, n, _ in plan.requests]

    def _client_read(self, items: list[tuple[int, int, int]]):
        """One read message: ``items`` to the nodes, the per-item arrays back.

        This is the one client read path to the nodes: the resilience
        layer's per-device requests are this with a single item. Owners
        are resolved only *after* the request-message flight (in
        :meth:`IONodeCluster.request`): a node crash (or breaker
        quarantine) during that window re-routes its devices, and the
        items must land at each device's current owner instead of
        hitting the corpse and failing the client I/O.
        """
        ic = self.cluster.interconnect
        yield self.env.sleep(ic.request_cost())
        arrays = yield from self.cluster.request("read", items)
        yield self.env.sleep(ic.transfer_cost(sum(n for _, _, n in items)))
        return arrays

    def _client_write(self, items: list[tuple[int, int, int]], chunks: list):
        """One write message's worth of items (see :meth:`_client_read`)."""
        ic = self.cluster.interconnect
        payload = sum(n for _, _, n in items)
        yield self.env.sleep(ic.transfer_cost(payload))
        yield from self.cluster.request("write", items, chunks)
        yield self.env.sleep(ic.request_cost())
        return payload
