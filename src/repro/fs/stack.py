"""The stack builder: the only code that assembles a simulated file system.

Layers go together bottom up in one fixed order. Each is built over the
ones below it, and simulated processes take event ids as they are built,
so the order is part of every pinned schedule:

1. the QoS manager (it schedules nothing);
2. the data drives, each with its QoS scheduler under a manager;
3. the volume;
4. the I/O-node cluster, each node's inbox scheduled by the manager;
5. the check drives, then the hot spares;
6. the resilience layer, its rebuilder, the node-failover manager and
   the check drives' failure hooks;
7. the batching flag, ``volume.coalesce``.
"""

from __future__ import annotations

from ..devices.controller import DeviceController
from ..devices.disk import WREN_1989, DiskGeometry, DiskModel, DiskTiming
from ..devices.scheduling import make_policy
from ..ionode.config import IONodeConfig
from ..ionode.routing import IONodeCluster
from ..qos import QoSConfig, QoSDevicePolicy, QoSManager
from ..resilience import (
    FailoverManager,
    HotSpareRebuilder,
    ResilienceConfig,
    ResilientVolume,
)
from ..sim.engine import Environment
from ..storage.parity import ParityGroup
from ..storage.volume import Volume
from ..trace.events import TraceRecorder
from .pfs import ParallelFileSystem

__all__ = ["build_parallel_fs"]


def build_parallel_fs(
    env: Environment,
    n_devices: int,
    timing: DiskTiming = WREN_1989,
    geometry: DiskGeometry | None = None,
    recorder: TraceRecorder | None = None,
    scheduling: str | None = None,
    io_nodes: IONodeConfig | int | None = None,
    resilience: ResilienceConfig | None = None,
    qos: QoSConfig | None = None,
    batch_io: bool = False,
) -> ParallelFileSystem:
    """A file system over ``n_devices`` identical drives.

    ``scheduling`` names the drives' queue policy (FCFS when omitted).
    ``io_nodes`` (an :class:`~repro.ionode.IONodeConfig`, or ``n`` for
    ``IONodeConfig(nodes=n)``) routes file data through I/O nodes.
    ``resilience`` (a :class:`~repro.resilience.ResilienceConfig`) stacks
    the resilience layer over the volume or the nodes. Its protection is
    one :class:`~repro.storage.ParityGroup` whose width follows from it:
    ``"parity"`` adds one check drive for all the data drives (width n),
    ``"shadow"`` one per data drive (width 1, a mirror). ``spares`` idle
    drives feed the hot-spare rebuilder. ``qos`` (a
    :class:`~repro.qos.QoSConfig`) schedules every data drive and node
    inbox by tenant; check drives and spares keep their policy.
    ``batch_io`` sets ``volume.coalesce``, the extent-batching flag every
    plane plans with (see ``docs/PERF.md``).
    """
    geo = geometry or DiskGeometry()
    manager = None if qos is None else QoSManager(env, qos)

    def make_disk(name: str, data: bool = False) -> DeviceController:
        policy = make_policy(scheduling) if scheduling else None
        if data and manager is not None:
            policy = QoSDevicePolicy(manager.make_scheduler(name), manager.resolve)
        return DeviceController(
            env,
            DiskModel(geo, timing),
            name=name,
            policy=policy,
        )

    devices = [make_disk(f"disk{i}", data=True) for i in range(n_devices)]
    volume = Volume(env, devices)

    if isinstance(io_nodes, int):
        io_nodes = IONodeConfig(nodes=io_nodes)
    cluster = None if io_nodes is None else IONodeCluster.build(env, devices, io_nodes, manager)

    rv = None
    if resilience is not None:
        group = None
        if resilience.protection is not None:
            groups = 1 if resilience.protection == "parity" else n_devices
            checks = [
                make_disk("parity" if groups == 1 else f"parity{k}") for k in range(groups)
            ]
            group = ParityGroup(env, devices, checks, parity_unit=resilience.parity_unit)
        spares = [make_disk(f"spare{k}") for k in range(resilience.spares)]
        rv = ResilientVolume(volume, cluster, group=group, config=resilience)
        if spares:
            rv.rebuilder = HotSpareRebuilder(
                rv, spares,
                chunk_bytes=resilience.rebuild_chunk,
                throttle=resilience.rebuild_throttle,
            )
        if cluster is not None:
            # registers itself as the cluster's failover manager
            FailoverManager(
                env, cluster, rv.stats,
                breaker_threshold=resilience.breaker_threshold,
                breaker_cooldown=resilience.breaker_cooldown,
            )
        # no data request reaches a check drive, so it reports its own death
        if group is not None:
            for k, check in enumerate(group.check_devices):
                check.on_fail = lambda i=n_devices + k: rv._note_failure(i)

    volume.coalesce = batch_io
    return ParallelFileSystem(
        env, volume, recorder=recorder, io_cluster=cluster, resilience=rv, qos=manager
    )
