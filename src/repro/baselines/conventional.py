"""Conventional single-device file system — the speedup reference point.

Every striping/interleaving speedup in the benchmarks is reported relative
to the same file on ONE device of the same type, which is what 1989
systems without parallel I/O offered.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..devices.controller import DeviceController
from ..devices.disk import WREN_1989, DiskGeometry, DiskModel, DiskTiming
from ..fs.pfs import ParallelFileSystem
from ..sim.engine import Environment
from ..storage.volume import Volume
from ..trace.events import TraceRecorder

if TYPE_CHECKING:  # pragma: no cover
    from ..qos.config import QoSConfig
    from ..resilience.config import ResilienceConfig

__all__ = ["build_parallel_fs", "single_device_fs"]


def build_parallel_fs(
    env: Environment,
    n_devices: int,
    timing: DiskTiming = WREN_1989,
    geometry: DiskGeometry | None = None,
    recorder: TraceRecorder | None = None,
    scheduling: str | None = None,
    io_nodes: int | None = None,
    resilience: "ResilienceConfig | None" = None,
    qos: "QoSConfig | None" = None,
    batch_io: bool = False,
) -> ParallelFileSystem:
    """A file system over ``n_devices`` identical drives.

    ``io_nodes`` (a node count) opts the file system into the
    server-mediated data plane of :mod:`repro.ionode`.

    ``qos`` (a :class:`~repro.qos.QoSConfig`) opts into the multi-tenant
    QoS layer: tenant-aware scheduling on every device and I/O-node
    inbox, token-bucket admission throttling, and per-tenant
    backpressure accounting.

    ``batch_io=True`` turns on extent-batched (list-I/O) submission —
    see :meth:`~repro.fs.pfs.ParallelFileSystem.set_batching` and
    ``docs/PERF.md``.

    ``resilience`` (a :class:`~repro.resilience.ResilienceConfig`) opts
    into the online resilience layer: ``protection="parity"`` adds one
    check drive and a :class:`~repro.storage.parity.ParityGroup` over the
    data drives, ``protection="shadow"`` mirrors every drive into a
    :class:`~repro.devices.ShadowPair`; ``spares`` idle drives are built
    for the hot-spare rebuilder either way. The layer runs over the I/O
    nodes when ``io_nodes`` is given, and the file system's
    ``resilience`` attribute exposes its stats/journal/rebuilder.

    The layers attach in the one order the file system accepts: I/O
    nodes, then resilience, then QoS.
    """
    from ..devices.scheduling import make_policy

    geo = geometry or DiskGeometry()

    def make_disk(name: str) -> DeviceController:
        return DeviceController(
            env,
            DiskModel(geo, timing),
            name=name,
            policy=make_policy(scheduling) if scheduling else None,
        )

    devices: list = [make_disk(f"disk{i}") for i in range(n_devices)]
    group = None
    if resilience is not None and resilience.protection == "shadow":
        from ..devices.shadow import ShadowPair

        devices = [
            ShadowPair(env, dev, make_disk(f"{dev.name}s")) for dev in devices
        ]
    pfs = ParallelFileSystem(
        env, Volume(env, devices), recorder=recorder, io_nodes=io_nodes
    )
    if resilience is not None:
        if resilience.protection == "parity":
            from ..storage.parity import ParityGroup

            group = ParityGroup(
                env,
                devices,
                make_disk("parity"),
                mode=resilience.parity_mode,
                parity_unit=resilience.parity_unit,
            )
        spares = [make_disk(f"spare{k}") for k in range(resilience.spares)]
        pfs.attach_resilience(resilience, group=group, spares=spares)
    if qos is not None:
        pfs.attach_qos(qos)
    pfs.set_batching(batch_io)
    return pfs


def single_device_fs(
    env: Environment,
    timing: DiskTiming = WREN_1989,
    geometry: DiskGeometry | None = None,
    recorder: TraceRecorder | None = None,
) -> ParallelFileSystem:
    """The conventional baseline: one drive, no I/O parallelism."""
    return build_parallel_fs(env, 1, timing, geometry, recorder)
