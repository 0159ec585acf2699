"""Volumes: a file extent across an array of devices.

A :class:`Volume` owns a set of device controllers and their allocators.
Files (via ``repro.fs``) allocate an :class:`Extent` — one contiguous
region per device — and then read/write file byte ranges through a
:class:`~repro.storage.layout.DataLayout`, which decides which devices a
range touches. Segments on *different* devices proceed in parallel (this
is the entire point of parallel I/O); segments on the same device queue at
that device's controller.

Every data plane — this volume, the I/O-node
:class:`~repro.ionode.routing.MediatedVolume` and the
:class:`~repro.resilience.volume.ResilientVolume` — speaks one protocol
of two methods, ``read(extent, layout, ranges)`` and ``write(extent,
layout, ranges, data)``, whose unit is the list of ``(offset, nbytes)``
file byte ranges to transfer.

Reads return the reassembled byte array. Every operation is one callback
:class:`~repro.sim.engine.Op`: the request's extent plan is submitted at
the op's start slot and joined, with no generator process per request.
"""

from __future__ import annotations

import numpy as np

from ..devices.controller import DeviceController, as_payload
from ..sim.engine import Environment, Op
from .allocation import ExtentAllocator
from .layout import DataLayout, ExtentPlan, plan_batch

__all__ = ["Extent", "Volume"]


class Extent:
    """Per-device base offsets of one file's allocation."""

    def __init__(self, bases: list[int | None], sizes: list[int]):
        if len(bases) != len(sizes):
            raise ValueError("bases and sizes must align")
        self.bases = bases      # None where a device contributes nothing
        self.sizes = sizes

    def base(self, device: int) -> int:
        """Base byte offset of this extent on ``device``."""
        b = self.bases[device]
        if b is None:
            raise ValueError(f"device {device} not part of this extent")
        return b

    @property
    def total_bytes(self) -> int:
        return sum(self.sizes)


class Volume:
    """An array of devices presented as an allocatable, layout-aware store."""

    def __init__(
        self,
        env: Environment,
        devices: list[DeviceController],
    ):
        if not devices:
            raise ValueError("a volume needs at least one device")
        self.env = env
        self.devices = list(devices)
        self.allocators = [
            ExtentAllocator(d.capacity_bytes) for d in devices
        ]
        #: extent-batched submission: merge device-contiguous segments into
        #: single multi-block requests before they hit the controllers.
        #: Every plane stacked over this volume plans with this one flag.
        #: Off by default — batching changes simulated request sizes and
        #: therefore timing (see docs/PERF.md).
        self.coalesce = False

    @property
    def n_devices(self) -> int:
        return len(self.devices)

    # -- allocation -----------------------------------------------------------

    def allocate(self, layout: DataLayout, file_bytes: int) -> Extent:
        """Reserve space for a ``file_bytes`` file under ``layout``."""
        if layout.n_devices > self.n_devices:
            raise ValueError(
                f"layout spans {layout.n_devices} devices, volume has "
                f"{self.n_devices}"
            )
        per_dev = layout.device_bytes(file_bytes)
        bases: list[int | None] = []
        done: list[tuple[int, int, int]] = []
        try:
            for dev, nbytes in enumerate(per_dev):
                if nbytes == 0:
                    bases.append(None)
                    continue
                start = self.allocators[dev].allocate(nbytes)
                bases.append(start)
                done.append((dev, start, nbytes))
        except Exception:
            for dev, start, nbytes in done:
                self.allocators[dev].free(start, nbytes)
            raise
        return Extent(bases, per_dev)

    def free(self, extent: Extent) -> None:
        """Return every device range of ``extent`` to the allocators."""
        for dev, (base, size) in enumerate(zip(extent.bases, extent.sizes)):
            if base is not None and size:
                self.allocators[dev].free(base, size)

    # -- I/O -------------------------------------------------------------------

    def read(self, extent: Extent, layout: DataLayout, ranges: list[tuple[int, int]]) -> Op:
        """List-I/O read of the ``(offset, nbytes)`` file byte ``ranges``.

        All ranges are planned up front and submitted as one batch (one
        op, one join), with device-contiguous runs merged across range
        boundaries when ``coalesce`` is on. The value is the single
        concatenated uint8 array, ranges in list order.
        """
        plan = plan_batch(layout, ranges, coalesce=self.coalesce, extent=extent)
        return self._op(extent, plan, None)

    def write(
        self,
        extent: Extent,
        layout: DataLayout,
        ranges: list[tuple[int, int]],
        data: bytes | np.ndarray,
    ) -> Op:
        """List-I/O write: ``data`` is the concatenation of all ranges;
        the value is the byte count."""
        arr = as_payload(data)
        plan = plan_batch(layout, ranges, coalesce=self.coalesce, extent=extent)
        if plan.nbytes != arr.size:
            raise ValueError(f"ranges cover {plan.nbytes} bytes, data has {arr.size}")
        return self._op(extent, plan, arr)

    def _op(self, extent: Extent, plan: ExtentPlan, arr: np.ndarray | None) -> Op:
        """Submit ``plan`` and join it (the op bills its creator's tenant)."""
        devices, bases = self.devices, extent.bases
        if arr is None:
            reqs = plan.requests
            return self.env.join(
                lambda: [devices[d].read(bases[d] + o, n) for d, o, n, _ in reqs],
                plan.assemble,
            )
        size = int(arr.size)  # a write's finish pins no plan for the collector to walk
        return self.env.join(
            lambda: [
                devices[d].write(bases[d] + o, chunk)
                for (d, o, _, _), chunk in zip(plan.requests, plan.payloads(arr))
            ],
            lambda _: size,
        )

    # -- zero-time inspection (tests, recovery) ---------------------------------

    def peek(self, extent: Extent, layout: DataLayout, offset: int, nbytes: int) -> np.ndarray:
        """Zero-time read of file bytes (tests, verification)."""
        plan = plan_batch(layout, [(offset, nbytes)], coalesce=True, extent=extent)
        return plan.assemble(
            [
                self.devices[dev].peek(extent.bases[dev] + off, n)
                for dev, off, n, _ in plan.requests
            ]
        )

    def poke(self, extent: Extent, layout: DataLayout, offset: int, data: bytes | np.ndarray) -> None:
        """Zero-time write of file bytes (fault injection)."""
        arr = as_payload(data)
        plan = plan_batch(layout, [(offset, arr.size)], coalesce=True, extent=extent)
        for (dev, off, _, _), chunk in zip(plan.requests, plan.payloads(arr)):
            self.devices[dev].poke(extent.bases[dev] + off, chunk)
