"""Data layouts: placing a file's byte stream across multiple devices.

§4 of the paper maps each organization to a placement strategy:

* **Striped** — "For file types S and SS, disk striping can be used to
  spread the file across multiple drives ... The entire file is viewed as
  a string of bytes which is broken into units most appropriate for the
  I/O devices involved." Declustering for direct access (Livny et al.,
  Kim) is the same placement with a unit smaller than a logical block.
* **Interleaved** — "in the second case [IS], blocks are interleaved
  across the devices. This differs from normal disk striping, since
  processes are free to proceed at different rates." The placement unit is
  the *logical block*, so one process's block lives wholly on one device.
* **Clustered** — "one device is allocated to each block [partition]"
  (PS); each partition is stored contiguously on its device. With fewer
  devices than partitions, partitions wrap round-robin onto devices.

A layout is pure arithmetic: it maps file byte ranges to
``(device, device_offset, length)`` requests, with device offsets relative
to the file's allocated extent on that device. :func:`plan_batch` computes
them, an :class:`ExtentPlan` of whole device requests computed without
visiting the units one by one; without ``coalesce`` it is one request per
stripe unit or partition, in ascending file order.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_right

import numpy as np

__all__ = [
    "ExtentPlan",
    "DataLayout",
    "StripedLayout",
    "InterleavedLayout",
    "ClusteredLayout",
    "plan_batch",
    "make_layout",
]


def _strided(buf: np.ndarray, pos: int, length: int, count: int, stride: int) -> np.ndarray:
    """``count`` pieces of ``length`` bytes, ``stride`` apart from ``pos``,
    as a ``(count, length)`` view of the C-contiguous 1-D uint8 array ``buf``."""
    return np.ndarray((count, length), np.uint8, buf, pos, (stride, 1))


def _gather(arr: np.ndarray, groups: list[tuple[int, int, int, int]]) -> np.ndarray:
    """The bytes of the piece ``groups``, in order, as one new array."""
    return np.concatenate(
        [
            arr[pos : pos + length]
            if count == 1
            else _strided(arr, pos, length, count, stride).reshape(-1)
            for pos, length, count, stride in groups
        ]
    )


class ExtentPlan:
    """The device requests of one list-I/O submission, and where their
    bytes sit in the payload (the concatenation of the planned ranges).

    ``requests`` holds ``(device, offset, length, pieces)`` in submission
    order, the offset relative to the file's extent on that device.
    ``pieces`` says which payload bytes the request carries. For a
    request that is one contiguous piece of the payload — nearly all of
    them — it is just that piece's payload position, an int: a plan is
    held for as long as its requests are in flight, and with thousands
    in flight every container it is made of is work for the garbage
    collector. Otherwise it is a list of ``(position, length, count,
    stride)`` groups in device order: ``count`` pieces of ``length``
    bytes whose payload positions start at ``position`` and advance by
    ``stride`` (a device-contiguous run of stripe units is one group
    however long it is). ``nbytes`` is the payload size.
    """

    __slots__ = ("requests", "nbytes")

    def __init__(self, requests: list[tuple[int, int, int, "int | list"]], nbytes: int):
        self.requests = requests
        self.nbytes = nbytes

    def payloads(self, arr: np.ndarray) -> list[np.ndarray]:
        """Gather: the write payload of each request, cut from ``arr``."""
        if not arr.flags.c_contiguous:      # _strided addresses raw memory
            arr = np.ascontiguousarray(arr)
        return [
            _gather(arr, pieces) if isinstance(pieces, list) else arr[pieces : pieces + n]
            for _, _, n, pieces in self.requests
        ]

    def assemble(self, values) -> np.ndarray:
        """Scatter: the payload, from each request's read ``values[i]``."""
        out = np.empty(self.nbytes, dtype=np.uint8)
        for (_, _, n, pieces), data in zip(self.requests, values):
            if not isinstance(pieces, list):
                out[pieces : pieces + n] = data
                continue
            at = 0
            for pos, length, count, stride in pieces:
                if count == 1:
                    out[pos : pos + length] = data[at : at + length]
                else:
                    _strided(out, pos, length, count, stride)[...] = data[
                        at : at + count * length
                    ].reshape(count, length)
                at += count * length
        return out


def plan_batch(layout: "DataLayout", ranges, *, coalesce: bool, extent=None) -> ExtentPlan:
    """Plan the ``(offset, length)`` file byte ``ranges`` as one submission.

    The only place a timed request is decomposed into stripe units or
    partitions, and it does so per range in closed form. On a striped or
    interleaved layout the units a contiguous range puts on one device
    are consecutive rounds, hence one device-contiguous run: each of the
    at most ``n_devices`` runs comes from plain-int arithmetic on the
    first and last unit, whatever the range's size, and a range inside
    one unit is a single request. On a clustered layout a range is one
    run per partition it touches.

    With ``coalesce`` a run that continues the latest request on its
    device extends that request (list I/O: a striped scan of ``k`` rounds
    is one request per device, and rows of successive ranges merge across
    range boundaries); every other run is a new request, in order of
    appearance. Without it every stripe unit (or partition) touched is a
    request of its own, in file order — the per-block submission whose
    simulated timing the experiments are pinned to. ``coalesce`` changes
    request sizes and therefore simulated time; nothing else here does.

    Given the file's ``extent``, a request that ends past the file's
    allocation on its device raises ``ValueError`` instead of landing in
    whatever file is allocated next.
    """
    d = layout.n_devices
    clustered = isinstance(layout, ClusteredLayout)
    su = 0 if clustered else layout.stripe_unit
    runs: list[tuple[int, int, int, int | list]] = []
    pos = 0                         # payload position of the current range
    for offset, length in ranges:
        if offset < 0 or length < 0:
            raise ValueError(f"invalid range ({offset}, {length})")
        if clustered:
            layout._check_file_end(offset + length)
            starts, bases = layout._file_starts, layout._dev_base
            cur, end = offset, offset + length
            while cur < end:
                # bisect skips the zero-length partitions starting at cur
                p = bisect_right(starts, cur) - 1
                take = min(starts[p + 1], end) - cur
                runs.append((p % d, bases[p] + cur - starts[p], take, pos + cur - offset))
                cur += take
        elif length:
            first = offset // su
            within = offset - first * su
            if within + length <= su:
                runs.append((first % d, first // d * su + within, length, pos))
            else:
                last = (offset + length - 1) // su
                used = offset + length - last * su  # bytes of the range in the last unit
                n_units = last - first + 1
                at = pos - within   # payload position of the first unit's byte 0
                if coalesce and n_units > d:
                    cycle = su * d
                    for j in range(d):
                        # unit first + j, and every d-th unit after it, are
                        # consecutive rounds on one device: k units, one run
                        k = (n_units - 1 - j) // d + 1
                        off = (first + j) // d * su
                        n = k * su
                        p = at + j * su
                        groups = []
                        if j == 0 and within:       # partial head unit
                            groups.append((pos, su - within, 1, 0))
                            off += within
                            n -= within
                            p += cycle
                            k -= 1
                        if used < su and (n_units - 1 - j) % d == 0:
                            k -= 1                  # partial tail unit
                            n -= su - used
                            if k:
                                groups.append((p, su, k, cycle))
                            groups.append((p + k * cycle, used, 1, 0))
                        elif k:
                            groups.append((p, su, k, cycle))
                        if len(groups) == 1 and groups[0][2] == 1:
                            groups = groups[0][0]   # the run is one piece
                        runs.append(((first + j) % d, off, n, groups))
                else:
                    # at most one unit per device, or no merging asked for:
                    # the runs are the units themselves
                    units = [
                        (u % d, u // d * su, su, at + (u - first) * su)
                        for u in range(first, last + 1)
                    ]
                    if within:
                        units[0] = (first % d, first // d * su + within, su - within, pos)
                    if used < su:
                        units[-1] = (last % d, last // d * su, used, at + (last - first) * su)
                    runs += units
        pos += length
    if coalesce and len(runs) > 1:
        # a run that continues the latest request on its device extends it;
        # the list is compacted in place, runs[:kept] being the requests
        latest = [-1] * d
        kept = 0
        for run in runs:
            dev, off, n, pieces = run
            i = latest[dev]
            if i >= 0:
                _, at, have, merged = runs[i]
                if at + have == off:
                    if not isinstance(merged, list):
                        merged = [(merged, have, 1, 0)]
                    if isinstance(pieces, list):
                        merged += pieces
                    else:
                        merged.append((pieces, n, 1, 0))
                    runs[i] = (dev, at, have + n, merged)
                    continue
            latest[dev] = kept
            runs[kept] = run
            kept += 1
        del runs[kept:]
    if extent is not None:
        sizes = extent.sizes
        for dev, off, n, _ in runs:
            if off + n > sizes[dev]:
                raise ValueError(
                    f"range ends at byte {off + n} of device {dev}, past the "
                    f"file's allocation of {sizes[dev]} bytes there"
                )
    return ExtentPlan(runs, pos)


class DataLayout(ABC):
    """Mapping from a file's byte stream onto ``n_devices`` devices."""

    def __init__(self, n_devices: int):
        if n_devices < 1:
            raise ValueError("n_devices must be >= 1")
        self.n_devices = n_devices

    @property
    @abstractmethod
    def name(self) -> str:
        """Layout family name ('striped', 'interleaved', 'clustered')."""

    @abstractmethod
    def device_bytes(self, file_bytes: int) -> list[int]:
        """Extent size each device must provide to hold ``file_bytes``."""


class StripedLayout(DataLayout):
    """Round-robin stripe units across devices (disk striping, §4).

    Unit ``u`` (bytes ``[u*su, (u+1)*su)``) is placed on device ``u % D``
    at device offset ``(u // D) * su``.
    """

    def __init__(self, n_devices: int, stripe_unit: int = 4096):
        super().__init__(n_devices)
        if stripe_unit < 1:
            raise ValueError("stripe_unit must be >= 1")
        self.stripe_unit = stripe_unit

    @property
    def name(self) -> str:
        return "striped"

    def device_bytes(self, file_bytes: int) -> list[int]:
        if file_bytes < 0:
            raise ValueError("file_bytes must be >= 0")
        su, d = self.stripe_unit, self.n_devices
        n_units = -(-file_bytes // su)
        per_dev = [(n_units // d) * su] * d
        for extra in range(n_units % d):
            per_dev[extra] += su
        # the final (possibly partial) unit still reserves a full unit
        return per_dev


class InterleavedLayout(StripedLayout):
    """Blocks interleaved across devices (IS placement, §4).

    Striping with the unit pinned to the logical block size, so each
    logical block lives wholly on one device: block ``b`` on device
    ``b % D``. Ownership then aligns with the IS organization map's
    ``owner_of_block`` when the process count equals the device count.
    """

    def __init__(self, n_devices: int, block_bytes: int):
        super().__init__(n_devices, stripe_unit=block_bytes)
        self.block_bytes = block_bytes

    @property
    def name(self) -> str:
        return "interleaved"

    def device_of_block(self, block: int) -> int:
        """Device holding logical block ``block``."""
        if block < 0:
            raise ValueError("block must be >= 0")
        return block % self.n_devices


class ClusteredLayout(DataLayout):
    """Contiguous partitions, one device per partition (PS placement, §4).

    ``partition_bytes[p]`` is the byte length of partition ``p``; partition
    ``p`` goes to device ``p % D`` ("blocks belonging to several processes
    would be allocated to each device" when P > D). On each device,
    its partitions are stacked contiguously in partition order.
    """

    def __init__(self, n_devices: int, partition_bytes: list[int]):
        super().__init__(n_devices)
        if any(b < 0 for b in partition_bytes):
            raise ValueError("partition sizes must be >= 0")
        self.partition_bytes = [int(b) for b in partition_bytes]
        # file-space partition starts, and the device-space base of each
        # partition (its device's earlier partitions stacked below it)
        self._file_starts = [0]
        self._dev_base = []
        fill = [0] * n_devices
        for p, nbytes in enumerate(self.partition_bytes):
            self._file_starts.append(self._file_starts[-1] + nbytes)
            self._dev_base.append(fill[p % n_devices])
            fill[p % n_devices] += nbytes
        self._dev_fill = fill

    @property
    def name(self) -> str:
        return "clustered"

    @property
    def n_partitions(self) -> int:
        return len(self.partition_bytes)

    @property
    def total_bytes(self) -> int:
        return self._file_starts[-1]

    def device_of_partition(self, p: int) -> int:
        """Device holding partition ``p`` (round-robin)."""
        if not 0 <= p < self.n_partitions:
            raise ValueError(f"partition {p} out of range")
        return p % self.n_devices

    def _check_file_end(self, end: int) -> None:
        if end > self.total_bytes:
            raise ValueError(
                f"range ends at byte {end}, past the file's {self.total_bytes} bytes"
            )

    def device_bytes(self, file_bytes: int) -> list[int]:
        if file_bytes != self.total_bytes:
            raise ValueError(
                f"clustered layout is sized for {self.total_bytes} bytes, "
                f"not {file_bytes}"
            )
        return list(self._dev_fill)


def make_layout(
    name: str,
    n_devices: int,
    *,
    stripe_unit: int = 4096,
    block_bytes: int | None = None,
    partition_bytes: list[int] | None = None,
) -> DataLayout:
    """Construct a layout by family name."""
    name = name.lower()
    if name == "striped":
        return StripedLayout(n_devices, stripe_unit)
    if name == "interleaved":
        if block_bytes is None:
            raise ValueError("interleaved layout requires block_bytes")
        return InterleavedLayout(n_devices, block_bytes)
    if name == "clustered":
        if partition_bytes is None:
            raise ValueError("clustered layout requires partition_bytes")
        return ClusteredLayout(n_devices, partition_bytes)
    raise ValueError(f"unknown layout {name!r}")
