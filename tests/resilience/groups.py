"""Protected stacks addressed by drive and offset, for the redundancy tests.

:class:`GroupStack` builds a ``build_parallel_fs`` stack and drives its
resilient volume directly: ``write(dev, off, data)`` and ``read(dev, off,
n)`` move bytes of data drive ``dev`` at device offset ``off``, and
``write_row`` writes one equal chunk to every data drive at one offset.
Under ``protection="shadow"`` the group has width 1, so data drive ``i``
is mirrored by ``check(i)``.
"""

import numpy as np

from repro import build_parallel_fs
from repro.devices import DiskGeometry
from repro.resilience import ResilienceConfig
from repro.storage import StripedLayout

GEO = DiskGeometry(block_size=512, blocks_per_cylinder=8, cylinders=64)


class GroupStack:
    def __init__(self, env, n_data=1, protection="shadow", geometry=GEO, **cfg):
        cfg.setdefault("spares", 0)
        self.env = env
        # batched, so a row's ranges go down as one plan
        self.pfs = build_parallel_fs(
            env, n_data, geometry=geometry, batch_io=True,
            resilience=ResilienceConfig(protection=protection, **cfg),
        )
        self.rv = self.pfs.resilience
        self.group = self.rv.group
        self.cap = self.group.capacity
        # one whole drive per stripe unit: file byte dev * cap + off is
        # byte off of data drive dev
        self.layout = StripedLayout(n_data, self.cap)
        self.extent = self.pfs.volume.allocate(self.layout, n_data * self.cap)

    @property
    def data(self):
        return self.group.data_devices

    def check(self, dev=0):
        """The check drive of data drive ``dev``'s group (its mirror at width 1)."""
        return self.group.check_devices[dev // self.group.width]

    def write(self, dev, off, data):
        arr = np.frombuffer(data, dtype=np.uint8) if isinstance(data, bytes) else data
        return self.rv.write(self.extent, self.layout, [(dev * self.cap + off, len(arr))], arr)

    def write_row(self, off, chunks):
        n = len(chunks[0])
        ranges = [(dev * self.cap + off, n) for dev in range(len(chunks))]
        return self.rv.write(self.extent, self.layout, ranges, b"".join(chunks))

    def read(self, dev, off, n):
        return self.rv.read(self.extent, self.layout, [(dev * self.cap + off, n)])

    def fill(self, seed=2):
        """Zero-time: a distinct pattern on every data drive, every check
        drive the XOR of its group. Returns the data drives' contents."""
        contents = []
        for i, d in enumerate(self.data):
            c = (np.arange(self.cap, dtype=np.uint64) * (seed + i) % 251).astype(np.uint8)
            d.poke(0, c)
            contents.append(c)
        w = self.group.width
        for k, check in enumerate(self.group.check_devices):
            check.poke(0, np.bitwise_xor.reduce(contents[k * w:k * w + w]))
        return contents

    def redundant(self) -> bool:
        """Every check drive is the XOR of its group, no unit stale."""
        w = self.group.width
        return self.group.stale_units == 0 and all(
            np.array_equal(
                check.peek(0, self.cap),
                np.bitwise_xor.reduce([d.peek(0, self.cap) for d in self.data[k * w:k * w + w]]),
            )
            for k, check in enumerate(self.group.check_devices)
        )
