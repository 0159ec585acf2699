"""Unit tests for volumes over device arrays."""

import numpy as np
import pytest

from repro.devices import (
    RAM_DEVICE,
    WREN_1989,
    DeviceController,
    DiskGeometry,
    DiskModel,
)
from repro.fs import build_parallel_fs
from repro.resilience import ResilienceConfig
from repro.sim import Environment
from repro.storage import AllocationError, ClusteredLayout, StripedLayout, Volume
from repro.storage.layout import ExtentPlan


def make_volume(env, n_devices, timing=WREN_1989, cylinders=64):
    geo = DiskGeometry(block_size=512, blocks_per_cylinder=8, cylinders=cylinders)
    devices = [
        DeviceController(env, DiskModel(geo, timing), name=f"d{i}")
        for i in range(n_devices)
    ]
    return Volume(env, devices)


class TestAllocation:
    def test_allocate_and_free(self):
        env = Environment()
        vol = make_volume(env, 2)
        lay = StripedLayout(2, 512)
        ext = vol.allocate(lay, 4096)
        assert ext.total_bytes == 4096
        vol.free(ext)
        assert vol.allocators[0].free_bytes == vol.devices[0].capacity_bytes

    def test_allocation_rollback_on_failure(self):
        env = Environment()
        vol = make_volume(env, 2, cylinders=1)  # tiny devices: 4096 B each
        lay = StripedLayout(2, 512)
        with pytest.raises(AllocationError):
            vol.allocate(lay, 100_000)
        # nothing leaked
        assert vol.allocators[0].free_bytes == vol.devices[0].capacity_bytes
        assert vol.allocators[1].free_bytes == vol.devices[1].capacity_bytes

    def test_layout_wider_than_volume_rejected(self):
        env = Environment()
        vol = make_volume(env, 2)
        with pytest.raises(ValueError):
            vol.allocate(StripedLayout(4, 512), 4096)

    def test_empty_volume_rejected(self):
        with pytest.raises(ValueError):
            Volume(Environment(), [])


class TestIO:
    def test_striped_roundtrip(self):
        env = Environment()
        vol = make_volume(env, 3)
        lay = StripedLayout(3, 512)
        ext = vol.allocate(lay, 8192)
        payload = np.arange(5000, dtype=np.uint8) % 251

        def proc():
            yield vol.write(ext, lay, [(100, 5000)], payload)
            data = yield vol.read(ext, lay, [(100, 5000)])
            return data

        result = env.run(env.process(proc()))
        assert np.array_equal(result, payload)

    def test_clustered_roundtrip(self):
        env = Environment()
        vol = make_volume(env, 2)
        lay = ClusteredLayout(2, [3000, 3000, 3000])  # 3 partitions, 2 devices
        ext = vol.allocate(lay, 9000)
        payload = (np.arange(9000) % 256).astype(np.uint8)

        def proc():
            yield vol.write(ext, lay, [(0, 9000)], payload)
            data = yield vol.read(ext, lay, [(0, 9000)])
            return data

        assert np.array_equal(env.run(env.process(proc())), payload)

    def test_bytes_written_return_value(self):
        env = Environment()
        vol = make_volume(env, 2)
        lay = StripedLayout(2, 512)
        ext = vol.allocate(lay, 4096)

        def proc():
            n = yield vol.write(ext, lay, [(0, 5)], b"hello")
            return n

        assert env.run(env.process(proc())) == 5

    def test_zero_length_io(self):
        env = Environment()
        vol = make_volume(env, 2)
        lay = StripedLayout(2, 512)
        ext = vol.allocate(lay, 4096)

        def proc():
            data = yield vol.read(ext, lay, [(0, 0)])
            return data

        assert len(env.run(env.process(proc()))) == 0

    def test_two_files_do_not_collide(self):
        env = Environment()
        vol = make_volume(env, 2)
        lay = StripedLayout(2, 512)
        ext_a = vol.allocate(lay, 2048)
        ext_b = vol.allocate(lay, 2048)

        def proc():
            yield vol.write(ext_a, lay, [(0, 2048)], b"A" * 2048)
            yield vol.write(ext_b, lay, [(0, 2048)], b"B" * 2048)
            a = yield vol.read(ext_a, lay, [(0, 2048)])
            b = yield vol.read(ext_b, lay, [(0, 2048)])
            return bytes(a[:1]), bytes(b[:1])

        assert env.run(env.process(proc())) == (b"A", b"B")

    def test_striped_read_is_parallel_across_devices(self):
        """The core speedup claim: N devices serve a large read ~N x faster."""

        def elapsed(n_devices):
            env = Environment()
            vol = make_volume(env, n_devices, cylinders=256)
            lay = StripedLayout(n_devices, 4096)
            nbytes = 4096 * 32
            ext = vol.allocate(lay, nbytes)

            def proc():
                yield vol.read(ext, lay, [(0, nbytes)])

            env.run(env.process(proc()))
            return env.now

        t1, t4 = elapsed(1), elapsed(4)
        assert t4 < t1 / 2.5  # near-4x, allow overheads

    def test_peek_poke(self):
        env = Environment()
        vol = make_volume(env, 2)
        lay = StripedLayout(2, 512)
        ext = vol.allocate(lay, 4096)
        vol.poke(ext, lay, 1000, b"xyz")
        assert bytes(vol.peek(ext, lay, 1000, 3)) == b"xyz"


class RecordingTenant:
    """A QoS principal stand-in: notes which requests were billed to it."""

    deadline = None

    def __init__(self):
        self.queued = 0

    def note_queued(self, wait):
        self.queued += 1

    def note_service(self, elapsed, nbytes):
        pass


def make_shadowed_volume(env, n_pairs):
    """A shadow stack's volume and data plane: each drive mirrored by a
    check drive (a parity group of width 1)."""
    geo = DiskGeometry(block_size=512, blocks_per_cylinder=8, cylinders=64)
    pfs = build_parallel_fs(
        env, n_pairs, geometry=geo, resilience=ResilienceConfig(protection="shadow", spares=0)
    )
    return pfs.volume, pfs.data_plane


class TestCallbackOps:
    """Volume ops are callback ops: the device requests go out at the op's
    start slot, when no process is active."""

    @pytest.mark.parametrize("shadowed", [False, True], ids=["plain", "shadow"])
    def test_requests_are_billed_to_the_submitting_tenant(self, shadowed):
        env = Environment()
        if shadowed:
            vol, plane = make_shadowed_volume(env, 2)
        else:
            vol = plane = make_volume(env, 2)
        lay = StripedLayout(2, 512)
        ext = vol.allocate(lay, 4096)
        tenant = RecordingTenant()

        def client():
            env.active_process.qos_tenant = tenant
            yield plane.write(ext, lay, [(0, 2048)], np.ones(2048, dtype=np.uint8))
            yield plane.write(
                ext, lay, [(2048, 512), (3072, 512)], np.ones(1024, dtype=np.uint8)
            )
            yield plane.read(ext, lay, [(0, 2048)])
            yield plane.read(ext, lay, [(2048, 512), (3072, 512)])

        env.run(env.process(client()))
        # one request per 512-byte stripe unit: 4 + 2 written, 4 + 2 read.
        # Every request carries the tenant; a mirrored write goes to the
        # data drive and its mirror, a read to the data drive.
        assert tenant.queued == 6 * (2 if shadowed else 1) + 6

    def test_a_raising_assemble_fails_the_op_and_the_run_goes_on(self, monkeypatch):
        env = Environment()
        vol = make_volume(env, 2)
        lay = StripedLayout(2, 512)
        ext = vol.allocate(lay, 4096)
        payload = np.arange(4096, dtype=np.uint8) % 251
        env.run(vol.write(ext, lay, [(0, 4096)], payload))

        def boom(self, values):
            raise RuntimeError("assemble")

        with monkeypatch.context() as m:
            m.setattr(ExtentPlan, "assemble", boom)
            with pytest.raises(RuntimeError, match="assemble"):
                env.run(vol.read(ext, lay, [(0, 4096)]))
            caught = []

            def waiter():
                try:
                    yield vol.read(ext, lay, [(0, 512), (1024, 512)])
                except RuntimeError as exc:
                    caught.append(str(exc))

            env.run(env.process(waiter()))
            assert caught == ["assemble"]
        # the devices still serve, and the environment still runs
        assert np.array_equal(env.run(vol.read(ext, lay, [(0, 4096)])), payload)
        assert env.run(vol.write(ext, lay, [(100, 3)], b"abc")) == 3
