"""Shared fixtures for file-system tests."""

import pytest

from repro.devices import WREN_1989, DeviceController, DiskGeometry, DiskModel
from repro.fs import ParallelFileSystem, build_parallel_fs
from repro.sim import Environment
from repro.storage import Volume
from repro.trace import TraceRecorder


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def recorder():
    return TraceRecorder()


#: the small drive every fs-level test runs on
GEO = DiskGeometry(block_size=512, blocks_per_cylinder=8, cylinders=128)


def build_stack(env, n_devices=4, **layers):
    """``build_parallel_fs`` on the test geometry, with the ``layers``
    (``io_nodes=``, ``resilience=``, ``qos=``, ``batch_io=``) it takes."""
    return build_parallel_fs(env, n_devices, geometry=GEO, **layers)


def build_pfs(env, n_devices=4, recorder=None, cylinders=128):
    geo = DiskGeometry(block_size=512, blocks_per_cylinder=8, cylinders=cylinders)
    devices = [
        DeviceController(env, DiskModel(geo, WREN_1989), name=f"d{i}")
        for i in range(n_devices)
    ]
    volume = Volume(env, devices)
    return ParallelFileSystem(env, volume, recorder=recorder)


@pytest.fixture
def pfs(env, recorder):
    return build_pfs(env, recorder=recorder)
