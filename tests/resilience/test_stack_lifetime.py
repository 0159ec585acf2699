"""Stack lifetime: a simulated stack is garbage once its caller drops it,
even after a device failure, degraded I/O and a completed hot-spare
rebuild — no rebuilder process, journal or registry keeps the
environment, a device controller or the resilient volume alive."""

import gc
import weakref

import numpy as np
import pytest

from repro import Environment, build_parallel_fs
from repro.devices import DiskGeometry
from repro.resilience import ResilienceConfig

GEO = DiskGeometry(block_size=4096, blocks_per_cylinder=32, cylinders=16)
N_RECORDS, RECORD = 256, 512


def degraded_pass(strict: bool):
    """Parity stack with one spare: fail device 1, start the rebuild,
    write and read the file back, drain; return weakrefs to the stack."""
    env = Environment(strict=strict)
    if not strict and env.sanitizer is not None:
        pytest.skip("the --sanitize harness keeps every environment it "
                    "instruments until teardown; the strict case covers it")
    pfs = build_parallel_fs(
        env, 4, geometry=GEO,
        resilience=ResilienceConfig(protection="parity", spares=1),
    )
    f = pfs.create(
        "scan", "IS", n_records=N_RECORDS, record_size=RECORD,
        records_per_block=8, n_processes=4,
    )
    rv = pfs.resilience
    pfs.volume.devices[1].fail()
    rv.rebuilder.start(1)
    data = (np.arange(N_RECORDS * RECORD, dtype=np.uint64) % 251).astype(
        np.uint8
    ).reshape(N_RECORDS, RECORD)

    def write_read():
        yield from f.global_view().write(data)
        v = f.global_view()
        v.seek(0)
        return (yield from v.read())

    assert np.array_equal(env.run(env.process(write_read())), data)
    env.run()
    assert rv.stats.degraded_writes > 0 and rv.stats.rebuilds_completed == 1
    return weakref.ref(env), weakref.ref(pfs.volume.devices[0]), weakref.ref(rv)


@pytest.mark.parametrize("strict", [False, True], ids=["plain", "strict"])
def test_degraded_stack_is_collected_after_rebuild(strict):
    refs = degraded_pass(strict)
    gc.collect()
    assert [r() for r in refs] == [None, None, None]
