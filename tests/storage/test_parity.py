"""Parity groups at width n (Kim-style synchronized interleaving), driven
through the stack: one check drive for three data drives."""

import numpy as np
import pytest

from repro.devices import (
    WREN_1989,
    DeviceController,
    DeviceFailedError,
    DiskGeometry,
    DiskModel,
)
from repro.resilience import ResilienceConfig
from repro.sim import Environment
from repro.storage import ParityGroup, StaleParityError
from tests.resilience.groups import GroupStack

GEO = DiskGeometry(block_size=512, blocks_per_cylinder=8, cylinders=16)


def make_group(env, n_data=3, mode="synchronized", parity_unit=512, spares=0):
    return GroupStack(env, n_data, "parity", geometry=GEO, parity_mode=mode,
                      parity_unit=parity_unit, spares=spares)


def run(env, gen):
    return env.run(env.process(gen))


class TestConstruction:
    def test_too_few_devices(self):
        env = Environment()
        geo = DiskGeometry(cylinders=4)
        d = [DeviceController(env, DiskModel(geo, WREN_1989)) for _ in range(3)]
        p = [DeviceController(env, DiskModel(geo, WREN_1989)) for _ in range(2)]
        with pytest.raises(ValueError):
            ParityGroup(env, [], p[:1])  # no data drive
        with pytest.raises(ValueError):
            ParityGroup(env, d, p)  # two check drives cannot split three drives

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            ResilienceConfig(parity_mode="raid6")
        with pytest.raises(ValueError):
            ResilienceConfig(protection="raid6")

    def test_capacity_mismatch(self):
        env = Environment()
        geo_a = DiskGeometry(cylinders=4)
        geo_b = DiskGeometry(cylinders=8)
        data = [
            DeviceController(env, DiskModel(geo_a, WREN_1989)),
            DeviceController(env, DiskModel(geo_b, WREN_1989)),
        ]
        p = DeviceController(env, DiskModel(geo_a, WREN_1989))
        with pytest.raises(ValueError):
            ParityGroup(env, data, [p])
        with pytest.raises(ValueError):
            ParityGroup(env, data[:1], [DeviceController(env, DiskModel(geo_b, WREN_1989))])


class TestSynchronizedStripes:
    def test_stripe_write_sets_parity(self):
        env = Environment()
        s = make_group(env)
        chunks = [bytes([i + 1]) * 512 for i in range(3)]
        env.run(s.write_row(0, chunks))
        expected = np.bitwise_xor(
            np.bitwise_xor(s.data[0].peek(0, 512), s.data[1].peek(0, 512)),
            s.data[2].peek(0, 512),
        )
        assert np.array_equal(s.check().peek(0, 512), expected)
        assert s.group.stale_units == 0

    def test_reconstruct_failed_device(self):
        env = Environment()
        s = make_group(env)
        chunks = [bytes([7 * (i + 1)]) * 512 for i in range(3)]

        def proc():
            yield s.write_row(0, chunks)
            s.data[1].fail()
            rebuilt = yield s.read(1, 0, 512)
            return bytes(rebuilt)

        assert run(env, proc()) == chunks[1]
        assert s.rv.stats.reconstructed_bytes == 512

    def test_read_transparently_reconstructs(self):
        env = Environment()
        s = make_group(env)
        chunks = [bytes([i + 1]) * 512 for i in range(3)]

        def proc():
            yield s.write_row(0, chunks)
            s.data[2].fail()
            ranges = [(dev * s.cap, 512) for dev in range(3)]
            value = yield s.rv.read(s.extent, s.layout, ranges)
            return bytes(value)

        assert run(env, proc()) == b"".join(chunks)
        assert s.rv.stats.degraded_reads == 1

    def test_read_healthy_device_is_direct(self):
        env = Environment()
        s = make_group(env)

        def proc():
            yield s.write_row(0, [b"a" * 512, b"b" * 512, b"c" * 512])
            value = yield s.read(0, 0, 512)
            return bytes(value)

        assert run(env, proc()) == b"a" * 512
        assert s.check().latency.count == 1  # the row's parity write, no read
        assert s.rv.stats.degraded_reads == 0

    def test_double_failure_unrecoverable(self):
        env = Environment()
        s = make_group(env)
        outcome = []

        def proc():
            yield s.write_row(0, [b"a" * 512, b"b" * 512, b"c" * 512])
            s.data[0].fail()
            s.data[1].fail()
            try:
                yield s.read(0, 0, 512)
            except DeviceFailedError:
                outcome.append("unrecoverable")

        env.process(proc())
        env.run()
        assert outcome == ["unrecoverable"]

    def test_chunk_validation(self):
        env = Environment()
        s = make_group(env)
        with pytest.raises(ValueError):  # the ranges cover more than the data
            env.run(s.rv.write(s.extent, s.layout, [(0, 512), (s.cap, 512)], b"a" * 512))


class TestIndependentWritesSynchronizedMode:
    """The paper's §5 claim: parity striping does not cover PS/IS access."""

    def test_independent_write_marks_parity_stale(self):
        env = Environment()
        s = make_group(env)

        def proc():
            yield s.write_row(0, [b"a" * 512] * 3)
            yield s.write(1, 0, b"Z" * 512)  # PS-style independent write

        run(env, proc())
        assert not s.group.reconstruct_safe(1, 0, 512)
        assert not s.group.reconstruct_safe(0, 0, 512)  # the whole group
        assert s.group.stale_units == 1
        assert s.check().latency.count == 1  # parity did not follow

    def test_reconstruction_over_stale_parity_refused(self):
        env = Environment()
        s = make_group(env)
        outcome = []

        def proc():
            yield s.write_row(0, [b"a" * 512] * 3)
            yield s.write(1, 0, b"Z" * 512)
            s.data[1].fail()
            try:
                yield s.read(1, 0, 512)
            except StaleParityError:
                outcome.append("stale")

        env.process(proc())
        env.run()
        assert outcome == ["stale"]

    def test_stripe_rewrite_clears_staleness(self):
        env = Environment()
        s = make_group(env)

        def proc():
            yield s.write(1, 0, b"Z" * 512)
            yield s.write_row(0, [b"a" * 512] * 3)

        run(env, proc())
        assert s.group.reconstruct_safe(1, 0, 512)
        assert s.group.stale_units == 0


class TestRmwMode:
    """The ablation: read-modify-write keeps parity valid under PS/IS access."""

    def test_independent_write_keeps_parity_consistent(self):
        env = Environment()
        s = make_group(env, mode="rmw")

        def proc():
            yield s.write_row(0, [b"a" * 512] * 3)
            yield s.write(1, 0, b"Z" * 512)
            s.data[1].fail()
            rebuilt = yield s.read(1, 0, 512)
            return bytes(rebuilt)

        assert run(env, proc()) == b"Z" * 512
        assert s.group.stale_units == 0

    def test_concurrent_rmw_writes_sharing_a_parity_unit_both_land(self):
        """Two RMWs through different devices over one parity unit: the
        second reads old parity only after the first's update landed, so
        parity covers both and a reconstruction returns the new bytes."""
        env = Environment()
        s = make_group(env, mode="rmw")

        def proc():
            yield s.write_row(0, [b"a" * 512] * 3)
            yield env.all_of([s.write(0, 0, b"X" * 512), s.write(2, 0, b"Y" * 512)])
            s.data[0].fail()
            return bytes((yield s.read(0, 0, 512)))

        assert run(env, proc()) == b"X" * 512
        assert s.group.stale_units == 0

    def test_idle_unit_locks_are_dropped(self):
        """A unit lock lives only while it is held or waited on: after
        concurrent RMWs contending for shared units, none is retained."""
        env = Environment()
        s = make_group(env, mode="rmw")

        def proc():
            yield s.write_row(0, [b"a" * 1024] * 3)
            yield env.all_of([
                s.write(0, 0, b"X" * 1024),
                s.write(2, 512, b"Y" * 1024),
                s.write(1, 0, b"Z" * 512),
            ])

        run(env, proc())
        assert s.group._unit_locks == {}
        assert s.redundant()

    def test_rmw_write_costs_more_time_than_stale_write(self):
        def cost(mode):
            env = Environment()
            s = make_group(env, mode=mode)
            env.run(s.write(0, 0, b"x" * 512))
            return env.now

        assert cost("rmw") > cost("synchronized")


class TestRebuildDevice:
    def test_full_rebuild_onto_replacement(self):
        env = Environment()
        s = make_group(env, spares=1)
        contents = s.fill()
        s.data[2].fail()
        s.rv.rebuilder.start(2)
        env.run()
        assert s.data[2] is s.pfs.volume.devices[2]  # the spare, swapped in
        assert s.data[2].name == "spare0"
        assert np.array_equal(s.data[2].peek(0, s.cap), contents[2])
        assert s.redundant()

    def test_rebuild_refused_with_stale_units(self):
        env = Environment()
        s = make_group(env, spares=1)
        env.run(s.write(0, 0, b"x" * 512))  # stale unit
        s.data[0].fail()
        s.rv.rebuilder.start(0)
        env.run()
        ((index, exc),) = s.rv.rebuilder.failures
        assert index == 0 and isinstance(exc, StaleParityError)
