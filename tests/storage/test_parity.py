"""Unit tests for parity groups (Kim-style synchronized interleaving)."""

import numpy as np
import pytest

from repro.devices import (
    WREN_1989,
    DeviceController,
    DeviceFailedError,
    DiskGeometry,
    DiskModel,
)
from repro.sim import Environment
from repro.storage import ParityGroup, StaleParityError


def make_group(env, n_data=3, mode="synchronized", parity_unit=512):
    geo = DiskGeometry(block_size=512, blocks_per_cylinder=8, cylinders=16)
    data = [
        DeviceController(env, DiskModel(geo, WREN_1989), name=f"data{i}")
        for i in range(n_data)
    ]
    parity = DeviceController(env, DiskModel(geo, WREN_1989), name="check")
    return ParityGroup(env, data, parity, mode=mode, parity_unit=parity_unit), data, parity


class TestConstruction:
    def test_too_few_devices(self):
        env = Environment()
        geo = DiskGeometry(cylinders=4)
        d = DeviceController(env, DiskModel(geo, WREN_1989))
        p = DeviceController(env, DiskModel(geo, WREN_1989))
        with pytest.raises(ValueError):
            ParityGroup(env, [d], p)

    def test_unknown_mode(self):
        env = Environment()
        with pytest.raises(ValueError):
            make_group(env, mode="raid6")

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
            ParityGroup(env, data, p)


class TestSynchronizedStripes:
    def test_stripe_write_sets_parity(self):
        env = Environment()
        group, data, parity = make_group(env)
        chunks = [bytes([i + 1]) * 512 for i in range(3)]

        def proc():
            yield group.write_stripe(0, chunks)

        env.run(env.process(proc()))
        expected = np.bitwise_xor(
            np.bitwise_xor(data[0].peek(0, 512), data[1].peek(0, 512)),
            data[2].peek(0, 512),
        )
        assert np.array_equal(parity.peek(0, 512), expected)

    def test_reconstruct_failed_device(self):
        env = Environment()
        group, data, parity = make_group(env)
        chunks = [bytes([7 * (i + 1)]) * 512 for i in range(3)]

        def proc():
            yield group.write_stripe(0, chunks)
            data[1].fail()
            rebuilt = yield group.reconstruct(1, 0, 512)
            return bytes(rebuilt)

        assert env.run(env.process(proc())) == chunks[1]

    def test_read_transparently_reconstructs(self):
        env = Environment()
        group, data, parity = make_group(env)
        chunks = [bytes([i + 1]) * 512 for i in range(3)]

        def proc():
            yield group.write_stripe(0, chunks)
            data[2].fail()
            value = yield group.read(2, 0, 512)
            return bytes(value)

        assert env.run(env.process(proc())) == chunks[2]

    def test_read_healthy_device_is_direct(self):
        env = Environment()
        group, data, parity = make_group(env)

        def proc():
            yield group.write_stripe(0, [b"a" * 512, b"b" * 512, b"c" * 512])
            value = yield group.read(0, 0, 512)
            return bytes(value)

        assert env.run(env.process(proc())) == b"a" * 512

    def test_double_failure_unrecoverable(self):
        env = Environment()
        group, data, parity = make_group(env)
        outcome = []

        def proc():
            yield group.write_stripe(0, [b"a" * 512, b"b" * 512, b"c" * 512])
            data[0].fail()
            data[1].fail()
            try:
                yield group.reconstruct(0, 0, 512)
            except DeviceFailedError:
                outcome.append("unrecoverable")

        env.process(proc())
        env.run()
        assert outcome == ["unrecoverable"]

    def test_chunk_validation(self):
        env = Environment()
        group, _, _ = make_group(env)
        with pytest.raises(ValueError):
            group.write_stripe(0, [b"a" * 512, b"b" * 512])  # wrong count
        with pytest.raises(ValueError):
            group.write_stripe(0, [b"a" * 512, b"b" * 512, b"c" * 100])


class TestIndependentWritesSynchronizedMode:
    """The paper's §5 claim: parity striping does not cover PS/IS access."""

    def test_independent_write_marks_parity_stale(self):
        env = Environment()
        group, data, parity = make_group(env)

        def proc():
            yield group.write_stripe(0, [b"a" * 512] * 3)
            yield group.write(1, 0, b"Z" * 512)  # PS-style independent write

        env.run(env.process(proc()))
        assert not group.is_consistent(1, 0, 512)
        assert group.stale_units == 1

    def test_reconstruction_over_stale_parity_refused(self):
        env = Environment()
        group, data, parity = make_group(env)
        outcome = []

        def proc():
            yield group.write_stripe(0, [b"a" * 512] * 3)
            yield group.write(1, 0, b"Z" * 512)
            data[1].fail()
            try:
                yield group.reconstruct(1, 0, 512)
            except StaleParityError:
                outcome.append("stale")

        env.process(proc())
        env.run()
        assert outcome == ["stale"]

    def test_stripe_rewrite_clears_staleness(self):
        env = Environment()
        group, data, parity = make_group(env)

        def proc():
            yield group.write(1, 0, b"Z" * 512)
            yield group.write_stripe(0, [b"a" * 512] * 3)

        env.run(env.process(proc()))
        assert group.is_consistent(1, 0, 512)
        assert group.stale_units == 0


class TestRmwMode:
    """The ablation: read-modify-write keeps parity valid under PS/IS access."""

    def test_independent_write_keeps_parity_consistent(self):
        env = Environment()
        group, data, parity = make_group(env, mode="rmw")

        def proc():
            yield group.write_stripe(0, [b"a" * 512] * 3)
            yield group.write(1, 0, b"Z" * 512)
            data[1].fail()
            rebuilt = yield group.reconstruct(1, 0, 512)
            return bytes(rebuilt)

        assert env.run(env.process(proc())) == b"Z" * 512
        assert group.stale_units == 0

    def test_concurrent_rmw_writes_sharing_a_parity_unit_both_land(self):
        """Two RMWs through different devices over one parity unit: the
        second reads old parity only after the first's update landed, so
        parity covers both and a reconstruction returns the new bytes."""
        env = Environment()
        group, data, parity = make_group(env, mode="rmw")

        def proc():
            yield group.write_stripe(0, [b"a" * 512] * 3)
            yield env.all_of([group.write(0, 0, b"X" * 512), group.write(2, 0, b"Y" * 512)])
            data[0].fail()
            return bytes((yield group.reconstruct(0, 0, 512)))

        assert env.run(env.process(proc())) == b"X" * 512
        assert group.stale_units == 0

    def test_rmw_write_costs_more_time_than_stale_write(self):
        def run(mode):
            env = Environment()
            group, _, _ = make_group(env, mode=mode)

            def proc():
                yield group.write(0, 0, b"x" * 512)

            env.run(env.process(proc()))
            return env.now

        assert run("rmw") > run("synchronized")


class TestRebuildDevice:
    def test_full_rebuild_onto_replacement(self):
        env = Environment()
        group, data, parity = make_group(env)
        cap = data[0].capacity_bytes
        stripe = [
            (np.arange(cap) % 13).astype(np.uint8),
            (np.arange(cap) % 17).astype(np.uint8),
            (np.arange(cap) % 19).astype(np.uint8),
        ]

        def proc():
            yield group.write_stripe(0, stripe)
            data[2].fail()
            yield group.rebuild_device(2)
            return data[2].peek(0, cap)

        result = env.run(env.process(proc()))
        assert np.array_equal(result, stripe[2])

    def test_rebuild_refused_with_stale_units(self):
        env = Environment()
        group, data, parity = make_group(env)
        outcome = []

        def proc():
            yield group.write(0, 0, b"x" * 512)  # stale unit
            data[0].fail()
            try:
                yield group.rebuild_device(0)
            except StaleParityError:
                outcome.append("refused")

        env.process(proc())
        env.run()
        assert outcome == ["refused"]
