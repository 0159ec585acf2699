"""Shadowing (mirroring) as a parity group of width 1: each data drive has
one check drive, and the XOR of one unit is a copy."""

import numpy as np
import pytest

from repro.devices import (
    WREN_1989,
    DeviceController,
    DeviceFailedError,
    DiskGeometry,
    DiskModel,
)
from repro import build_parallel_fs
from repro.resilience import ResilienceConfig
from repro.sim import Environment
from repro.storage import ParityGroup
from tests.resilience.groups import GEO, GroupStack


def make_pair(env, spares=0):
    """A one-drive shadow stack: its data drive ``p`` and mirror ``s``."""
    stack = GroupStack(env, spares=spares)
    return stack, stack.data[0], stack.check(0)


def test_write_mirrors_to_both():
    env = Environment()
    pair, p, s = make_pair(env)
    env.run(pair.write(0, 0, b"data"))
    assert bytes(p.peek(0, 4)) == b"data"
    assert bytes(s.peek(0, 4)) == b"data"


def test_read_after_primary_failure_uses_shadow():
    env = Environment()
    pair, p, s = make_pair(env)

    def proc():
        yield pair.write(0, 0, b"safe")
        p.fail()
        data = yield pair.read(0, 0, 4)
        return bytes(data)

    assert env.run(env.process(proc())) == b"safe"
    assert pair.rv.stats.reconstructed_bytes == 4


def test_write_after_single_failure_still_succeeds():
    env = Environment()
    pair, p, s = make_pair(env)

    def proc():
        p.fail()
        yield pair.write(0, 0, b"solo")
        data = yield pair.read(0, 0, 4)
        return bytes(data)

    assert env.run(env.process(proc())) == b"solo"
    assert bytes(s.peek(0, 4)) == b"solo"  # the mirror took the write


def test_both_failed_pair_fails():
    env = Environment()
    pair, p, s = make_pair(env)
    p.fail()
    s.fail()
    outcome = []

    def proc():
        try:
            yield pair.read(0, 0, 4)
        except DeviceFailedError:
            outcome.append("failed")

    env.process(proc())
    env.run()
    assert outcome == ["failed"]


def test_resilver_restores_failed_member():
    env = Environment()
    pair, p, s = make_pair(env, spares=1)

    def proc():
        yield pair.write(0, 0, b"gold")
        p.fail()
        yield pair.write(0, 4, b"more")   # degraded: on the mirror only
        yield pair.rv.rebuilder.start(0)
        return bytes(pair.data[0].peek(0, 8))

    assert env.run(env.process(proc())) == b"goldmore"
    assert pair.data[0] is not p and pair.redundant()


def test_resilver_with_no_survivor_raises():
    env = Environment()
    pair, p, s = make_pair(env, spares=1)
    p.fail()
    s.fail()
    env.run(pair.rv.rebuilder.start(0))
    ((index, exc),) = pair.rv.rebuilder.failures
    assert index == 0 and isinstance(exc, DeviceFailedError)
    assert pair.data[0] is p  # no swap


def test_capacity_mismatch_rejected():
    env = Environment()
    geo_a = DiskGeometry(cylinders=10)
    geo_b = DiskGeometry(cylinders=20)
    a = DeviceController(env, DiskModel(geo_a, WREN_1989), name="a")
    b = DeviceController(env, DiskModel(geo_b, WREN_1989), name="b")
    with pytest.raises(ValueError):
        ParityGroup(env, [a], [b])


def bare_write_time(nbytes=512):
    """Seconds one idle drive takes to write ``nbytes`` at offset 0."""
    env = Environment()
    d = DeviceController(env, DiskModel(GEO, WREN_1989), name="solo")
    env.run(d.write(0, b"x" * nbytes))
    return env.now


def test_mirrored_write_takes_max_of_member_times():
    env = Environment()
    pair, p, s = make_pair(env)
    env.run(pair.write(0, 0, b"x" * 512))

    # identical members, both start idle -> completion equals the single-
    # device time (writes proceed in parallel, not serially, with no reads)
    assert env.now == pytest.approx(bare_write_time())
    assert p.latency.count == s.latency.count == 1


def test_mirrored_drives_written_at_one_offset_run_in_parallel():
    """Two processes each write their own drive at device offset 0: the
    two mirrors are separate groups, so neither waits on the other's
    locks, and all four writes finish in one bare write time."""
    env = Environment()
    stack = GroupStack(env, n_data=2)
    env.run(env.all_of([stack.write(dev, 0, b"x" * 512) for dev in range(2)]))
    assert env.now == pytest.approx(bare_write_time())
    assert all(d.latency.count == 1 for d in [*stack.data, *stack.group.check_devices])


def test_ps_partitions_on_a_shadow_stack_write_in_parallel():
    """§5: shadowing covers PS. Each process writes its own partition,
    one drive each; mirrored, the write phase takes as long as on the
    bare drives."""

    def write_phase(resilience):
        env = Environment()
        pfs = build_parallel_fs(
            env, 2, geometry=GEO, resilience=resilience
        )
        f = pfs.create(
            "ps", "PS", n_records=64, record_size=64, records_per_block=8, n_processes=2
        )
        data = np.arange(64 * 64, dtype=np.uint64).astype(np.uint8).reshape(64, 64)

        def worker(p):
            yield from f.internal_view(p).write_next(data[f.map.records_of(p)])

        env.run(env.all_of([env.process(worker(p)) for p in range(2)]))
        return env.now

    bare = write_phase(None)
    assert write_phase(ResilienceConfig(protection="shadow", spares=0)) == pytest.approx(bare)


def test_resilver_timed_pays_copy_cost_and_restores():
    env = Environment()
    pair, p, s = make_pair(env, spares=1)

    def proc():
        yield pair.write(0, 0, b"precious")
        p.fail()
        yield pair.write(0, 8, b"newer")    # survivor-only data
        t0 = env.now
        yield pair.rv.rebuilder.start(0)
        return env.now - t0

    elapsed = env.run(env.process(proc()))
    assert elapsed > 0
    assert pair.rv.stats.rebuild_bytes >= p.capacity_bytes
    assert bytes(pair.data[0].peek(0, 13)) == b"preciousnewer"
    assert pair.redundant()


def test_resilver_timed_noop_when_both_alive():
    env = Environment()
    pair, p, s = make_pair(env, spares=1)
    rebuilder = pair.rv.rebuilder
    assert not rebuilder.can_rebuild(0) and not rebuilder.can_rebuild(1)
    with pytest.raises(RuntimeError):
        rebuilder.start(0)


def test_resilver_timed_no_survivor():
    env = Environment()
    pair, p, s = make_pair(env, spares=1)
    p.fail()
    s.fail()
    env.run(pair.rv.rebuilder.start(1))  # the mirror, from a dead data drive
    ((index, exc),) = pair.rv.rebuilder.failures
    assert index == 1 and isinstance(exc, DeviceFailedError)
    assert pair.rv.rebuilder.spares  # the spare went back to the pool


def test_concurrent_reads_with_one_member_failed():
    """Many clients reading at once while one member is dead: every read
    is served (by the survivor) and returns the mirrored data."""
    env = Environment()
    pair, p, s = make_pair(env)
    results = {}

    def seed_then_fail():
        for i in range(8):
            yield pair.write(0, i * 512, bytes([i]) * 512)
        p.fail()

    env.run(env.process(seed_then_fail()))

    def reader(i):
        data = yield pair.read(0, i * 512, 512)
        results[i] = bytes(data)

    for i in range(8):
        env.process(reader(i))
    env.run()

    assert len(results) == 8
    for i in range(8):
        assert results[i] == bytes([i]) * 512


def test_concurrent_mixed_load_mid_run_failure_retry_succeeds():
    """A member dying under concurrent load fails none of the reads in
    flight: the resilient volume re-serves them from the other member."""
    env = Environment()
    pair, p, s = make_pair(env)
    done = []
    env.run(pair.write(0, 0, b"\xAA" * 4096))

    def client(i):
        data = yield pair.read(0, i * 512, 512)
        assert bytes(data) == b"\xAA" * 512
        done.append(i)

    def killer():
        yield env.timeout(0.0015)  # while the queues are busy
        p.fail()

    for i in range(6):
        env.process(client(i))
    env.process(killer())
    env.run()

    assert sorted(done) == list(range(6))
    assert p.failed and not s.failed
    assert pair.rv.stats.degraded_reads > 0
