"""Integration tests: end-to-end scenarios crossing every layer.

Each test is a miniature of one of the paper's usage stories, run through
the full stack (organization map -> file system -> layout -> volume ->
device controllers -> disk models) and checked for both correctness and
the expected performance *shape*.
"""

import numpy as np
import pytest

from repro import (
    Environment,
    FileOrganization,
    SSSession,
    TraceRecorder,
    alternate_view,
    build_parallel_fs,
    convert_file,
    verify_file,
)
from repro.buffering import BufferPool
from repro.devices import DiskGeometry
from repro.workloads import WrappedMatrix, parallel_matvec, run_task_queue


def payload(n, items=2, seed=0):
    return np.random.default_rng(seed).random((n, items))


class TestProducerConsumerPipeline:
    """An S-type producer partitions data on the fly to PS consumers
    through a second file — the §3.1 Type S usage."""

    def test_distribute_and_gather(self):
        env = Environment()
        pfs = build_parallel_fs(env, 4)
        n, p = 64, 4
        src = pfs.create("input", "S", n_records=n, record_size=16,
                         dtype="float64", records_per_block=4)
        dst = pfs.create("staged", "PS", n_records=n, record_size=16,
                         dtype="float64", records_per_block=4, n_processes=p)
        data = payload(n)

        def producer():
            yield from src.global_view().write(data)
            # read sequentially, assign to consumers' partitions
            reader = src.internal_view(0)
            writer = dst.global_view()
            while not reader.eof:
                chunk = yield from reader.read_next(8)
                yield from writer.write(chunk)

        def consumer(q, out):
            h = dst.internal_view(q)
            rows = yield from h.read_next(h.n_local_records)
            out[q] = rows

        out = {}
        prod = env.process(producer())

        def driver():
            yield prod
            children = [env.process(consumer(q, out)) for q in range(p)]
            yield env.all_of(children)

        env.run(env.process(driver()))
        got = np.concatenate([out[q] for q in range(p)])
        assert np.array_equal(got, data)


class TestMatrixSolverPipeline:
    """Wrapped matrix + self-scheduled task queue, the two §3.1 app shapes."""

    def test_matvec_then_queue(self):
        env = Environment()
        pfs = build_parallel_fs(env, 4)
        rng = np.random.default_rng(1)
        A = rng.random((12, 6))
        x = rng.random(6)
        m = WrappedMatrix(pfs, "A", 12, 6, n_processes=4)

        def driver():
            yield from m.store(A)
            children = [env.process(parallel_matvec(m, q, x)) for q in range(4)]
            results = yield env.all_of(children)
            y = np.zeros(12)
            for idx, part in results.values():
                y[idx] = part
            return y

        y = env.run(env.process(driver()))
        assert np.allclose(y, A @ x)

        # feed y into a self-scheduled normalization queue
        tasks = pfs.create("tasks", "SS", n_records=12, record_size=8,
                           dtype="float64", records_per_block=1, n_processes=4)

        def store_tasks():
            yield from tasks.global_view().write(y.reshape(12, 1))

        env.run(env.process(store_tasks()))
        sessions, stats, procs = run_task_queue(
            tasks, n_workers=4, service_time=lambda b, d: float(abs(d[0, 0])) * 0.01
        )
        env.run()
        sessions[0].validate()
        assert sum(s.tasks for s in stats) == 12


class TestCheckpointRestart:
    """Specialized parallel file for checkpointing (§2 category 2)."""

    def test_checkpoint_write_crash_restore(self):
        env = Environment()
        pfs = build_parallel_fs(env, 4)
        n, p = 48, 4
        state = pfs.create(
            "ckpt", "PS", n_records=n, record_size=16, dtype="float64",
            records_per_block=4, n_processes=p,
        )
        version1 = payload(n, seed=10)

        def checkpoint(q):
            h = state.internal_view(q)
            recs = state.map.records_of(q)
            yield from h.write_next(version1[recs])

        def driver():
            children = [env.process(checkpoint(q)) for q in range(p)]
            yield env.all_of(children)

        env.run(env.process(driver()))
        assert verify_file(state, version1)

        # "crash": new environment pretends a restart; file survives in
        # catalog + devices, reopen and read back
        reopened = pfs.open("ckpt")

        def restore(q, out):
            h = reopened.internal_view(q)
            out[q] = yield from h.read_next(h.n_local_records)

        out = {}

        def driver2():
            children = [env.process(restore(q, out)) for q in range(p)]
            yield env.all_of(children)

        env.run(env.process(driver2()))
        got = np.concatenate([out[q] for q in range(p)])
        assert np.array_equal(got, version1)


class TestMismatchWorkflow:
    """Full §5 scenario: PS writer, IS consumer, all three remedies."""

    def test_all_three_remedies_agree(self):
        env = Environment()
        pfs = build_parallel_fs(env, 4)
        n, p = 96, 4
        f = pfs.create("mismatch", "PS", n_records=n, record_size=16,
                       dtype="float64", records_per_block=4, n_processes=p)
        data = payload(n, seed=3)

        def setup():
            yield from f.global_view().write(data)

        env.run(env.process(setup()))

        from repro.core import BlockSpec, InterleavedMap, RecordSpec

        is_map = InterleavedMap(
            BlockSpec(RecordSpec(16, "float64"), 4), n, p
        )
        want = data[is_map.records_of(2)]

        # remedy 1: degraded alternate-view interface
        def via_alternate():
            h = alternate_view(f, "IS", 2)
            out = yield from h.read_next(h.n_local_records)
            return out

        assert np.array_equal(env.run(env.process(via_alternate())), want)

        # remedy 2: global-view fallback (consumer reads everything)
        def via_global():
            out = yield from f.global_view().read()
            return out

        got_all = env.run(env.process(via_global()))
        assert np.array_equal(got_all[is_map.records_of(2)], want)

        # remedy 3: conversion utility
        def via_convert():
            g = yield from convert_file(pfs, f, "converted", "IS")
            h = g.internal_view(2)
            out = yield from h.read_next(h.n_local_records)
            return out

        assert np.array_equal(env.run(env.process(via_convert())), want)


class TestStripingSpeedupShape:
    """E1 in miniature: more devices -> proportionally faster S scans."""

    def test_speedup_monotone(self):
        times = {}
        for d in (1, 2, 4, 8):
            env = Environment()
            pfs = build_parallel_fs(
                env, d, geometry=DiskGeometry(block_size=512,
                                              blocks_per_cylinder=8,
                                              cylinders=256),
            )
            f = pfs.create("scan", "S", n_records=512, record_size=512,
                           records_per_block=8, stripe_unit=4096)

            def run():
                yield from f.global_view().write(
                    np.zeros((512, 512), dtype=np.uint8)
                )
                start = env.now
                v = f.global_view()
                v.seek(0)
                yield from v.read()
                return env.now - start

            times[d] = env.run(env.process(run()))
        assert times[2] < times[1]
        assert times[4] < times[2]
        assert times[8] < times[4]
        assert times[1] / times[8] > 3  # strong scaling, sublinear is fine


class TestTracedFigure1:
    """The Figure 1 access patterns fall out of real traces."""

    def test_is_trace_matches_figure(self):
        env = Environment()
        rec = TraceRecorder()
        pfs = build_parallel_fs(env, 3, recorder=rec)
        f = pfs.create("fig", "IS", n_records=12, record_size=8,
                       records_per_block=2, n_processes=3)

        def setup():
            yield from f.global_view().write(np.zeros((12, 8), dtype=np.uint8))

        env.run(env.process(setup()))
        rec.clear()

        def reader(q):
            h = f.internal_view(q)
            while h.blocks_remaining:
                yield from h.read_next_block()

        def driver():
            yield env.all_of([env.process(reader(q)) for q in range(3)])

        env.run(env.process(driver()))
        assert rec.blocks_by_process(f.name) == {
            0: [0, 3], 1: [1, 4], 2: [2, 5],
        }


class TestSingleVsParallelDeviceBaseline:
    def test_conventional_fs_works_but_slower(self):
        def run(pfs_builder):
            env = Environment()
            pfs = pfs_builder(env)
            f = pfs.create("x", "S", n_records=256, record_size=512,
                           records_per_block=8)

            def go():
                yield from f.global_view().write(
                    np.zeros((256, 512), dtype=np.uint8)
                )

            env.run(env.process(go()))
            return env.now

        t1 = run(lambda env: build_parallel_fs(env, 1))
        t4 = run(lambda env: build_parallel_fs(env, 4))
        assert t4 < t1
