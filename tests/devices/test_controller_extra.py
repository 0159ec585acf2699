"""Additional device controller coverage: service logs, queue
interactions."""

import numpy as np
import pytest

from repro.devices import (
    RAM_DEVICE,
    WREN_1989,
    DeviceController,
    DiskGeometry,
    DiskModel,
)
from repro.sim import Environment


def make(env, *, keep_service_log=False, timing=WREN_1989):
    geo = DiskGeometry(block_size=512, blocks_per_cylinder=8, cylinders=64)
    return DeviceController(
        env, DiskModel(geo, timing), name="d0", keep_service_log=keep_service_log,
    )


class TestServiceLog:
    def test_disabled_by_default(self):
        env = Environment()
        assert make(env).service_log is None

    def test_intervals_recorded_in_order(self):
        env = Environment()
        dev = make(env, keep_service_log=True)

        def proc():
            yield dev.write(0, b"a" * 512)
            yield dev.read(512, 512)

        env.run(env.process(proc()))
        log = dev.service_log
        assert len(log) == 2
        assert log[0].kind == "write" and log[1].kind == "read"
        assert log[0].end <= log[1].start
        assert all(iv.end > iv.start for iv in log)

    def test_interval_offsets_and_sizes(self):
        env = Environment()
        dev = make(env, keep_service_log=True)

        def proc():
            yield dev.read(1024, 256)

        env.run(env.process(proc()))
        iv = dev.service_log[0]
        assert iv.offset == 1024 and iv.nbytes == 256


class TestQueueBehaviour:
    def test_queue_length_reflects_backlog(self):
        env = Environment()
        dev = make(env, timing=RAM_DEVICE)
        observed = []

        def submitter():
            for _ in range(5):
                dev.read(0, 512)
            observed.append(dev.queue_length)
            if False:
                yield

        env.process(submitter())
        env.run()
        # all 5 submitted instantly; at least 4 were queued behind the
        # first before service began
        assert observed[0] >= 4
        assert dev.queue_length == 0  # drained by the end

    def test_zero_byte_io(self):
        env = Environment()
        dev = make(env)

        def proc():
            n = yield dev.write(0, b"")
            data = yield dev.read(0, 0)
            return n, len(data)

        assert env.run(env.process(proc())) == (0, 0)


class TestQueueStat:
    def test_time_weighted_queue_length(self):
        env = Environment()
        dev = make(env, timing=RAM_DEVICE)

        def submitter():
            # 4 requests land at t=0; with ~zero service time they drain fast
            for _ in range(4):
                dev.read(0, 512)
            if False:
                yield

        env.process(submitter())
        env.run()
        # the queue existed, then drained to zero
        assert dev.queue_stat.max >= 3
        assert dev.queue_stat.current == 0

    def test_mean_queue_grows_with_load(self):
        def run(n_concurrent):
            env = Environment()
            dev = make(env)

            def client():
                for _ in range(10):
                    yield dev.read(0, 512)

            for _ in range(n_concurrent):
                env.process(client())
            env.run()
            return dev.queue_stat.mean(env.now)

        assert run(8) > run(1)
