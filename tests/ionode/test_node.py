"""Unit tests for the I/O-node server process: admission, batching, failures."""

import numpy as np
import pytest

from repro.devices import (
    WREN_1989,
    DeviceController,
    DeviceFailedError,
    DiskGeometry,
    DiskModel,
)
from repro.ionode import IONode
from repro.sanitize import EngineSanitizer, attach
from repro.sim import Environment


def make_devices(env, n):
    geo = DiskGeometry(block_size=512, blocks_per_cylinder=8, cylinders=64)
    return {
        i: DeviceController(env, DiskModel(geo, WREN_1989), name=f"d{i}")
        for i in range(n)
    }


def make_node(env, n_devices=2, **kwargs):
    return IONode(env, "ion0", make_devices(env, n_devices), **kwargs)


def client(node, kind, items, data=None, out=None):
    req = node.submit(kind, items, data=data)
    yield req.admitted
    try:
        value = yield req.event
        if out is not None:
            out.append(("ok", value))
    except Exception as exc:  # noqa: BLE001 - recording the outcome
        if out is not None:
            out.append(("err", exc))


def test_validation():
    env = Environment()
    with pytest.raises(ValueError):
        IONode(env, "x", {})
    with pytest.raises(ValueError):
        make_node(env, queue_depth=0)
    with pytest.raises(ValueError):
        make_node(env, batch_limit=0)
    node = make_node(env)
    with pytest.raises(ValueError):
        node.submit("peek", [(0, 0, 4)])
    with pytest.raises(ValueError):
        node.submit("read", [(9, 0, 4)])  # unowned device
    with pytest.raises(ValueError):
        node.submit("read", [(0, -1, 4)])
    with pytest.raises(ValueError):
        node.submit("write", [(0, 0, 4)])  # missing payload


def test_item_past_its_device_is_refused_at_submit():
    """Accepted, an item ending past its drive reaches the drive's range
    check inside the service loop: the run aborts and the well-formed
    request batched with it never settles."""
    env = Environment()
    node = make_node(env)
    capacity = node.devices[1].capacity_bytes
    out = []
    env.process(client(node, "read", [(0, 0, 512)], out=out))
    with pytest.raises(ValueError):
        node.submit("read", [(1, capacity - 256, 512)])
    env.run()
    assert [kind for kind, _ in out] == ["ok"]
    assert node.accepted == node.completed == 1
    node.assert_drained()


def test_write_payload_must_match_its_item():
    """A payload longer than its item would write past the item's range
    while the request reports the item's size."""
    env = Environment()
    node = make_node(env)
    for size in (1024, 256):
        with pytest.raises(ValueError):
            node.submit("write", [(0, 0, 512)], data=[np.ones(size, np.uint8)])
    env.run()
    assert node.accepted == 0
    assert not node.devices[0].peek(0, 1024).any()


def test_write_then_read_round_trip():
    env = Environment()
    node = make_node(env)
    out = []
    payload = np.arange(100, dtype=np.uint8)

    def run():
        yield from client(node, "write", [(0, 0, 100)], data=[payload])
        yield from client(node, "read", [(0, 0, 100)], out=out)

    env.run(env.process(run()))
    kind, arrays = out[0]
    assert kind == "ok"
    assert np.array_equal(arrays[0], payload)
    node.assert_drained()


def test_batch_coalesces_adjacent_clients():
    """Two clients reading adjacent ranges in one batch -> one device read."""
    env = Environment()
    node = make_node(env, n_devices=1)
    seed = np.arange(200, dtype=np.uint8)
    node.devices[0].poke(0, seed)
    outs = [[], []]

    env.process(client(node, "read", [(0, 0, 100)], out=outs[0]))
    env.process(client(node, "read", [(0, 100, 100)], out=outs[1]))
    env.run()

    assert node.device_reads == 1
    assert node.items_in == 2
    assert node.coalescing_ratio == 2.0
    assert np.array_equal(outs[0][0][1][0], seed[:100])
    assert np.array_equal(outs[1][0][1][0], seed[100:])


def test_strided_batch_is_sieved():
    env = Environment()
    node = make_node(env, n_devices=1)
    out = []
    # 4 x 64 bytes with 64-byte holes: span 448 <= 4 * 256 -> sieve
    items = [(0, k * 128, 64) for k in range(4)]

    env.process(client(node, "read", items, out=out))
    env.run()

    assert node.device_reads == 1
    assert node.sieved_batches == 1
    assert node.sieve_waste_bytes == 448 - 256
    assert node.device_bytes_read == 448
    assert node.read_delivered_bytes == node.read_requested_bytes == 256
    node.assert_drained()


def test_admission_control_backpressure():
    """With a full inbox, later clients block at submission until space frees."""
    env = Environment()
    node = make_node(env, n_devices=1, queue_depth=1, batch_limit=1)
    admitted_at = {}

    def timed_client(i):
        req = node.submit("read", [(0, 0, 512)])
        yield req.admitted
        admitted_at[i] = env.now
        yield req.event

    for i in range(4):
        env.process(timed_client(i))
    env.run()

    assert admitted_at[0] == 0.0
    # clients beyond the queue bound were admitted strictly later
    assert admitted_at[3] > 0.0
    assert node.accepted == node.completed == 4
    node.assert_drained()


def test_failed_device_fails_request_not_node():
    env = Environment()
    node = make_node(env, n_devices=2)
    node.devices[0].fail()
    outs = [[], []]

    def run():
        yield from client(node, "read", [(0, 0, 64)], out=outs[0])
        yield from client(node, "read", [(1, 0, 64)], out=outs[1])

    env.run(env.process(run()))
    assert outs[0][0][0] == "err"
    assert isinstance(outs[0][0][1], DeviceFailedError)
    # the node survived and serviced the healthy device afterwards
    assert outs[1][0][0] == "ok"
    node.assert_drained()


def test_mixed_batch_failure_only_hits_touching_requests():
    env = Environment()
    node = make_node(env, n_devices=2)
    node.devices[1].fail()
    outs = [[], []]

    env.process(client(node, "read", [(0, 0, 64)], out=outs[0]))
    env.process(client(node, "read", [(1, 0, 64)], out=outs[1]))
    env.run()

    assert outs[0][0][0] == "ok"
    assert outs[1][0][0] == "err"
    node.assert_drained()


def test_server_cache_absorbs_repeat_reads():
    env = Environment()
    node = make_node(
        env, n_devices=1, cache_blocks=16, cache_block_bytes=512
    )
    out = []

    def run():
        yield from client(node, "write", [(0, 0, 512)], data=[np.zeros(512, np.uint8)])
        yield from client(node, "read", [(0, 0, 512)], out=out)
        before = node.device_reads
        yield from client(node, "read", [(0, 128, 256)], out=out)
        return before

    before = env.run(env.process(run()))
    assert node.device_reads == before  # second read served from cache
    assert node.cache.hits >= 1
    assert np.array_equal(out[1][1][0], np.zeros(256, np.uint8))
    node.assert_drained()


def test_batch_overlapping_read_and_write_never_caches_stale_bytes():
    """A batch holding an overlapping read and write (an app-level race
    the access sanitizer flags): seek scheduling may serve the read
    first, capturing pre-write bytes — the write's cache effect must
    still win, or every later client is served a stale block."""
    from repro.devices import SSTF

    env = Environment()
    geo = DiskGeometry(block_size=512, blocks_per_cylinder=1, cylinders=64)
    dev = DeviceController(env, DiskModel(geo, WREN_1989), name="d0", policy=SSTF())
    dev.poke(0, np.full(1024, 0xAA, np.uint8))
    node = IONode(env, "ion0", {0: dev}, cache_blocks=8, cache_block_bytes=512)
    arrays = []

    def scenario():
        # same batch: write block 1 (cylinder 1) + a read coalescing into
        # blocks 0-1 (starting at cylinder 0, where the head is) — SSTF
        # serves the read first, so it captures the pre-write bytes
        wreq = node.submit(
            "write", [(0, 512, 512)], data=[np.full(512, 0xBB, np.uint8)]
        )
        rreq = node.submit("read", [(0, 0, 512), (0, 512, 512)])
        yield wreq.admitted
        yield rreq.admitted
        yield wreq.event
        arrays.extend((yield rreq.event))

    env.run(env.process(scenario()))
    env.run()
    assert bytes(arrays[1]) == b"\xaa" * 512  # the read did race the write
    assert bytes(dev.peek(512, 512)) == b"\xbb" * 512  # the write landed
    cached = node.cache.lookup(0, 512, 512)
    assert cached is not None and bytes(cached) == b"\xbb" * 512
    node.assert_drained()


def test_assert_drained_flags_unserviced_requests():
    env = Environment()
    node = make_node(env)
    node.submit("read", [(0, 0, 8)])
    with pytest.raises(RuntimeError):
        node.assert_drained()


def test_sanitizer_checks_fire_and_stay_clean():
    env = Environment()
    sanitizer = attach(env)
    node = make_node(env, n_devices=2, queue_depth=2)
    for i in range(6):
        env.process(client(node, "read", [(i % 2, 64 * i, 64)]))
    env.run()
    sanitizer.check_nodes_drained()
    assert node in sanitizer._nodes
    sanitizer.assert_clean()


def test_sanitizer_flags_lost_request():
    env = Environment()
    node = make_node(env)
    # standalone (not attached to the env): seeding violations on purpose
    sanitizer = EngineSanitizer(env)
    sanitizer.register_node(node)
    env.run(env.process(client(node, "read", [(0, 0, 8)])))
    node.accepted += 1  # corrupt the books: one accepted request vanished
    sanitizer.check_nodes_drained()
    assert {v.kind for v in sanitizer.violations} == {"ionode-undrained"}
    sanitizer.on_ionode(node)
    assert "ionode-lost-request" in {v.kind for v in sanitizer.violations}


def test_sanitizer_flags_byte_conservation_breach():
    env = Environment()
    node = make_node(env)
    sanitizer = EngineSanitizer(env)  # standalone: seeding on purpose
    env.run(env.process(client(node, "read", [(0, 0, 8)])))
    node.read_delivered_bytes -= 1  # pretend a byte went missing
    sanitizer.on_ionode(node)
    kinds = {v.kind for v in sanitizer.violations}
    assert "ionode-byte-conservation" in kinds
