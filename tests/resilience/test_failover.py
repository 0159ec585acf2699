"""Unit tests for node failover: breaker, crash/re-route/replay, injector."""

import numpy as np
import pytest

from repro.ionode import IONodeConfig
from repro.resilience import CircuitBreaker, FailoverManager, NodeFaultInjector
from repro.resilience.stats import ResilienceStats
from repro.sim import Environment

from ..fs.conftest import build_stack


def advance(env, dt):
    def wait():
        yield env.timeout(dt)

    env.run(env.process(wait()))


def make_cluster(env, n_nodes=2, resilience=None, **kw):
    pfs = build_stack(
        env, io_nodes=IONodeConfig(nodes=n_nodes, **kw), resilience=resilience
    )
    return pfs, pfs.io_cluster


# -- circuit breaker --------------------------------------------------------


def test_breaker_validation():
    env = Environment()
    with pytest.raises(ValueError):
        CircuitBreaker(env, threshold=0)
    with pytest.raises(ValueError):
        CircuitBreaker(env, cooldown=-1)


def test_breaker_trips_at_threshold():
    env = Environment()
    br = CircuitBreaker(env, threshold=3, cooldown=1.0)
    assert br.state == "closed" and br.allow()
    assert br.record_failure() is False
    assert br.record_failure() is False
    assert br.state == "closed"
    assert br.record_failure() is True  # the trip
    assert br.state == "open" and not br.allow()
    assert br.trips == 1
    assert br.record_failure() is False  # already open: no second trip


def test_breaker_half_open_probe_outcomes():
    env = Environment()
    br = CircuitBreaker(env, threshold=1, cooldown=0.5)
    br.record_failure()
    assert br.state == "open"
    advance(env, 0.5)
    assert br.state == "half-open" and br.allow()
    assert br.record_failure() is True  # failed probe re-opens (a new trip)
    assert br.state == "open" and br.trips == 2
    advance(env, 0.5)
    assert br.state == "half-open"
    br.record_success()
    assert br.state == "closed" and br.allow()


# -- failover manager -------------------------------------------------------


def test_fail_node_reroutes_devices_to_survivors():
    env = Environment()
    pfs, cluster = make_cluster(env, n_nodes=2)
    stats = ResilienceStats()
    mgr = FailoverManager(env, cluster, stats)
    moved = cluster.router.devices_of(0)
    assert moved  # contiguous policy: node 0 owns some devices
    salvaged = mgr.fail_node(0)
    assert salvaged == []  # nothing was in flight
    for dev in moved:
        assert cluster.router.node_of(dev) == 1
        assert dev in cluster.nodes[1].devices
    assert cluster.nodes[0].crashed
    assert stats.failovers == 1
    assert mgr.fail_node(0) == []  # idempotent on an already-dead node


def test_fail_node_with_no_survivor_raises():
    env = Environment()
    pfs, cluster = make_cluster(env, n_nodes=1)
    mgr = FailoverManager(env, cluster)
    with pytest.raises(RuntimeError):
        mgr.fail_node(0)


def test_in_flight_requests_replay_on_survivors():
    env = Environment()
    pfs, cluster = make_cluster(env, n_nodes=2, queue_depth=1)
    stats = ResilienceStats()
    mgr = FailoverManager(env, cluster, stats)
    node0 = cluster.nodes[0]
    dev0 = pfs.volume.devices[0]
    dev0.poke(0, bytes(range(64)))
    outcomes = {}

    def client(tag, kind, items, data=None):
        req = node0.submit(kind, items, data=data)
        yield req.admitted
        value = yield req.event
        outcomes[tag] = value

    def scenario():
        # r1 is picked up by the service loop; r2 sits queued; r3 blocks
        # at admission (queue_depth=1) — the crash must salvage all three
        env.process(client("r1", "read", [(0, 0, 64)]))
        yield env.timeout(1e-4)
        env.process(client("r2", "read", [(1, 0, 32)]))
        env.process(
            client("w3", "write", [(1, 64, 16)], data=[np.full(16, 9, np.uint8)])
        )
        yield env.timeout(1e-5)
        mgr.fail_node(0)

    env.run(env.process(scenario()))
    env.run()
    assert bytes(outcomes["r1"][0]) == bytes(range(64))
    assert len(outcomes["r2"][0]) == 32
    assert outcomes["w3"] == 16
    assert bytes(pfs.volume.devices[1].peek(64, 16)) == bytes([9] * 16)
    assert node0.migrated == 3
    assert stats.migrated_requests == 3
    mgr.assert_settled()
    for node in cluster.nodes:
        node.assert_drained()


def test_crash_in_submit_handoff_window_salvages_the_request():
    """A request handed to the loop's pending get (but not yet resumed)
    must not be lost by a crash in the same zero-time instant."""
    env = Environment()
    pfs, cluster = make_cluster(env, n_nodes=2)
    mgr = FailoverManager(env, cluster)
    node0 = cluster.nodes[0]
    pfs.volume.devices[0].poke(0, b"\x5a" * 32)
    got = []

    def scenario():
        req = node0.submit("read", [(0, 0, 32)])
        mgr.fail_node(0)  # same instant: the loop never resumed its get
        yield req.admitted
        arrays = yield req.event
        got.append(bytes(arrays[0]))

    env.run(env.process(scenario()))
    env.run()
    assert got == [b"\x5a" * 32]
    assert node0.migrated == 1
    mgr.assert_settled()
    node0.assert_drained()


def test_a_replays_transient_failure_counts_on_the_survivors_breaker():
    """A replay goes down the client request path: its outcome feeds the
    breaker of the node it lands on, and its error reaches the client."""
    from repro.devices import TransientIOError

    env = Environment()
    pfs, cluster = make_cluster(env, n_nodes=2)
    mgr = FailoverManager(env, cluster, breaker_threshold=3)
    pfs.volume.devices[0].transient_error_budget += 1
    seen = []

    def scenario():
        req = cluster.nodes[0].submit("read", [(0, 0, 32)])
        mgr.fail_node(0)  # salvaged before service: replayed on node 1
        yield req.admitted
        try:
            yield req.event
        except TransientIOError as exc:
            seen.append(type(exc).__name__)

    env.run(env.process(scenario()))
    env.run()
    assert seen == ["TransientIOError"]
    assert mgr.breaker(1)._failures == 1
    assert not cluster.nodes[1].crashed
    mgr.assert_settled()


def test_breaker_trip_quarantines_the_node():
    env = Environment()
    pfs, cluster = make_cluster(env, n_nodes=2)
    stats = ResilienceStats()
    mgr = FailoverManager(env, cluster, stats, breaker_threshold=2)
    mgr.note_request_failure(1)
    assert not cluster.nodes[1].crashed
    mgr.note_request_failure(1)  # trip
    assert cluster.nodes[1].crashed
    assert stats.quarantined_nodes == 1
    for dev in cluster.nodes[1].devices:
        assert cluster.router.node_of(dev) == 0


def test_last_node_standing_is_never_quarantined():
    env = Environment()
    pfs, cluster = make_cluster(env, n_nodes=1)
    mgr = FailoverManager(env, cluster, breaker_threshold=1)
    mgr.note_request_failure(0)
    assert not cluster.nodes[0].crashed  # keep limping rather than go dark


def test_request_success_resets_the_breaker():
    env = Environment()
    pfs, cluster = make_cluster(env, n_nodes=2)
    mgr = FailoverManager(env, cluster, breaker_threshold=2)
    mgr.note_request_failure(0)
    mgr.note_request_success(0)
    mgr.note_request_failure(0)  # would have tripped without the reset
    assert not cluster.nodes[0].crashed


# -- breaker wiring through the client I/O paths ----------------------------


def test_glitches_interleaved_with_successes_never_quarantine():
    """The real client I/O path feeds the breaker in BOTH directions:
    transient request failures count toward the threshold, and a
    completed request resets the count — so failures accumulated over a
    whole run, interleaved with successes, never quarantine a healthy
    node."""
    from repro.resilience import ResilienceConfig, RetryError, RetryPolicy
    from repro.storage import StripedLayout

    env = Environment()
    pfs, cluster = make_cluster(
        env,
        n_nodes=2,
        resilience=ResilienceConfig(
            protection=None,
            spares=0,
            breaker_threshold=2,
            retry=RetryPolicy(max_attempts=1),
        ),
    )
    rv = pfs.resilience
    layout = StripedLayout(4, 512)
    extent = pfs.volume.allocate(layout, 2048)
    dev0 = pfs.volume.devices[0]
    br = rv.failover.breaker(cluster.router.node_of(0))

    dev0.transient_error_budget += 1
    with pytest.raises(RetryError):
        env.run(rv.read(extent, layout, [(0, 512)]))
    assert br._failures == 1  # the client path fed the breaker
    env.run(rv.read(extent, layout, [(0, 512)]))  # clean request
    assert br._failures == 0  # ...and the success reset it
    dev0.transient_error_budget += 1
    with pytest.raises(RetryError):
        env.run(rv.read(extent, layout, [(0, 512)]))
    assert br._failures == 1  # no trip: the failures never accumulated
    assert not any(n.crashed for n in cluster.nodes)
    assert rv.stats.quarantined_nodes == 0


# -- owner resolution across the message flight ------------------------------


def test_client_request_crossing_a_failover_lands_at_the_new_owner():
    """A node crash during the request-message flight re-routes the
    request to the device's current owner instead of failing it — the
    caller never learns its server changed."""
    from repro.resilience import ResilienceConfig

    env = Environment()
    pfs, cluster = make_cluster(
        env, n_nodes=2, resilience=ResilienceConfig(protection=None, spares=0)
    )
    rv = pfs.resilience
    mv = rv.inner
    pfs.volume.devices[0].poke(0, b"\x7e" * 64)
    got = []

    def scenario():
        proc = env.process(mv._client_read([(0, 0, 64)]))
        yield env.timeout(cluster.interconnect.request_cost() / 2)
        rv.failover.fail_node(0)  # mid-flight: device 0 moves to node 1
        (data,) = yield proc
        got.append(bytes(data))

    env.run(env.process(scenario()))
    env.run()
    assert got == [b"\x7e" * 64]
    assert cluster.router.node_of(0) == 1
    rv.failover.assert_settled()


def test_node_op_crossing_a_failover_lands_at_the_new_owner():
    """Same window through the resilience layer's per-device node request
    (the degraded-read path's one-item client read)."""
    from repro.resilience import ResilienceConfig

    env = Environment()
    pfs, cluster = make_cluster(
        env, n_nodes=2, resilience=ResilienceConfig(protection=None, spares=0)
    )
    rv = pfs.resilience
    pfs.volume.devices[0].poke(0, b"\x5c" * 32)
    got = []

    def scenario():
        proc = rv._plane_read(0, 0, 32)
        yield env.timeout(cluster.interconnect.request_cost() / 2)
        rv.failover.fail_node(0)
        data = yield proc
        got.append(bytes(data))

    env.run(env.process(scenario()))
    env.run()
    assert got == [b"\x5c" * 32]


# -- fault injector ---------------------------------------------------------


def test_injector_validation():
    env = Environment()
    pfs, cluster = make_cluster(env)
    inj = NodeFaultInjector(env, FailoverManager(env, cluster))
    with pytest.raises(ValueError):
        inj.crash_at(9, 1.0)
    advance(env, 1.0)
    with pytest.raises(ValueError):
        inj.crash_at(0, 0.5)  # in the past


def test_injector_crashes_at_the_scheduled_time():
    env = Environment()
    pfs, cluster = make_cluster(env)
    mgr = FailoverManager(env, cluster)
    inj = NodeFaultInjector(env, mgr)
    inj.crash_at(0, 0.25)
    inj.crash_at(0, 0.5)  # second crash of a dead node: skipped
    env.run()
    assert inj.crashes == [(0, pytest.approx(0.25))]
    assert cluster.nodes[0].crashed
