"""Unit tests for the QoS manager: registry, context propagation, gates."""

import pytest

from repro.qos import QoSConfig, QoSManager, Tenant
from repro.sanitize import EngineSanitizer
from repro.sim import Environment


def seeded_sanitizer(env):
    """A sanitizer owned by this test, not the --sanitize harness.

    These tests seed violations on purpose; routing them into the
    suite-wide collector would fail the run at teardown.
    """
    san = EngineSanitizer(env)
    env._sanitizer = san
    return san


def test_config_validation():
    with pytest.raises(ValueError):
        QoSConfig(scheduler="lifo")
    with pytest.raises(ValueError):
        QoSConfig(starvation_threshold=0)


def test_tenant_registry_get_or_create():
    env = Environment()
    mgr = QoSManager(env)
    gold = mgr.tenant("gold", weight=3.0)
    assert mgr.tenant("gold") is gold  # first definition wins
    assert gold.weight == 3.0
    assert isinstance(mgr.default_tenant, Tenant)
    assert mgr.resolve(None) is mgr.default_tenant
    assert mgr.resolve(gold) is gold
    assert mgr.resolve("gold") is gold
    assert mgr.resolve("nobody") is mgr.default_tenant


def test_spawn_sets_ambient_tenant_and_children_inherit():
    env = Environment()
    mgr = QoSManager(env)
    gold = mgr.tenant("gold", weight=3.0)
    seen = []

    def child():
        seen.append(("child", env.active_process.qos_tenant))
        yield env.timeout(0)

    def parent():
        seen.append(("parent", env.active_process.qos_tenant))
        yield env.process(child())

    env.run(mgr.spawn(gold, parent()))
    assert seen == [("parent", gold), ("child", gold)]


def test_unspawned_processes_are_untagged():
    env = Environment()
    mgr = QoSManager(env)

    def plain():
        yield env.timeout(0)
        return mgr.active_tenant()

    assert env.run(env.process(plain())) is mgr.default_tenant


def test_admit_bills_blocked_time():
    env = Environment()
    mgr = QoSManager(env)
    slow = mgr.tenant("slow", rate=100.0, burst=50.0)

    def run():
        yield from mgr.admit(slow, 150)  # 100 over burst -> 1.0s wait

    env.run(mgr.spawn(slow, run()))
    assert env.now == pytest.approx(1.0)
    assert slow.blocked.count == 1
    assert slow.blocked.total == pytest.approx(1.0)


def test_admit_is_free_for_unthrottled_tenants():
    env = Environment()
    mgr = QoSManager(env)
    t = mgr.tenant("free")

    def run():
        yield from mgr.admit(t, 10**9)

    env.run(mgr.spawn(t, run()))
    assert env.now == 0.0
    assert t.blocked.count == 0


def test_check_buckets_clean_and_dirty():
    env = Environment()
    san = seeded_sanitizer(env)
    mgr = QoSManager(env)
    limited = mgr.tenant("limited", rate=100.0, burst=50.0)

    def run():
        yield from mgr.admit(limited, 120)

    env.run(mgr.spawn(limited, run()))
    mgr.check_buckets()
    assert san.clean  # lawful traffic: no violation
    # force an overdraw (as a buggy bucket would) and re-check
    limited.bucket.granted_total += 10**9
    mgr.check_buckets()
    assert not san.clean
    assert san.violations[0].kind == "qos-bucket-overrate"


def test_starvation_forwards_to_sanitizer():
    env = Environment()
    san = seeded_sanitizer(env)
    mgr = QoSManager(env, QoSConfig(starvation_threshold=2))
    sched = mgr.make_scheduler("dev0")
    t = mgr.tenant("t")
    sched.tag(t, 100)  # the victim, never dispatched
    for _ in range(4):
        sched.dispatch(sched.tag(t, 100))
    assert mgr.starvations == 1
    assert not san.clean
    assert san.violations[0].kind == "qos-starvation"
