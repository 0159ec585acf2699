"""Unit tests for the WFQ scheduler and its queue adapters."""

import pytest

from repro.qos import QoSClass, Tenant, WeightedFairQueue
from repro.qos.scheduler import TenantStore
from repro.sim import Environment


def make_tenant(env, name, weight=1.0):
    return Tenant(env, QoSClass(name, weight=weight))


def drain_order(sched, tags):
    """Serve every tag in scheduler order; return the service sequence."""
    order = []
    waiting = list(tags)
    while waiting:
        best = min(waiting, key=sched.key)
        sched.dispatch(best)
        waiting.remove(best)
        order.append(best)
    return order


def test_mode_validation():
    with pytest.raises(ValueError):
        WeightedFairQueue(mode="lifo")


def test_wfq_interleaves_by_weight():
    env = Environment()
    sched = WeightedFairQueue()
    gold = make_tenant(env, "gold", weight=3.0)
    bronze = make_tenant(env, "bronze", weight=1.0)
    # both tenants arrive with a deep backlog of unit-cost requests
    tags = [sched.tag(gold, 100) for _ in range(9)]
    tags += [sched.tag(bronze, 100) for _ in range(3)]
    order = drain_order(sched, tags)
    # over the contended run, every bronze service is preceded by ~3 gold ones
    first_six = [t.tenant.name for t in order[:8]]
    assert first_six.count("gold") >= 6  # 3:1 share, not alternation


def test_wfq_fifo_within_one_tenant():
    env = Environment()
    sched = WeightedFairQueue()
    t = make_tenant(env, "only")
    tags = [sched.tag(t, 100) for _ in range(8)]
    order = drain_order(sched, tags)
    assert [tag.seq for tag in order] == sorted(tag.seq for tag in tags)


def test_equal_tags_break_ties_by_arrival():
    env = Environment()
    sched = WeightedFairQueue()
    a = make_tenant(env, "a")
    b = make_tenant(env, "b")
    # same weight, same cost, both starting at virtual time zero: the
    # start tags are equal, so seq (arrival order) must decide
    t1 = sched.tag(a, 100)
    t2 = sched.tag(b, 100)
    assert sched.key(t1) < sched.key(t2)


def test_idle_tenant_does_not_bank_credit():
    env = Environment()
    sched = WeightedFairQueue()
    busy = make_tenant(env, "busy")
    idle = make_tenant(env, "idle")
    for _ in range(50):
        sched.dispatch(sched.tag(busy, 100))
    late = sched.tag(idle, 100)
    # the newcomer starts at the current virtual time, not at zero: it
    # gets its fair share from now on but no retroactive claim
    assert late.start == pytest.approx(sched.virtual_time)


def test_fifo_mode_is_arrival_order():
    env = Environment()
    sched = WeightedFairQueue(mode="fifo")
    gold = make_tenant(env, "gold", weight=100.0)
    bronze = make_tenant(env, "bronze", weight=1.0)
    t1 = sched.tag(bronze, 100)
    t2 = sched.tag(gold, 100)
    order = drain_order(sched, [t1, t2])
    assert order == [t1, t2]  # weight ignored


def test_starvation_detection_fires_once_per_request():
    env = Environment()
    flagged = []
    sched = WeightedFairQueue(
        starvation_threshold=3, on_starvation=flagged.append
    )
    a = make_tenant(env, "a")
    victim = sched.tag(a, 100)
    # adversarially dispatch later arrivals past the waiting victim
    for _ in range(6):
        sched.dispatch(sched.tag(a, 100))
    assert len(flagged) == 1
    assert flagged[0] is victim
    assert victim.bypassed == 6
    assert sched.starvations == 1


def test_cancel_stops_bypass_accounting():
    env = Environment()
    flagged = []
    sched = WeightedFairQueue(
        starvation_threshold=2, on_starvation=flagged.append
    )
    a = make_tenant(env, "a")
    victim = sched.tag(a, 100)
    sched.cancel(victim)
    for _ in range(5):
        sched.dispatch(sched.tag(a, 100))
    assert not flagged
    assert sched.backlog == 0


class _Item:
    """A minimal NodeRequest stand-in for TenantStore tests."""

    def __init__(self, tenant, payload):
        self.tenant = tenant
        self.payload_bytes = payload
        self.submit_time = 0.0


def test_tenant_store_hands_out_scheduler_choice():
    env = Environment()
    gold = make_tenant(env, "gold", weight=3.0)
    bronze = make_tenant(env, "bronze", weight=1.0)
    sched = WeightedFairQueue()
    store = TenantStore(env, 16, sched, lambda t: t)
    taken = []

    def producer():
        # bronze arrives first, then a burst of gold
        yield store.put(_Item(bronze, 100))
        for _ in range(3):
            yield store.put(_Item(gold, 100))

    def consumer():
        yield env.timeout(0.001)
        for _ in range(4):
            item = yield store.get()
            taken.append(item.tenant.name)

    env.run(env.process(producer()))
    env.run(env.process(consumer()))
    # bronze's start tag equals gold's first (both zero) and it arrived
    # first, so it is served once; the gold burst is not starved behind it
    assert taken[0] == "bronze"
    assert taken[1:] == ["gold", "gold", "gold"]
    assert sched.dispatches == 4


def test_tenant_store_forget_unschedules():
    env = Environment()
    t = make_tenant(env, "t")
    sched = WeightedFairQueue()
    store = TenantStore(env, 16, sched, lambda _: t)

    def producer():
        yield store.put(_Item(t, 100))

    env.run(env.process(producer()))
    item = store.items[0]
    assert sched.backlog == 1
    store.forget(item)
    assert sched.backlog == 0
