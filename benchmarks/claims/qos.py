"""X8 — multi-tenant QoS: weighted-fair scheduling bounds tail latency.

A greedy batch tenant saturates one device with large reads while a light
interactive tenant issues small reads. Under plain FIFO the interactive
requests queue behind the whole batch backlog, so their p95 latency grows
with the greedy tenant's queue depth. Under WFQ (weights 1:1 here — the
point is isolation, not privilege) each tenant owns a virtual-time lane:
the interactive p95 is bounded by its own arrival rate, not by the
greedy tenant's backlog. The rows report per-op latency percentiles for
both schedulers plus the per-tenant QoS accounting.

Quick mode shrinks the simulated horizon.
"""

from repro import Environment, QoSConfig, build_parallel_fs
from repro.devices import DiskGeometry
from repro.sim import PercentileTally

GREEDY_WORKERS = 4
GREEDY_NBYTES = 8192
LIGHT_NBYTES = 1024
THINK = 0.004  # interactive think time between small reads
GEO = DiskGeometry(block_size=512, blocks_per_cylinder=8, cylinders=64)


def run_mix(scheduler, horizon):
    """One greedy + one interactive tenant on one device; returns stats."""
    env = Environment()
    pfs = build_parallel_fs(env, 1, geometry=GEO,
                            qos=QoSConfig(scheduler=scheduler))
    mgr = pfs.qos
    greedy = mgr.tenant("greedy")
    light = mgr.tenant("light")
    dev = pfs.volume.devices[0]
    lat = PercentileTally()

    def batch_worker(i):
        while True:
            yield dev.read(i * GREEDY_NBYTES, GREEDY_NBYTES)

    def interactive():
        while True:
            t0 = env.now
            yield dev.read(0, LIGHT_NBYTES)
            lat.observe(env.now - t0)
            yield env.timeout(THINK)

    for i in range(GREEDY_WORKERS):
        mgr.spawn(greedy, batch_worker(i), name=f"batch-{i}")
    mgr.spawn(light, interactive(), name="interactive")
    env.run(until=horizon)
    return {"lat": lat, "mgr": mgr, "greedy": greedy, "light": light}


def tenant_row(t, total_bytes) -> dict:
    """One tenant's accounting: weight, ops, bytes and share serviced,
    mean blocked / queued / in-service time, throttling."""

    def mean_ms(stat):
        return stat.mean * 1e3 if stat.count else 0.0

    return {
        "tenant": t.name, "weight": t.weight, "ops": t.ops,
        "serviced_bytes": t.serviced_bytes,
        "share": t.serviced_bytes / total_bytes if total_bytes else 0.0,
        "blocked_ms": mean_ms(t.blocked), "queued_ms": mean_ms(t.queued),
        "service_ms": mean_ms(t.service),
        "throttled_grants": t.bucket.throttled_grants if t.bucket is not None else None,
    }


def x8_qos_isolation(quick: bool) -> dict:
    """Rows: interactive op count and p50/p95/max latency per scheduler,
    then the per-tenant accounting under WFQ."""
    horizon = 1.0 if quick else 3.0
    out = {mode: run_mix(mode, horizon) for mode in ("fifo", "wfq")}
    rows = [
        {"scheduler": mode, "interactive_ops": r["lat"].count,
         "p50_ms": r["lat"].percentile(50) * 1e3,
         "p95_ms": r["lat"].percentile(95) * 1e3, "max_ms": r["lat"].max * 1e3}
        for mode, r in out.items()
    ]
    mgr = out["wfq"]["mgr"]
    total = sum(t.serviced_bytes for t in mgr.tenants.values())
    rows += [tenant_row(mgr.tenants[name], total) for name in sorted(mgr.tenants)]
    rows.append({"scheduler": mgr.config.scheduler, "queues": len(mgr.schedulers),
                 "starvations": mgr.starvations})
    fifo, wfq = out["fifo"]["lat"], out["wfq"]["lat"]
    return {"rows": rows, "checks": {
        "both_schedulers_serve_interactive": fifo.count >= 4 and wfq.count >= 4,
        # the acceptance claim: WFQ isolates the light tenant from the greedy
        # backlog — its p95 drops strictly below the FIFO p95
        "wfq_bounds_interactive_p95": wfq.percentile(95) < fifo.percentile(95),
        # and fairness is not starvation: the greedy tenant keeps flowing
        "greedy_tenant_keeps_flowing": out["wfq"]["greedy"].serviced_bytes > 0,
    }}
