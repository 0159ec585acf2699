"""Names, units, directions and bounds of everything the ledger reports.

``BENCHMARK.json`` at the repository root is generated from this file
(``python3 benchmarks/ledger/spec.py > BENCHMARK.json``) and
``test_ledger.py`` checks the two agree.

Three groups:

``END_TO_END``
    what a user of the system sees, measured on *every* workload with
    tracing off; each has a bound (share of the baseline median by which
    it may get worse).
``WORKLOAD_METRICS``
    end-to-end numbers only some workloads have (simulated seconds, the
    per-request scale cost, live throughput and open-loop latency). They
    carry a bound for ``compare.py``; in ``BENCHMARK.json`` they sit with
    the per-layer metrics because its end-to-end list must be reported by
    every workload.
``PER_LAYER``
    everything else: per-layer host time and calls from the traced pass,
    inclusive time of named entry points, the work / waiting / waste
    counters, and the outside-in timings of the live path.
"""

from __future__ import annotations

import json

#: the packages under ``src/repro/`` that host time is attributed to
LAYERS = (
    "sim", "core", "fs", "buffering", "devices", "storage", "ionode",
    "resilience", "qos", "datatype", "collective", "container", "dataset",
    "metastore", "live", "trace", "perf",
)
OTHER = "other"

SCHEMA_VERSION = 1
RUN_SECONDS = 10
DEFAULT_SEED = 1989

WORKLOADS = (
    ("sim_full", "six organizations on the stack with every opt-in on: the only "
                 "workload where ionode, qos, resilience and batch planning do real work"),
    ("sim_bare", "same drivers, no opt-ins, per-block submission: engine, devices, fs "
                 "handles and mapping carry everything; bypass partner of sim_full"),
    ("sim_clients", "thousands of think/read/write clients: timer-dominated, large "
                    "pending-event population, per-request cost against a small-N reference"),
    ("sim_degraded", "parity resilience with a failed device and the hot-spare rebuild "
                     "under load: reconstruction, journaling, replay instead of pass-through"),
    ("sim_noncontig", "hyperslab tiles and collective row blocks on a simulated dataset: "
                      "the slab planner, collective and container path, reads and writes apart"),
    ("live_serve", "DatasetServer on loopback TCP, 2 connections, every read verified: "
                   "the live path in wall time; shares the slab planner with sim_noncontig"),
)

#: (name, unit, better, bound)
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("read_wall_s", "s", "lower", 0.25),
    ("write_wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
)

#: (name, unit, better, bound, workloads it is measured on)
SIM = ("sim_full", "sim_bare", "sim_clients", "sim_degraded", "sim_noncontig")
WORKLOAD_METRICS = (
    # simulated time repeats exactly; bound 0: any change is a model change
    ("sim.elapsed_s", "s", "lower", 0.0, SIM),
    ("sim.scale_cost_ratio", "ratio", "lower", 0.10, ("sim_clients",)),
    ("live.req_per_s", "1/s", "higher", 0.10, ("live_serve",)),
    ("live.read_p50_ms", "ms", "lower", 0.15, ("live_serve",)),
    ("live.read_p90_ms", "ms", "lower", 0.15, ("live_serve",)),
    ("live.write_p50_ms", "ms", "lower", 0.15, ("live_serve",)),
    ("live.write_p90_ms", "ms", "lower", 0.15, ("live_serve",)),
)

_HOST = tuple(
    entry
    for name in (*LAYERS, OTHER)
    for entry in ((f"host.{name}.self_s", "s", "lower"), (f"host.{name}.calls", "count", "lower"))
)

#: (name, unit, better)
PER_LAYER = (
    ("host.total_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    *_HOST,
    ("cum.sim.run_s", "s", "lower"),
    ("cum.fs.handle_io_s", "s", "lower"),
    ("cum.fs.view_io_s", "s", "lower"),
    ("cum.qos.admit_s", "s", "lower"),
    ("cum.ionode.volume_io_s", "s", "lower"),
    ("cum.ionode.node_submit_s", "s", "lower"),
    ("cum.resilience.volume_io_s", "s", "lower"),
    ("cum.storage.volume_io_s", "s", "lower"),
    ("cum.storage.plan_batch_s", "s", "lower"),
    ("cum.devices.submit_s", "s", "lower"),
    ("cum.datatype.plan_s", "s", "lower"),
    ("cum.collective.io_s", "s", "lower"),
    ("cum.container.codec_s", "s", "lower"),
    ("sim.events", "count", "lower"),
    ("host_us_per_event", "us", "lower"),
    ("host_us_per_request", "us", "lower"),
    ("fs.requests", "count", "lower"),
    ("fs.bytes_moved", "bytes", "higher"),
    ("devices.requests", "count", "lower"),
    ("devices.seeks", "count", "lower"),
    ("devices.util_mean", "share", "higher"),
    ("devices.latency_mean_ms", "ms", "lower"),
    ("devices.queue_wait_p50_ms", "ms", "lower"),
    ("devices.queue_wait_p95_ms", "ms", "lower"),
    ("devices.queue_len_max", "count", "lower"),
    ("storage.device_ops_per_request", "ratio", "lower"),
    ("ionode.requests", "count", "lower"),
    ("ionode.coalescing_ratio", "ratio", "higher"),
    ("ionode.sieved_batches", "count", "higher"),
    ("ionode.cache_hit_ratio", "share", "higher"),
    ("ionode.util_mean", "share", "higher"),
    ("ionode.queue_wait_p50_ms", "ms", "lower"),
    ("ionode.queue_wait_p95_ms", "ms", "lower"),
    ("qos.blocked_mean_ms", "ms", "lower"),
    ("qos.queued_mean_ms", "ms", "lower"),
    ("qos.service_mean_ms", "ms", "lower"),
    ("qos.throttled_grants", "count", "lower"),
    ("resilience.degraded_reads", "count", "lower"),
    ("resilience.degraded_writes", "count", "lower"),
    ("resilience.reconstructed_bytes", "bytes", "lower"),
    ("resilience.journaled_writes", "count", "lower"),
    ("resilience.replayed_writes", "count", "lower"),
    ("resilience.retry_attempts", "count", "lower"),
    ("resilience.rebuild_bytes", "bytes", "lower"),
    ("resilience.rebuilds_completed", "count", "higher"),
    ("resilience.degraded_read_latency_mean_ms", "ms", "lower"),
    ("buffering.hit_ratio", "share", "higher"),
    ("buffering.coalesced", "count", "higher"),
    ("metastore.ops", "count", "lower"),
    ("live.rtt_us", "us", "lower"),
    ("live.backend_us", "us", "lower"),
    ("live.plan_us", "us", "lower"),
    ("live.syscall_us", "us", "lower"),
    ("live.thread_hop_us", "us", "lower"),
    ("live.server_overhead_us", "us", "lower"),
    ("live.admission_wait_s", "s", "lower"),
    ("live.req_p99_ms", "ms", "lower"),
    ("live.gen_late_p90_ms", "ms", "lower"),
    ("live.warmup_s", "s", "lower"),
    ("live.drift", "ratio", "higher"),
)

E2E_NAMES = tuple(m[0] for m in END_TO_END)
LAYER_NAMES = tuple(m[0] for m in WORKLOAD_METRICS) + tuple(m[0] for m in PER_LAYER)
UNITS = {m[0]: m[1] for m in (*END_TO_END, *WORKLOAD_METRICS, *PER_LAYER)}
BETTER = {m[0]: m[2] for m in (*END_TO_END, *WORKLOAD_METRICS, *PER_LAYER)}
BOUNDS = {m[0]: m[3] for m in (*END_TO_END, *WORKLOAD_METRICS)}


def gated_metrics(workload: str) -> tuple:
    """Names of the bounded metrics ``workload`` reports (for compare.py)."""
    return E2E_NAMES + tuple(m[0] for m in WORKLOAD_METRICS if workload in m[4])


def benchmark_json() -> dict:
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": m[0], "unit": m[1], "better": m[2]}
            for m in (*WORKLOAD_METRICS, *PER_LAYER)
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
