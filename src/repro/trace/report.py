"""Throughput, utilization, and sanitizer reporting for experiment runs."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..devices.controller import DeviceController
from ..sim.engine import Environment

if TYPE_CHECKING:  # pragma: no cover
    from ..container.verify import ContainerReport
    from ..ionode.routing import IONodeCluster
    from ..qos.manager import QoSManager
    from ..resilience.volume import ResilientVolume
    from ..sanitize.access import AccessConflictDetector
    from ..sanitize.engine_hooks import EngineSanitizer

__all__ = [
    "RunReport",
    "throughput_mb_s",
    "device_table",
    "ionode_report",
    "qos_report",
    "conflict_report",
    "invariant_report",
    "resilience_report",
    "container_report",
]


def _wait_cells(stat) -> str:
    """p50/p95/max cells (ms) for one queue-wait PercentileTally."""
    if not stat.count:
        return f"{'-':>7s} {'-':>7s} {'-':>7s}"
    return (
        f"{stat.percentile(50) * 1e3:>7.2f} "
        f"{stat.percentile(95) * 1e3:>7.2f} "
        f"{stat.max * 1e3:>7.2f}"
    )


def throughput_mb_s(nbytes: int, elapsed: float) -> float:
    """Megabytes per second (10^6), the unit 1989 drives are quoted in."""
    if elapsed <= 0:
        return float("inf") if nbytes else 0.0
    return nbytes / elapsed / 1e6


@dataclass
class RunReport:
    """Summary of one measured run."""

    label: str
    elapsed: float
    nbytes: int

    @property
    def throughput(self) -> float:
        return throughput_mb_s(self.nbytes, self.elapsed)

    def row(self) -> str:
        """One formatted report line."""
        return (
            f"{self.label:<40s} {self.elapsed * 1e3:>10.2f} ms "
            f"{self.throughput:>8.2f} MB/s"
        )


def conflict_report(detector: "AccessConflictDetector") -> list[str]:
    """Render an access-conflict detector's findings, one row per finding.

    A clean run renders a single "no conflicts" row so reports always show
    the sanitizer actually ran (``records`` counts the accesses indexed).
    """
    header = (
        f"access sanitizer: {len(detector.records)} accesses, "
        f"{detector.epoch + 1} epoch(s), {len(detector.findings)} finding(s)"
    )
    if not detector.findings:
        return [header, "  no conflicts detected"]
    return [header] + [f"  {f.row()}" for f in detector.findings]


def invariant_report(sanitizer: "EngineSanitizer") -> list[str]:
    """Render an engine sanitizer's violations, one row per violation."""
    header = (
        f"engine sanitizer: {sanitizer.checks} checks, "
        f"{len(sanitizer.violations)} violation(s)"
    )
    if not sanitizer.violations:
        return [header, "  no invariant violations"]
    return [header] + [f"  {v.row()}" for v in sanitizer.violations]


def device_table(env: Environment, devices: list[DeviceController]) -> list[str]:
    """The full per-device statistics table (header + one row per device).

    Surfaces everything a :class:`~repro.devices.controller.
    DeviceController` tallies during a run: requests and the seeks they
    cost, the request-latency distribution (mean / max over
    submit-to-complete times), busy-fraction utilization, the
    time-weighted queue length with its peak, and the queue-wait
    (submit-to-dispatch) percentiles in milliseconds.
    """
    header = (
        f"{'device':<10s} {'reqs':>6s} {'seeks':>6s} {'util':>7s} "
        f"{'lat_mean':>10s} {'lat_max':>10s} {'q_mean':>7s} {'q_max':>5s} "
        f"{'w_p50':>7s} {'w_p95':>7s} {'w_max':>7s}"
    )
    rows = [header]
    for d in devices:
        util = d.utilization.utilization(env.now)
        lat_mean = d.latency.mean * 1e3 if d.latency.count else 0.0
        lat_max = d.latency.max * 1e3 if d.latency.count else 0.0
        q_mean = d.queue_stat.mean(env.now)
        q_mean = 0.0 if math.isnan(q_mean) else q_mean
        rows.append(
            f"{d.name:<10s} {d.disk.total_requests:>6d} "
            f"{d.disk.total_seeks:>6d} {util:>7.1%} "
            f"{lat_mean:>8.2f}ms {lat_max:>8.2f}ms "
            f"{q_mean:>7.2f} {d.queue_stat.max:>5.0f} "
            f"{_wait_cells(d.wait_stat)}"
        )
    return rows


def ionode_report(env: Environment, cluster: "IONodeCluster") -> list[str]:
    """The per-I/O-node statistics table (header + one row per node).

    One row per :class:`~repro.ionode.IONode`: requests serviced, busy
    utilization, time-weighted queue depth (mean and peak), the
    coalescing ratio (client byte-range items per device request — above
    1 means aggregation or caching removed device traffic), sieved
    batches, the server-cache hit rate where a cache is configured, and
    the inbox-wait (admit-to-drain) percentiles in milliseconds.
    """
    header = (
        f"{'node':<8s} {'devs':>4s} {'reqs':>6s} {'util':>7s} "
        f"{'q_mean':>7s} {'q_max':>5s} {'coalesce':>8s} {'sieved':>6s} "
        f"{'cache_hit':>9s} {'w_p50':>7s} {'w_p95':>7s} {'w_max':>7s}"
    )
    rows = [header]
    for node in cluster.nodes:
        q_mean = node.queue_stat.mean(env.now)
        q_mean = 0.0 if math.isnan(q_mean) else q_mean
        ratio = node.coalescing_ratio
        coalesce = f"{ratio:>8.2f}" if not math.isnan(ratio) else f"{'-':>8s}"
        hit = (
            f"{node.cache.hit_rate:>9.1%}" if node.cache is not None else f"{'-':>9s}"
        )
        rows.append(
            f"{node.name:<8s} {len(node.devices):>4d} {node.completed:>6d} "
            f"{node.utilization.utilization(env.now):>7.1%} "
            f"{q_mean:>7.2f} {node.queue_stat.max:>5.0f} {coalesce} "
            f"{node.sieved_batches:>6d} {hit} {_wait_cells(node.wait_stat)}"
        )
    return rows


def qos_report(manager: "QoSManager") -> list[str]:
    """The per-tenant QoS table (header + one row per tenant).

    One row per :class:`~repro.qos.Tenant`: weight, completed ops, bytes
    serviced and the resulting share of all serviced bytes, where its
    wall time went (mean admission-blocked / queued / in-service, ms),
    deadline misses, and token-bucket throttling (grants that had to
    wait). A footer row summarizes detection counters so a clean run
    still shows the detectors ran.
    """
    header = (
        f"{'tenant':<10s} {'weight':>6s} {'ops':>6s} {'MB':>8s} "
        f"{'share':>6s} {'blocked':>8s} {'queued':>8s} {'service':>8s} "
        f"{'miss':>4s} {'throttled':>9s}"
    )
    rows = [header]
    total_bytes = sum(t.serviced_bytes for t in manager.tenants.values())
    for name in sorted(manager.tenants):
        t = manager.tenants[name]
        share = t.serviced_bytes / total_bytes if total_bytes else 0.0
        blocked = t.blocked.mean * 1e3 if t.blocked.count else 0.0
        queued = t.queued.mean * 1e3 if t.queued.count else 0.0
        service = t.service.mean * 1e3 if t.service.count else 0.0
        throttled = (
            f"{t.bucket.throttled_grants:>4d}/{t.bucket.grants:<4d}"
            if t.bucket is not None
            else f"{'-':>9s}"
        )
        rows.append(
            f"{t.name:<10s} {t.weight:>6.1f} {t.ops:>6d} "
            f"{t.serviced_bytes / 1e6:>8.3f} {share:>6.1%} "
            f"{blocked:>6.2f}ms {queued:>6.2f}ms {service:>6.2f}ms "
            f"{t.deadline_misses:>4d} {throttled}"
        )
    rows.append(
        f"scheduler={manager.config.scheduler} "
        f"queues={len(manager.schedulers)} "
        f"starvations={manager.starvations} "
        f"deadline_misses={manager.deadline_misses}"
    )
    return rows


def resilience_report(resilience: "ResilientVolume") -> list[str]:
    """Render one resilience layer's activity, one row per figure.

    Shows what the layer absorbed during the run: degraded reads served
    by reconstruction (with their latency), journaled degraded writes,
    retry traffic, node failovers and migrated requests, and completed
    rebuilds with the resulting MTTR sample.
    """
    s = resilience.stats
    rows = [
        f"{'degraded reads':<28s} {s.degraded_reads:>8d}",
        f"{'  reconstructed bytes':<28s} {s.reconstructed_bytes:>8d}",
        f"{'degraded writes':<28s} {s.degraded_writes:>8d}",
        f"{'  journaled / replayed':<28s} {s.journaled_writes:>4d} / {s.replayed_writes:<4d}",
        f"{'retried ops':<28s} {s.retried_ops:>8d}",
        f"{'  extra attempts':<28s} {s.retry_attempts:>8d}",
        f"{'  exhausted':<28s} {s.retries_exhausted:>8d}",
        f"{'node failovers':<28s} {s.failovers:>8d}",
        f"{'  migrated requests':<28s} {s.migrated_requests:>8d}",
        f"{'  quarantined nodes':<28s} {s.quarantined_nodes:>8d}",
        f"{'rebuilds':<28s} {s.rebuilds_completed:>4d} / {s.rebuilds_started:<4d}",
        f"{'  rebuilt bytes':<28s} {s.rebuild_bytes:>8d}",
    ]
    lat = s.degraded_read_latency
    if lat.count:
        rows.append(
            f"{'degraded read latency':<28s} {lat.mean * 1e3:>8.2f} ms mean "
            f"(max {lat.max * 1e3:.2f} ms, n={lat.count})"
        )
    if s.rebuild_times:
        rows.append(
            f"{'MTTR':<28s} {s.mttr_seconds:>8.2f} s over "
            f"{len(s.rebuild_times)} rebuild(s)"
        )
    return rows


def container_report(report: "ContainerReport") -> str:
    """Render one container scan: verdict line, per-defect rows, and —
    for :func:`repro.container.verify.fsck` runs over a resilience
    layer — the counter deltas the scan itself caused."""
    rows = [
        f"container {report.name}: "
        + (
            f"CLEAN ({len(report.verified)}/{len(report.sections)} "
            f"sections verified, {report.total_bytes} bytes)"
            if report.clean
            else f"{len(report.findings)} finding(s) in {report.total_bytes} bytes"
        )
    ]
    rows.extend("  " + f.row() for f in report.findings)
    if report.resilience:
        deltas = ", ".join(
            f"{k}={v}" for k, v in sorted(report.resilience.items())
        )
        rows.append(f"  scan resilience activity: {deltas}")
    return "\n".join(rows)
