"""The QoS manager: tenant registry, admission gate, scheduler factory.

One :class:`QoSManager` serves one file system. It owns the tenant table,
builds one :class:`~repro.qos.scheduler.WeightedFairQueue` per device and
per I/O node (each queue point schedules independently, like the paper's
per-device I/O processors), gates client operations through per-tenant
token buckets, and forwards starvation / over-rate / deadline-miss
detections to the attached engine sanitizer.
"""

from __future__ import annotations

from typing import Any, Generator

from ..sim.engine import Environment, Process
from .config import QoSConfig
from .scheduler import QoSTag, WeightedFairQueue
from .tenant import QoSClass, Tenant

__all__ = ["QoSManager"]


class QoSManager:
    """Tenant registry + policy factory for one file system."""

    def __init__(self, env: Environment, config: QoSConfig | None = None):
        self.env = env
        self.config = config or QoSConfig()
        self.tenants: dict[str, Tenant] = {}
        #: the tenant untagged (system / legacy) work is billed to
        self.default_tenant = self._make_tenant(
            QoSClass("default", weight=self.config.default_weight)
        )
        #: every scheduler built for a device or node (label -> queue)
        self.schedulers: dict[str, WeightedFairQueue] = {}
        #: starvation flags raised across all queue points
        self.starvations = 0
        #: deadline misses across all tenants
        self.deadline_misses = 0

    # -- tenant registry ------------------------------------------------------

    def _make_tenant(self, qos_class: QoSClass) -> Tenant:
        t = Tenant(self.env, qos_class, on_deadline_miss=self._missed)
        self.tenants[qos_class.name] = t
        return t

    def tenant(
        self,
        name: str,
        *,
        weight: float = 1.0,
        deadline: float | None = None,
        rate: float | None = None,
        burst: float | None = None,
    ) -> Tenant:
        """Get-or-create the tenant ``name`` with the given service class.

        Re-requesting an existing name returns the existing tenant (the
        class parameters of the first call win — a tenant's contract does
        not change mid-run).
        """
        if name in self.tenants:
            return self.tenants[name]
        return self._make_tenant(
            QoSClass(
                name,
                weight=weight,
                deadline=deadline,
                rate=rate,
                burst=burst,
            )
        )

    def resolve(self, tenant: Any) -> Tenant:
        """Map a request's tenant tag to a live tenant (None -> default)."""
        if isinstance(tenant, Tenant):
            return tenant
        if isinstance(tenant, str) and tenant in self.tenants:
            return self.tenants[tenant]
        return self.default_tenant

    def spawn(
        self, tenant: Tenant | str, generator: Generator, name: str | None = None
    ) -> Process:
        """Start a simulated process whose I/O is billed to ``tenant``.

        Sets the process's ambient ``qos_tenant``; every child process it
        creates (file ops, volume ops, node round-trips) inherits it, so
        requests arrive at the device and node layers already attributed.
        """
        proc = self.env.process(generator, name=name)
        proc.qos_tenant = self.resolve(tenant)
        return proc

    def active_tenant(self) -> Tenant:
        """The tenant of the currently running process (default if none)."""
        return self.resolve(
            getattr(self.env.active_process, "qos_tenant", None)
        )

    # -- admission gate --------------------------------------------------------

    def admit(self, tenant: Any, nbytes: int):
        """Generator gating ``nbytes`` of traffic through the tenant's
        bucket; bills the wait as admission-blocked time. No-op (zero
        simulated time) for unthrottled tenants."""
        t = self.resolve(tenant)
        if t.bucket is not None and nbytes > 0:
            began = self.env.now
            yield from t.bucket.acquire(nbytes)
            t.note_blocked(self.env.now - began)
        return None

    def admit_active(self, nbytes: int):
        """:meth:`admit` for the currently running process's tenant."""
        yield from self.admit(self.active_tenant(), nbytes)

    # -- scheduler factory -----------------------------------------------------

    def make_scheduler(self, label: str) -> WeightedFairQueue:
        """One independent scheduling queue for a device or I/O node."""
        sched = WeightedFairQueue(
            mode=self.config.scheduler,
            starvation_threshold=self.config.starvation_threshold,
            on_starvation=lambda tag, label=label: self._starved(label, tag),
        )
        self.schedulers[label] = sched
        return sched

    # -- detection forwarding --------------------------------------------------

    def _starved(self, label: str, tag: QoSTag) -> None:
        self.starvations += 1
        sanitizer = self.env._sanitizer
        if sanitizer is not None and hasattr(sanitizer, "on_qos_starvation"):
            sanitizer.on_qos_starvation(
                f"tenant {tag.tenant.name!r} request (seq {tag.seq}) at "
                f"{label} bypassed {tag.bypassed} times "
                f"(threshold {self.starvation_threshold})"
            )

    def _missed(self, tenant: Tenant) -> None:
        self.deadline_misses += 1
        sanitizer = self.env._sanitizer
        if (
            self.config.strict_deadlines
            and sanitizer is not None
            and hasattr(sanitizer, "on_qos_deadline_miss")
        ):
            sanitizer.on_qos_deadline_miss(
                f"tenant {tenant.name!r} missed its "
                f"{tenant.deadline}s deadline "
                f"({tenant.deadline_misses} miss(es) total)"
            )

    @property
    def starvation_threshold(self) -> int:
        """The configured bypass threshold (convenience passthrough)."""
        return self.config.starvation_threshold

    def check_buckets(self) -> None:
        """Verify every rate-limited tenant stayed inside its bucket.

        Records a sanitizer violation (``qos-bucket-overrate``) for any
        tenant whose granted bytes exceed ``burst + rate * elapsed`` —
        the "rate-limited tenants never exceed their bucket" invariant.
        Call at end of run (the ``--sanitize`` harness and the QoS
        integration tests do).
        """
        sanitizer = self.env._sanitizer
        for t in self.tenants.values():
            if t.bucket is None:
                continue
            if sanitizer is not None and hasattr(sanitizer, "on_qos_bucket"):
                sanitizer.on_qos_bucket(
                    t.name,
                    t.bucket.conformant(),
                    f"granted {t.bucket.granted_total:.0f} bytes against "
                    f"burst {t.bucket.burst:.0f} + rate {t.bucket.rate:.0f}/s",
                )
