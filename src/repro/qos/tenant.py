"""The tenant model: service classes and per-tenant accounting.

A :class:`QoSClass` is a declarative service contract (weight, optional
token-bucket rate limit); a :class:`Tenant` is one live
principal holding that contract plus its backpressure accounting.
Requests are tagged with their tenant by the ambient context of the
process or op that submits them (``Process.qos_tenant``, ``Op.qos_tenant``,
inherited from the creator), and the device and
I/O-node layers bill time to the tenant duck-typed — they only ever call
the ``note_*`` methods.

The three backpressure buckets (where did a tenant's wall time go?):

* **blocked** — waiting at admission: the token bucket gate, or a full
  I/O-node inbox;
* **queued** — admitted but waiting to be scheduled (device pending queue,
  node inbox);
* **service** — the device arm / node batch actually working on it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.engine import Environment
from ..sim.stats import Tally
from .bucket import TokenBucket

__all__ = ["QoSClass", "Tenant"]


@dataclass(frozen=True)
class QoSClass:
    """A service contract: how one tenant's traffic should be treated.

    ``weight`` is the WFQ share (service is proportional to weight under
    contention); ``rate``/``burst`` configure a token bucket in bytes per second /
    bytes (both or neither).
    """

    name: str
    weight: float = 1.0
    rate: float | None = None
    burst: float | None = None

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError("weight must be positive")
        if (self.rate is None) != (self.burst is None):
            raise ValueError("rate and burst must be set together")
        if self.rate is not None and (self.rate <= 0 or self.burst <= 0):
            raise ValueError("rate and burst must be positive")


class Tenant:
    """One live principal: a service class plus run accounting."""

    def __init__(
        self,
        env: Environment,
        qos_class: QoSClass,
    ):
        self.env = env
        self.qos_class = qos_class
        self.bucket: TokenBucket | None = (
            TokenBucket(env, qos_class.rate, qos_class.burst)
            if qos_class.rate is not None
            else None
        )
        #: time spent blocked at admission (bucket gate, full inboxes)
        self.blocked = Tally()
        #: time spent admitted-but-waiting in scheduler queues
        self.queued = Tally()
        #: time spent in service (device arm / node batch)
        self.service = Tally()
        #: bytes delivered to / taken from this tenant by completed ops
        self.serviced_bytes = 0
        #: completed operations
        self.ops = 0

    @property
    def name(self) -> str:
        """The service-class name (tenants are keyed by it)."""
        return self.qos_class.name

    @property
    def weight(self) -> float:
        """The WFQ share weight."""
        return self.qos_class.weight

    # -- duck-typed accounting (called by devices / I/O nodes) ----------------

    def note_blocked(self, duration: float) -> None:
        """Bill admission-blocked time (bucket gate or full inbox)."""
        if duration >= 0:
            self.blocked.observe(duration)

    def note_queued(self, duration: float) -> None:
        """Bill admitted-but-unscheduled queue time."""
        if duration >= 0:
            self.queued.observe(duration)

    def note_service(self, duration: float, nbytes: int) -> None:
        """Bill in-service time and the bytes moved by one completed op."""
        if duration >= 0:
            self.service.observe(duration)
        self.serviced_bytes += nbytes
        self.ops += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Tenant {self.name} w={self.weight}>"
