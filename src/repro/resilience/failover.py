"""I/O-node failover: crash handling, re-routing, replay, circuit breaking.

When a dedicated I/O node dies (§4's "dedicated I/O processors" are
themselves a failure domain), three things must happen without losing a
single accepted request:

1. the dead node's devices are **re-routed** to surviving nodes
   (:meth:`~repro.ionode.routing.DeviceRouter.reassign`), so new traffic
   flows around the hole;
2. every request the node had accepted but not settled — the batch in
   service, the queued inbox, submissions blocked at admission — is
   **salvaged** (:meth:`~repro.ionode.node.IONode.crash`) and **replayed**
   on the survivors, settling the original client events so callers never
   learn their server changed;
3. a :class:`CircuitBreaker` per node watches request failures, so a node
   that keeps erroring is quarantined (crashed deliberately, with the same
   salvage path) instead of poisoning the cluster.

Replay is at-least-once but content-idempotent: device writes already
issued by a dying batch run to completion, and replaying the request
re-applies the same bytes at the same absolute offsets.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..sim.engine import Environment, Process

if TYPE_CHECKING:  # pragma: no cover
    from ..ionode.node import NodeRequest
    from ..ionode.routing import IONodeCluster
    from .stats import ResilienceStats

__all__ = ["CircuitBreaker", "FailoverManager", "NodeFaultInjector"]


class CircuitBreaker:
    """Failure counter with the classic closed / open / half-open states.

    ``record_failure`` returns ``True`` on the transition to *open* (the
    trip); after ``cooldown`` seconds the breaker is *half-open* — one
    probe is allowed, and its outcome either closes or re-opens it.
    """

    def __init__(self, env: Environment, threshold: int = 3, cooldown: float = 1.0):
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if cooldown < 0:
            raise ValueError("cooldown must be >= 0")
        self.env = env
        self.threshold = threshold
        self.cooldown = cooldown
        self._failures = 0
        self._opened_at: float | None = None
        self.trips = 0

    @property
    def state(self) -> str:
        if self._opened_at is None:
            return "closed"
        if self.env.now >= self._opened_at + self.cooldown:
            return "half-open"
        return "open"

    def allow(self) -> bool:
        """May a request be sent through right now?"""
        return self.state != "open"

    def record_failure(self) -> bool:
        """Count one failure; ``True`` iff this call trips the breaker."""
        state = self.state
        if state == "half-open":
            self._opened_at = self.env.now  # probe failed: re-open
            self.trips += 1
            return True
        if state == "open":
            return False
        self._failures += 1
        if self._failures >= self.threshold:
            self._opened_at = self.env.now
            self.trips += 1
            return True
        return False

    def record_success(self) -> None:
        """A request got through: close (or keep closed) the breaker."""
        self._failures = 0
        self._opened_at = None


class FailoverManager:
    """Crash handling for one :class:`~repro.ionode.routing.IONodeCluster`."""

    def __init__(
        self,
        env: Environment,
        cluster: "IONodeCluster",
        stats: "ResilienceStats | None" = None,
        *,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 1.0,
    ):
        self.env = env
        self.cluster = cluster
        self.stats = stats
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        self._breakers: dict[int, CircuitBreaker] = {}
        self._salvaged: list["NodeRequest"] = []
        #: observers called as ``cb(failed_index, survivors)`` after a
        #: node's devices are re-routed — the metadata service hooks in
        #: here to re-home its shards (see MetadataService.bind_failover)
        self.on_node_failed: list = []
        # every client request through the cluster feeds these breakers
        cluster.failover = self

    def breaker(self, node_index: int) -> CircuitBreaker:
        """The (lazily created) circuit breaker watching ``node_index``."""
        br = self._breakers.get(node_index)
        if br is None:
            br = CircuitBreaker(self.env, self.breaker_threshold, self.breaker_cooldown)
            self._breakers[node_index] = br
        return br

    # -- failover ----------------------------------------------------------

    def fail_node(self, index: int) -> list["NodeRequest"]:
        """Crash node ``index``: re-route its devices, replay its requests.

        The crash, re-routing, and replay spawning are zero-time and
        atomic (no yields), so no request can be submitted to a
        half-migrated node. Returns the salvaged requests.
        """
        node = self.cluster.nodes[index]
        if node.crashed:
            return []
        survivors = [
            i for i, n in enumerate(self.cluster.nodes) if i != index and not n.crashed
        ]
        if not survivors:
            raise RuntimeError(
                f"cannot fail over node {node.name}: no surviving nodes"
            )
        moved = self.cluster.router.devices_of(index)
        salvaged = node.crash()
        for k, dev in enumerate(moved):
            target = survivors[k % len(survivors)]
            self.cluster.router.reassign(dev, target)
            self.cluster.nodes[target].devices[dev] = node.devices[dev]
        if self.stats is not None:
            self.stats.failovers += 1
            self.stats.migrated_requests += len(salvaged)
        for req in salvaged:
            self._salvaged.append(req)
            replay = self.env.process(self._replay(req), name="failover.replay")
            # billed to the request's tenant, as QoSManager.spawn tags a process
            replay.qos_tenant = req.tenant
        for cb in self.on_node_failed:
            cb(index, survivors)
        return salvaged

    def _replay(self, req: "NodeRequest"):
        """Re-submit a salvaged request to the devices' current owners.

        It goes down the clients' own path (:meth:`~repro.ionode.routing.
        IONodeCluster.request`, feeding the survivors' breakers), then
        settles the *original* client event — per-slot arrays for reads,
        the payload byte count for writes, or the first error seen.
        """
        try:
            values = yield from self.cluster.request(req.kind, req.items, req.data)
        except Exception as exc:  # noqa: BLE001 - forwarded to the client
            if not req.event.triggered:
                req.event.fail(exc)
            return
        if req.event.triggered:
            return  # settled by a cascading failover's replay of this req
        req.event.succeed(values if req.kind == "read" else req.payload_bytes)

    # -- circuit breaking ----------------------------------------------------

    def note_request_failure(self, node_index: int) -> None:
        """One request through ``node_index`` failed transiently.

        On the breaker trip the node is quarantined — crashed through the
        normal failover path — provided another node survives to absorb
        its devices.
        """
        tripped = self.breaker(node_index).record_failure()
        node = self.cluster.nodes[node_index]
        if not tripped or node.crashed:
            return
        has_survivor = any(
            not n.crashed
            for i, n in enumerate(self.cluster.nodes)
            if i != node_index
        )
        if not has_survivor:
            return  # last node standing: keep limping rather than go dark
        self.fail_node(node_index)
        if self.stats is not None:
            self.stats.quarantined_nodes += 1

    def note_request_success(self, node_index: int) -> None:
        """One request through ``node_index`` completed."""
        br = self._breakers.get(node_index)
        if br is not None:
            br.record_success()

    # -- invariants --------------------------------------------------------

    def assert_settled(self) -> None:
        """Raise unless every salvaged request's client event has settled."""
        lost = sum(1 for r in self._salvaged if not r.event.triggered)
        if lost:
            raise RuntimeError(
                f"failover lost {lost} of {len(self._salvaged)} salvaged "
                "request(s): client events never settled"
            )


class NodeFaultInjector:
    """Schedules I/O-node crashes at simulated times (for tests/benchmarks)."""

    def __init__(self, env: Environment, manager: FailoverManager):
        self.env = env
        self.manager = manager
        #: (node_index, time) pairs of crashes actually performed
        self.crashes: list[tuple[int, float]] = []

    def crash_at(self, node_index: int, when: float) -> Process:
        """Crash ``node_index`` at simulated time ``when`` (>= now)."""
        if when < self.env.now:
            raise ValueError("cannot schedule a crash in the past")
        if not 0 <= node_index < len(self.manager.cluster.nodes):
            raise ValueError(f"no such node {node_index}")
        return self.env.process(
            self._crash(node_index, when), name=f"crash.node{node_index}"
        )

    def _crash(self, node_index: int, when: float):
        yield self.env.timeout(max(0.0, when - self.env.now))
        if self.manager.cluster.nodes[node_index].crashed:
            return
        self.manager.fail_node(node_index)
        self.crashes.append((node_index, self.env.now))
