"""Engine invariant sanitizer: runtime checks on the simulation substrate.

§5 of the paper catalogues how *files* go wrong under parallel access;
this module watches how the *simulator itself* could go wrong under the
same contention — races in the substrate would silently corrupt every
experiment built on top of it. The checked invariants:

* an event popped from the queue has been triggered exactly once and is
  processed exactly once (no double-schedule, no callback ever runs on an
  already-processed event);
* a :class:`~repro.sim.resources.Resource` never grants one request twice,
  never exceeds its capacity, and never leaves a waiter sleeping while a
  slot is free (lost wakeup);
* :class:`~repro.sim.resources.Store` dispatch leaves no satisfiable
  put/get untriggered (lost wakeup);
* :class:`~repro.buffering.pool.BufferPool` acquire/release stays inside
  ``[0, n_buffers]`` and balances to zero by :meth:`check_balanced`;
* :class:`~repro.ionode.IONode` request queues never lose a request,
  never exceed the admission bound, and conserve bytes through request
  aggregation (coalescing / data sieving) — checked after every service
  batch via :meth:`EngineSanitizer.on_ionode` and at end of run by
  :meth:`EngineSanitizer.check_nodes_drained`.

Attach with :func:`attach` (collecting mode) or construct the environment
with ``Environment(strict=True)`` (raise on first violation). Hooks are a
single attribute test on the hot paths when no sanitizer is attached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from ..sim.engine import Environment, Event, SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from ..buffering.pool import BufferPool
    from ..ionode.node import IONode
    from ..sim.resources import Resource, Store

__all__ = ["SanitizerError", "Violation", "EngineSanitizer", "attach"]


class SanitizerError(SimulationError):
    """An engine invariant was violated (strict mode only)."""


@dataclass(frozen=True)
class Violation:
    """One detected invariant violation."""

    kind: str
    detail: str
    time: float

    def row(self) -> str:
        """One formatted report line."""
        return f"t={self.time:>12.6f}  {self.kind:<26s} {self.detail}"


class EngineSanitizer:
    """Collects (or raises on) engine invariant violations for one env."""

    def __init__(self, env: Environment, raise_on_violation: bool = False):
        self.env = env
        self.raise_on_violation = raise_on_violation
        self.violations: list[Violation] = []
        #: number of invariant checks performed (sanity that hooks fired)
        self.checks = 0
        self._pools: list["BufferPool"] = []
        self._nodes: list["IONode"] = []

    # -- bookkeeping ---------------------------------------------------------

    def _violate(self, kind: str, detail: str) -> None:
        violation = Violation(kind, detail, self.env.now)
        self.violations.append(violation)
        if self.raise_on_violation:
            raise SanitizerError(f"[{kind}] {detail} (t={self.env.now})")

    @property
    def clean(self) -> bool:
        """True iff no violation has been recorded."""
        return not self.violations

    def assert_clean(self) -> None:
        """Raise :class:`SanitizerError` listing any recorded violations."""
        if self.violations:
            rows = "\n".join(v.row() for v in self.violations)
            raise SanitizerError(
                f"{len(self.violations)} engine invariant violation(s):\n{rows}"
            )

    # -- engine hooks ----------------------------------------------------------

    def on_step(self, event: Event) -> None:
        """Called by ``Environment.step`` for every popped event."""
        self.checks += 1
        if event._processed:
            self._violate(
                "event-reprocessed",
                f"{event!r} popped from the queue after it was processed",
            )
        if event.callbacks is None:
            self._violate(
                "event-callbacks-consumed",
                f"{event!r} reached step() with its callbacks already taken",
            )
        if not event.triggered:
            self._violate(
                "event-untriggered",
                f"{event!r} was scheduled without a value or failure",
            )

    def on_resource(self, resource: "Resource") -> None:
        """Called after ``Resource._trigger_requests`` settles."""
        self.checks += 1
        users = resource.users
        name = type(resource).__name__
        if len(users) > resource.capacity:
            self._violate(
                "resource-overcommit",
                f"{name} holds {len(users)} users over capacity "
                f"{resource.capacity}",
            )
        if len({id(u) for u in users}) != len(users):
            self._violate(
                "resource-double-grant",
                f"{name} granted the same request more than one slot",
            )
        for user in users:
            if not user.triggered:
                self._violate(
                    "resource-granted-untriggered",
                    f"{name} lists an ungranted request as a user",
                )
        if len(users) < resource.capacity and any(
            not w.triggered and not getattr(w, "_cancelled", False)
            for w in resource._waiting
        ):
            self._violate(
                "resource-lost-wakeup",
                f"{name} has a free slot but a waiter was left sleeping",
            )

    def on_store(self, store: "Store") -> None:
        """Called after ``Store._dispatch`` settles."""
        self.checks += 1
        if len(store.items) > store.capacity:
            self._violate(
                "store-overfull",
                f"Store holds {len(store.items)} items over capacity "
                f"{store.capacity}",
            )
        if store.items and any(not g.triggered for g in store._gets):
            self._violate(
                "store-lost-wakeup",
                "Store has items but left a getter sleeping",
            )
        if len(store.items) < store.capacity and any(
            not p.triggered for p in store._puts
        ):
            self._violate(
                "store-lost-wakeup",
                "Store has room but left a putter sleeping",
            )

    # -- buffer pools ------------------------------------------------------------

    def register_pool(self, pool: "BufferPool") -> None:
        """Track a pool for the end-of-run balance check."""
        if pool not in self._pools:
            self._pools.append(pool)

    def on_pool(self, pool: "BufferPool") -> None:
        """Called on every pool acquire-grant and release."""
        self.checks += 1
        if not 0 <= pool._in_use <= pool.n_buffers:
            self._violate(
                "pool-imbalance",
                f"BufferPool in_use={pool._in_use} outside "
                f"[0, {pool.n_buffers}]",
            )

    def check_balanced(self) -> None:
        """Record a violation for every pool with unreleased buffers."""
        for pool in self._pools:
            if pool._in_use != 0:
                self._violate(
                    "pool-unreleased",
                    f"BufferPool ended with {pool._in_use} of "
                    f"{pool.n_buffers} buffers still held",
                )

    # -- I/O nodes --------------------------------------------------------------

    def register_node(self, node: "IONode") -> None:
        """Track an I/O node for per-batch and end-of-run queue checks."""
        if node not in self._nodes:
            self._nodes.append(node)

    def on_ionode(self, node: "IONode") -> None:
        """Called by a node's service loop after every completed batch.

        Checks the node-queue invariants: bounded occupancy, no lost
        request (every accepted request is accounted for somewhere in the
        pipeline), byte conservation through aggregation (a read client
        receives exactly the bytes it asked for, even when the node
        serviced it through a sieved covering extent), and sieve
        accounting (device traffic splits exactly into payload + waste).
        """
        self.checks += 1
        if not 0 <= node.queued <= node.queue_depth:
            self._violate(
                "ionode-queue-bound",
                f"node {node.name} holds {node.queued} queued requests "
                f"outside [0, {node.queue_depth}]",
            )
        accounted = (
            node.completed
            + node.in_service
            + node.queued
            + node.pending_admission
            + node.migrated
        )
        if node.accepted != accounted:
            self._violate(
                "ionode-lost-request",
                f"node {node.name} accepted {node.accepted} requests but "
                f"accounts for {accounted} "
                f"(completed={node.completed}, in_service={node.in_service}, "
                f"queued={node.queued}, pending={node.pending_admission}, "
                f"migrated={node.migrated})",
            )
        if node.read_delivered_bytes != node.read_requested_bytes:
            self._violate(
                "ionode-byte-conservation",
                f"node {node.name} delivered {node.read_delivered_bytes} "
                f"read bytes for {node.read_requested_bytes} requested",
            )
        if node.sieve_waste_bytes < 0 or (
            node.device_bytes_read
            != node.read_payload_bytes + node.sieve_waste_bytes
        ):
            self._violate(
                "ionode-sieve-accounting",
                f"node {node.name} read {node.device_bytes_read} device "
                f"bytes != payload {node.read_payload_bytes} + waste "
                f"{node.sieve_waste_bytes}",
            )

    def check_nodes_drained(self) -> None:
        """Record a violation for every node with requests still in flight.

        A crashed node's salvaged requests count as ``migrated`` — they
        were handed to surviving nodes by the failover manager, which
        separately guarantees their client events settled
        (:meth:`~repro.resilience.failover.FailoverManager.assert_settled`).
        """
        for node in self._nodes:
            backlog = node.queued + node.in_service + node.pending_admission
            if backlog or node.accepted != node.completed + node.migrated:
                self._violate(
                    "ionode-undrained",
                    f"node {node.name} ended with {backlog} request(s) in "
                    f"flight ({node.accepted} accepted, "
                    f"{node.completed} completed, {node.migrated} migrated)",
                )

    # -- resilience --------------------------------------------------------------

    def on_retried_op(self, op: Any) -> None:
        """Called by :func:`repro.resilience.retry.retrying` per settled op.

        Exactly-once invariants: every attempt either failed or succeeded,
        at most one attempt succeeded (transient errors never apply data,
        so a retry can never double-apply), and an acknowledged operation
        succeeded exactly once while an abandoned one never did.
        """
        self.checks += 1
        label = f"{op.kind} on {op.target}"
        if op.attempts != op.failures + op.successes:
            self._violate(
                "retry-accounting",
                f"{label}: {op.attempts} attempts != {op.failures} failures "
                f"+ {op.successes} successes",
            )
        if op.successes > 1:
            self._violate(
                "retry-multi-apply",
                f"{label}: {op.successes} attempts succeeded (applied more "
                "than once)",
            )
        if op.acked and op.successes != 1:
            self._violate(
                "retry-acked-unapplied",
                f"{label}: acknowledged to the caller with {op.successes} "
                "successful attempts",
            )
        if op.gave_up and op.successes != 0:
            self._violate(
                "retry-gave-up-applied",
                f"{label}: reported exhausted but {op.successes} attempt(s) "
                "succeeded",
            )

    def on_rebuild(self, name: str, ok: bool, detail: str) -> None:
        """Called by the hot-spare rebuilder after its verify step."""
        self.checks += 1
        if not ok:
            self._violate(
                "rebuild-mismatch",
                f"{name}: rebuilt spare diverges from its oracle ({detail})",
            )

    # -- QoS ----------------------------------------------------------------------

    def on_qos_starvation(self, detail: str) -> None:
        """Called by :class:`~repro.qos.QoSManager` when one request was
        bypassed by later arrivals more than the configured threshold —
        the "no tenant waits unboundedly while others are served"
        invariant."""
        self.checks += 1
        self._violate("qos-starvation", detail)

    def on_qos_deadline_miss(self, detail: str) -> None:
        """Called (under ``strict_deadlines``) when a tenant's request
        completes past its absolute deadline."""
        self.checks += 1
        self._violate("qos-deadline-miss", detail)

    def on_qos_bucket(self, tenant: str, conformant: bool, detail: str) -> None:
        """Called by :meth:`~repro.qos.QoSManager.check_buckets` per
        rate-limited tenant — the "rate-limited tenants never exceed
        their bucket" invariant."""
        self.checks += 1
        if not conformant:
            self._violate(
                "qos-bucket-overrate", f"tenant {tenant!r}: {detail}"
            )


def attach(env: Environment, raise_on_violation: bool = False) -> EngineSanitizer:
    """Attach an :class:`EngineSanitizer` to ``env`` and return it.

    Attaching twice returns the existing sanitizer (updated with the
    requested ``raise_on_violation`` policy).
    """
    sanitizer: Any = env._sanitizer
    if sanitizer is None:
        sanitizer = EngineSanitizer(env, raise_on_violation)
        env._sanitizer = sanitizer
        env._hooks_attached()
    else:
        sanitizer.raise_on_violation = raise_on_violation
    return sanitizer
