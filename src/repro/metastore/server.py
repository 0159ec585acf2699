"""Simulated-time serving front for the metadata service.

The durable namespace logic (:mod:`repro.metastore.service`) is
synchronous — correctness is proved by the crash-point harness. What a
*server* adds is time and queueing: every shard is a serving loop with a
FIFO inbox, each operation costs ``op_time`` simulated seconds, and
requests to different shards proceed in parallel. A 1-shard
:class:`MetaServer` is exactly the single-catalog FIFO bottleneck the
open/create-storm claim (``x4_metadata_storm`` in ``benchmarks/claims/``)
compares against; with *k* shards the storm fans out *k* ways.

Crash handling mirrors the I/O-node failover design
(:mod:`repro.resilience.failover`): an :class:`~repro.metastore.crash.
InjectedCrash` (or any infrastructure error) inside a serving loop kills
that shard's server. The queued inbox and the request in service are
**salvaged**, the journal is replayed (``service.recover()``), a fresh
serving loop is started, and the salvaged requests are resubmitted.
Resubmission is made idempotent by inspecting the recovered namespace
first: an operation the replay already rolled forward is acknowledged
instead of re-executed (a resubmitted ``create`` must not see
``FileExistsError_`` for its own committed first attempt). A
:class:`~repro.resilience.CircuitBreaker` per shard watches
infrastructure failures and quarantines a flapping shard through the
same crash-and-recover path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..core.errors import FileExistsError_, FileNotFoundError_
from ..resilience.failover import CircuitBreaker
from ..sim.engine import Environment, Event, Process
from ..sim.resources import Store
from .service import MetadataService

__all__ = ["MetaRequest", "MetaServer"]

#: operations a request may carry, mapped to their service methods
_OPS = ("create", "delete", "rename", "extend", "lookup")


@dataclass
class MetaRequest:
    """One queued namespace operation."""

    op: str
    args: tuple
    kwargs: dict[str, Any] = field(default_factory=dict)
    event: Event | None = None
    submitted_at: float = 0.0

    @property
    def name(self) -> str:
        """The name the request routes by (``old`` for renames)."""
        return self.args[0]


class MetaServer:
    """Per-shard serving loops over one :class:`MetadataService`."""

    def __init__(
        self,
        env: Environment,
        service: MetadataService,
        op_time: float = 5e-5,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 1.0,
    ):
        self.env = env
        self.service = service
        self.op_time = op_time
        self.inboxes = [Store(env) for _ in service.shards]
        self.breakers = [
            CircuitBreaker(env, breaker_threshold, breaker_cooldown)
            for _ in service.shards
        ]
        #: request currently in service at each shard (salvage target)
        self._in_service: list[MetaRequest | None] = [None] * service.n_shards
        self._servers: list[Process] = [
            env.process(self._serve(i), name=f"metashard{i}")
            for i in range(service.n_shards)
        ]
        #: completed operations per shard
        self.served = [0] * service.n_shards
        #: shard-server crashes survived (injected or breaker-tripped)
        self.crashes = 0
        #: requests salvaged out of dead serving loops and resubmitted
        self.salvaged = 0

    # -- client side -------------------------------------------------------------

    def submit(self, op: str, *args: Any, **kwargs: Any) -> Event:
        """Queue one operation; the event settles with its result."""
        if op not in _OPS:
            raise ValueError(f"unknown metadata op {op!r}")
        req = MetaRequest(op, args, kwargs, Event(self.env), self.env.now)
        self.inboxes[self.service.shard_of(req.name)].put(req)
        return req.event

    # -- serving loops -----------------------------------------------------------

    def _dispatch(self, req: MetaRequest) -> Any:
        return getattr(self.service, req.op)(*req.args, **req.kwargs)

    def _serve(self, idx: int):
        inbox = self.inboxes[idx]
        while True:
            req = yield inbox.get()
            if req.op == "__poison__":
                # deliberate server kill (see crash_shard)
                self._crash(idx, None)
                return
            self._in_service[idx] = req
            yield self.env.timeout(self.op_time)
            try:
                result = self._dispatch(req)
            except (FileExistsError_, FileNotFoundError_, ValueError) as exc:
                # an application-level rejection, not a server failure
                req.event.fail(exc)
                self.breakers[idx].record_success()
            except Exception:
                # infrastructure failure (e.g. an injected crash): this
                # serving loop is dead; salvage, recover, restart
                self.breakers[idx].record_failure()
                self._crash(idx, req)
                return
            else:
                req.event.succeed(result)
                self.breakers[idx].record_success()
                self.served[idx] += 1
            finally:
                self._in_service[idx] = None

    def _crash(self, idx: int, dying: MetaRequest | None) -> None:
        """Kill shard ``idx``'s server: salvage, replay, restart, resubmit."""
        self.crashes += 1
        inbox = self.inboxes[idx]
        salvaged: list[MetaRequest] = []
        if dying is not None:
            salvaged.append(dying)
        while inbox.items:
            salvaged.append(inbox.items.popleft())
        self._in_service[idx] = None
        # journal replay completes (or aborts) whatever the dying server
        # had mid-mutation, and bumps epochs so leases revalidate
        self.service.recover()
        self._servers[idx] = self.env.process(
            self._serve(idx), name=f"metashard{idx}.reborn"
        )
        for req in salvaged:
            self.salvaged += 1
            done, value = self._already_applied(req)
            if done:
                # replay rolled the operation forward: acknowledge it
                # instead of re-executing (resubmission idempotence)
                req.event.succeed(value)
                self.served[idx] += 1
            else:
                inbox.put(req)

    def _already_applied(self, req: MetaRequest) -> tuple[bool, Any]:
        """Did recovery already complete this request's effect?"""
        svc = self.service
        if req.op == "create":
            name = req.args[0]
            if name in svc:
                try:
                    ext = svc._extent_of(svc.shard(name), name)
                except FileNotFoundError_:
                    return False, None
                return True, ext.extent_id
        elif req.op == "delete":
            if req.args[0] not in svc:
                return True, None
        elif req.op == "rename":
            old, new = req.args[0], req.args[1]
            if old not in svc and new in svc:
                return True, None
        elif req.op == "extend":
            name, n_records = req.args[0], req.args[1]
            if name in svc and svc.lookup(name).attrs.n_records >= n_records:
                return True, None
        return False, None

    # -- fault injection / breaker plumbing ---------------------------------------

    def crash_shard(self, idx: int) -> None:
        """Deliberately kill shard ``idx``'s serving loop (tests/benches).

        The kill is delivered as a poison request jumped to the *front*
        of the inbox, so it lands the moment the server is between
        requests: every queued request behind it is salvaged and
        resubmitted, while an operation already mid-mutation dies at its
        own (injected) crash point instead. Interrupting the blocked
        serving process directly would strand its pending inbox get,
        which could later swallow a live request — the poison pill keeps
        the store bookkeeping consistent.
        """
        poison = MetaRequest("__poison__", ("",), {}, Event(self.env),
                             self.env.now)
        box = self.inboxes[idx]
        box.items.appendleft(poison)
        box._dispatch()   # pair it with the server's pending get, if any

    def note_op_failure(self, idx: int) -> None:
        """Feed the shard's breaker; quarantine (crash) it on the trip."""
        if self.breakers[idx].record_failure():
            self.crash_shard(idx)

    @property
    def total_served(self) -> int:
        return sum(self.served)

    def queue_lengths(self) -> list[int]:
        """Pending (unserved) requests in each shard's inbox."""
        return [len(box) for box in self.inboxes]
