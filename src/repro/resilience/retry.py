"""Bounded retry with exponential backoff, jitter, and deadlines.

§5 of the paper treats device failure as binary — a drive is either up or
has "completely failed". Real 1989 drives (and everything since) also
glitch: a request errors but the next one succeeds. The response layer
here is the standard one: retry a bounded number of times, backing off
exponentially with jitter so that a crowd of retrying clients does not
re-collide, and give up past a per-request deadline.

The exactly-once story rests on a division of labour: a
:class:`~repro.devices.controller.TransientIOError` is raised *before*
any media transfer, so a retried request cannot double-apply — and the
:class:`RetriedOp` record proves it, carrying the attempt/failure/success
counts that :meth:`repro.sanitize.EngineSanitizer.on_retried_op` checks
(``attempts == failures + successes`` and at most one success per op).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..devices.controller import TransientIOError
from ..sim.engine import Environment, Event
from ..sim.rng import RngStreams

__all__ = ["RetryPolicy", "RetriedOp", "RetryError", "retrying"]


class RetryError(Exception):
    """Retries exhausted (or deadline exceeded) for one operation."""

    def __init__(self, message: str, op: "RetriedOp"):
        super().__init__(message)
        self.op = op


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded attempts with exponential backoff and jitter.

    ``deadline`` is a per-operation budget in simulated seconds: a retry
    whose backoff delay would overrun it is not attempted.
    """

    max_attempts: int = 4
    base_delay: float = 0.001
    backoff: float = 2.0
    jitter: float = 0.25
    deadline: float | None = None

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.backoff < 1.0:
            raise ValueError("need base_delay >= 0 and backoff >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive")

    def delay(self, retry: int, rng: RngStreams | None = None, stream: str = "retry") -> float:
        """Backoff before the ``retry``-th re-attempt (0-based)."""
        d = self.base_delay * self.backoff**retry
        if self.jitter and rng is not None:
            d *= 1.0 + self.jitter * rng.uniform(stream, -1.0, 1.0)
        return max(d, 0.0)


@dataclass(slots=True)
class RetriedOp:
    """Accounting for one logical operation through the retry loop."""

    kind: str
    target: str
    attempts: int = 0
    failures: int = 0
    successes: int = 0
    acked: bool = False      # the caller saw the op complete
    gave_up: bool = False    # retries exhausted / deadline overrun
    errors: list[str] = field(default_factory=list)


def retrying(
    env: Environment,
    make_event: Callable[[], Event],
    policy: RetryPolicy,
    *,
    rng: RngStreams | None = None,
    stream: str = "retry",
    kind: str = "op",
    target: str = "?",
    retry_on: tuple[type[BaseException], ...] = (TransientIOError,),
    on_report: Callable[[RetriedOp], None] | None = None,
):
    """Generator: issue ``make_event()`` until it succeeds or retries run out.

    Each attempt issues a *fresh* event (``make_event`` is called per
    attempt), so a failed attempt is abandoned, never re-awaited.
    Exceptions outside ``retry_on`` (a permanently dead device, a stale
    parity region) propagate immediately — they are not retryable.
    """
    op = RetriedOp(kind=kind, target=target)
    start = env.now
    retries = 0
    while True:
        op.attempts += 1
        try:
            value = yield make_event()
        except retry_on as exc:
            op.failures += 1
            op.errors.append(type(exc).__name__)
            if op.attempts >= policy.max_attempts:
                op.gave_up = True
                _report(env, op, on_report)
                raise RetryError(
                    f"{kind} on {target}: gave up after {op.attempts} "
                    f"attempts ({op.errors[-1]})",
                    op,
                ) from exc
            delay = policy.delay(retries, rng, stream)
            retries += 1
            if (
                policy.deadline is not None
                and env.now - start + delay > policy.deadline
            ):
                op.gave_up = True
                _report(env, op, on_report)
                raise RetryError(
                    f"{kind} on {target}: deadline {policy.deadline}s "
                    f"overrun after {op.attempts} attempts",
                    op,
                ) from exc
            yield env.sleep(delay)
        except BaseException as exc:
            # not retryable: account for the failed attempt and re-raise
            op.failures += 1
            op.errors.append(type(exc).__name__)
            _report(env, op, on_report)
            raise
        else:
            op.successes += 1
            op.acked = True
            _report(env, op, on_report)
            return value


def _report(env: Environment, op: RetriedOp, on_report) -> None:
    sanitizer = env._sanitizer
    if sanitizer is not None:
        sanitizer.on_retried_op(op)
    if on_report is not None:
        on_report(op)
