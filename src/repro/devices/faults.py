"""Failure injection for storage devices.

Device lifetimes are exponential with mean MTBF (the memoryless model under
which §5's arithmetic — system MTBF = device MTBF / N — is exact). The
injector schedules each device's failure as a simulated event so that
experiments can observe what breaks mid-run, and the Monte Carlo half of
experiment E8 can be driven by the same machinery that the analytic half
(`repro.reliability.analytic`) predicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..sim.engine import Environment
from ..sim.rng import RngStreams
from .controller import DeviceController

__all__ = ["FailureInjector", "FailureRecord", "TransientFaultInjector"]

SECONDS_PER_HOUR = 3600.0


@dataclass
class FailureRecord:
    """One observed device fault.

    ``kind`` distinguishes permanent deaths (the exponential-MTBF model of
    §5) from transient episodes: ``"transient"`` for intermittent request
    errors, ``"limp"`` for a duration-bounded slow-drive episode.
    """

    device: str
    time: float  # simulated seconds
    kind: str = "permanent"


@dataclass
class FailureInjector:
    """Schedules exponential failures for a set of controllers."""

    env: Environment
    rng: RngStreams
    time_scale: float = field(default=SECONDS_PER_HOUR)
    failures: list[FailureRecord] = field(default_factory=list)

    def arm(self, device: DeviceController, mtbf_hours: float | None = None) -> float:
        """Draw a lifetime for ``device`` and schedule its failure.

        Returns the scheduled failure time (simulated seconds). The MTBF
        defaults to the device's own disk timing parameter.
        """
        hours = mtbf_hours if mtbf_hours is not None else device.disk.timing.mtbf_hours
        if hours <= 0:
            raise ValueError("MTBF must be positive")
        lifetime = self.rng.exponential(f"fail.{device.name}", hours) * self.time_scale
        self.env.process(self._kill_later(device, lifetime), name=f"fail.{device.name}")
        return self.env.now + lifetime

    def arm_all(self, devices: list[DeviceController]) -> list[float]:
        """Arm every device; returns the scheduled failure times."""
        return [self.arm(d) for d in devices]

    def kill_at(self, device: DeviceController, when: float) -> None:
        """Deterministically fail ``device`` at absolute time ``when``."""
        if when < self.env.now:
            raise ValueError("cannot schedule a failure in the past")
        self.env.process(
            self._kill_later(device, when - self.env.now),
            name=f"fail.{device.name}",
        )

    def _kill_later(self, device: DeviceController, delay: float):
        yield self.env.timeout(delay)
        if not device.failed:
            device.fail()
            self.failures.append(FailureRecord(device.name, self.env.now))

    @property
    def first_failure_time(self) -> float | None:
        """Earliest observed failure (simulated seconds), if any."""
        if not self.failures:
            return None
        return min(f.time for f in self.failures)


@dataclass
class TransientFaultInjector:
    """Injects *recoverable* faults: intermittent errors and limping drives.

    Permanent death (:class:`FailureInjector`) is only half of the §5
    failure model; real drives also glitch — a request fails but the
    next one succeeds — and degrade, serving traffic at a fraction of
    rated speed. Both modes leave the device contents untouched, so a
    bounded-retry policy (``repro.resilience.RetryPolicy``) recovers
    without any reconstruction. Shares :class:`FailureRecord` bookkeeping
    with the permanent injector (``kind="transient"`` / ``kind="limp"``).
    """

    env: Environment
    rng: RngStreams
    failures: list[FailureRecord] = field(default_factory=list)

    def inject_errors(
        self, device: DeviceController, count: int = 1, at: float | None = None
    ) -> None:
        """Make the next ``count`` served requests fail transiently.

        With ``at`` the budget is granted at that absolute simulated time;
        otherwise immediately.
        """
        if count <= 0:
            raise ValueError("count must be positive")
        if at is None:
            self._grant(device, count)
        else:
            if at < self.env.now:
                raise ValueError("cannot schedule a fault in the past")
            self.env.process(
                self._grant_later(device, count, at - self.env.now),
                name=f"transient.{device.name}",
            )

    def limp(self, device: DeviceController, factor: float, duration: float) -> None:
        """Slow ``device`` by ``factor``x for ``duration`` simulated seconds
        from now."""
        if factor <= 1.0:
            raise ValueError("limp factor must exceed 1.0")
        if duration <= 0:
            raise ValueError("limp duration must be positive")
        device.slow_factor = factor
        device.slow_until = self.env.now + duration
        self.failures.append(FailureRecord(device.name, self.env.now, kind="limp"))

    def arm_intermittent(
        self,
        device: DeviceController,
        mean_interval: float,
        horizon: float,
        burst: int = 1,
    ) -> None:
        """Poisson stream of transient-error bursts until ``horizon``.

        Inter-arrival times are exponential with ``mean_interval`` seconds
        (drawn from the ``glitch.<device>`` substream for determinism).
        """
        if mean_interval <= 0 or horizon <= self.env.now:
            raise ValueError("need positive mean_interval and a future horizon")
        self.env.process(
            self._poisson_glitches(device, mean_interval, horizon, burst),
            name=f"glitch.{device.name}",
        )

    # -- internals --------------------------------------------------------

    def _grant(self, device: DeviceController, count: int) -> None:
        device.transient_error_budget += count
        self.failures.append(
            FailureRecord(device.name, self.env.now, kind="transient")
        )

    def _grant_later(self, device: DeviceController, count: int, delay: float):
        yield self.env.timeout(delay)
        if not device.failed:
            self._grant(device, count)

    def _poisson_glitches(
        self,
        device: DeviceController,
        mean_interval: float,
        horizon: float,
        burst: int,
    ):
        stream = f"glitch.{device.name}"
        while True:
            gap = self.rng.exponential(stream, mean_interval)
            if self.env.now + gap >= horizon:
                return
            yield self.env.timeout(gap)
            if device.failed:
                return
            self._grant(device, burst)
