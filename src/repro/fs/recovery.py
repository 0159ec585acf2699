"""Failure-recovery strategies and their cost/coverage trade-offs (§5).

The paper weighs three protections for a multi-device file system:

* **backups + rollback** — cheap in hardware, but a single-device failure
  forces rolling *all* devices back to the backup point (post-backup
  writes lost);
* **parity striping** (Kim) — one extra check device per group; covers
  single-drive failure for synchronized (striped) access but not
  independent (PS/IS) access — see `repro.storage.parity`;
* **shadowing** — every drive duplicated; covers any single failure under
  any organization, "very expensive in terms of hardware" — see
  `repro.devices.shadow`.

:func:`protection_overview` tabulates device cost vs coverage (the E9
summary rows); :func:`verify_file` checks a file's global view against
expected contents, which is how experiments decide whether recovery
actually recovered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .pfs import ParallelFile

__all__ = [
    "ProtectionScheme",
    "protection_overview",
    "verify_file",
]


@dataclass(frozen=True)
class ProtectionScheme:
    """Cost and coverage of one protection strategy for N data devices."""

    name: str
    extra_devices: int            # hardware cost beyond the N data devices
    covers_striped: bool          # single-failure recovery for S/SS/GDA striping
    covers_independent: bool      # single-failure recovery for PS/IS access
    loses_recent_writes: bool     # recovery rolls back past the failure point

    def device_overhead(self, n_data: int) -> float:
        """Extra hardware as a fraction of the data devices."""
        if n_data < 1:
            raise ValueError("n_data must be >= 1")
        return self.extra_devices / n_data


def protection_overview(n_data: int, parity_group_size: int | None = None) -> list[ProtectionScheme]:
    """The §5 strategy table for ``n_data`` data devices.

    ``parity_group_size`` is the number of data devices sharing one check
    device (defaults to all of them, one group).
    """
    if n_data < 1:
        raise ValueError("n_data must be >= 1")
    group = parity_group_size or n_data
    if group < 2:
        raise ValueError("parity groups need at least 2 data devices")
    n_groups = -(-n_data // group)
    return [
        ProtectionScheme(
            name="none+backup",
            extra_devices=0,
            covers_striped=True,     # recoverable, but only to backup point
            covers_independent=True,
            loses_recent_writes=True,
        ),
        ProtectionScheme(
            name="parity",
            extra_devices=n_groups,
            covers_striped=True,
            covers_independent=False,  # §5: "does not appear to be applicable"
            loses_recent_writes=False,
        ),
        ProtectionScheme(
            name="shadow",
            extra_devices=n_data,      # "very expensive in terms of hardware"
            covers_striped=True,
            covers_independent=True,
            loses_recent_writes=False,
        ),
    ]


def verify_file(file: "ParallelFile", expected: np.ndarray) -> bool:
    """Zero-time check: does the file's global view equal ``expected``?

    Uses the volume's peek path so verification does not perturb the
    simulated clock or device statistics.
    """
    spec = file.attrs.record_spec
    raw = file.volume.peek(
        file.entry.extent, file.layout, 0, file.attrs.file_bytes
    )
    actual = spec.decode(raw)
    expected_arr = np.asarray(expected)
    if expected_arr.ndim == 1:
        expected_arr = expected_arr.reshape(len(expected_arr), -1)
    return actual.shape == expected_arr.shape and bool(
        np.array_equal(actual, np.ascontiguousarray(expected_arr, dtype=spec.dtype))
    )
