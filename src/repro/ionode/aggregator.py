"""Request aggregation for I/O nodes: coalescing and data sieving.

When several clients' requests sit in a node's queue at once, the node
sees the *batch*, not one request at a time — exactly the vantage point
Crockett's dedicated I/O processors were meant to have. Two classic
optimizations apply (both later formalized for MPI-IO by Thakur et al.):

* **coalescing** — adjacent or overlapping byte ranges on one device
  merge into a single larger transfer;
* **data sieving** — when the coalesced batch is still noncontiguous but
  its holes are small, read one *covering extent* with a single request
  and scatter the wanted pieces out of it, trading wasted transfer bytes
  for saved per-request positioning time.

Everything in this module is pure planning arithmetic over
``(offset, nbytes)`` tuples — no simulation state — so it is unit-testable
without an engine and reusable by the node service loop. The arithmetic
has no unit of its own: the datatype planner
(:mod:`repro.datatype.planner`) applies the same ``plan_reads`` /
``plan_rmw`` to one client's ``(start, count)`` record runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from ..devices.controller import as_payload

__all__ = [
    "DEFAULT_SIEVE_FACTOR",
    "DEFAULT_SIEVE_WINDOW",
    "ReadPlan",
    "coalesce",
    "plan_reads",
    "plan_rmw",
    "plan_writes",
]

#: covering span may exceed the wanted payload by at most this factor
DEFAULT_SIEVE_FACTOR = 4.0
#: covering span may not exceed this many bytes (the sieve buffer size)
DEFAULT_SIEVE_WINDOW = 1 << 22


@dataclass(frozen=True)
class ReadPlan:
    """Device reads covering one batch of read ranges on one device.

    ``reads`` is what the device is asked to do, as ``(offset, nbytes)``
    runs; ``payload_bytes`` is the union of bytes the batch actually wants
    (after coalescing overlaps); ``waste_bytes`` is the sieving surcharge
    — hole bytes transferred only to avoid extra requests. Invariant: the
    total bytes read equals ``payload_bytes + waste_bytes``.
    """

    reads: tuple[tuple[int, int], ...]
    sieved: bool
    payload_bytes: int
    waste_bytes: int

    @property
    def device_bytes(self) -> int:
        """Total bytes the plan transfers from the device."""
        return sum(n for _, n in self.reads)


def coalesce(ranges: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """Merge overlapping/adjacent ``(offset, nbytes)`` ranges into runs.

    Returns maximal contiguous ``(offset, nbytes)`` runs in ascending
    offset order; zero-length ranges are dropped. Each input range is
    fully contained in exactly one returned run.
    """
    merged: list[list[int]] = []
    for lo, hi in sorted((off, off + n) for off, n in ranges if n > 0):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return [(lo, hi - lo) for lo, hi in merged]


def plan_reads(
    ranges: Sequence[tuple[int, int]],
    *,
    sieve: bool = True,
    sieve_factor: float = DEFAULT_SIEVE_FACTOR,
    sieve_window: int = DEFAULT_SIEVE_WINDOW,
) -> ReadPlan:
    """Plan the device reads serving one batch of read ranges.

    First coalesce; then, if more than one run remains, consider replacing
    them all with a single covering-extent read (data sieving). Sieving is
    applied when the covering span is at most ``sieve_factor`` times the
    wanted payload and no larger than ``sieve_window`` bytes — both knobs
    bound the transfer-time surcharge paid to save per-request overhead
    and positioning.
    """
    if sieve_factor < 1.0:
        raise ValueError("sieve_factor must be >= 1.0")
    runs = coalesce(ranges)
    payload = sum(n for _, n in runs)
    if len(runs) <= 1 or not sieve:
        return ReadPlan(tuple(runs), False, payload, 0)
    lo = runs[0][0]
    span = sum(runs[-1]) - lo
    if span <= sieve_factor * payload and span <= sieve_window:
        return ReadPlan(((lo, span),), True, payload, span - payload)
    return ReadPlan(tuple(runs), False, payload, 0)


def plan_rmw(
    ranges: Sequence[tuple[int, int]],
    *,
    sieve_factor: float = DEFAULT_SIEVE_FACTOR,
    sieve_window: int = DEFAULT_SIEVE_WINDOW,
) -> list[tuple[tuple[int, int], tuple[tuple[int, int], ...]]]:
    """Group noncontiguous write ranges into read-modify-write windows.

    The write-side counterpart of :func:`plan_reads` (data sieving for
    writes): coalesce the wanted ranges, then greedily pack consecutive
    runs into *windows* — covering extents to be read, overlaid with the
    wanted pieces, and written back as one transfer each. A run joins the
    current window only while the grown window stays within
    ``sieve_window`` and within ``sieve_factor`` times its wanted payload,
    the same knobs that bound read sieving's transfer surcharge.

    Returns ``(window, pieces)`` pairs in ascending order, every one an
    ``(offset, nbytes)`` run. A window whose single piece equals the
    window itself needs no RMW — the caller should issue it as a plain
    write.
    """
    if sieve_factor < 1.0:
        raise ValueError("sieve_factor must be >= 1.0")
    out: list[tuple[tuple[int, int], tuple[tuple[int, int], ...]]] = []
    cur: list[tuple[int, int]] = []
    payload = 0

    def close() -> None:
        if cur:
            lo = cur[0][0]
            out.append(((lo, sum(cur[-1]) - lo), tuple(cur)))

    for off, n in coalesce(ranges):
        if cur:
            span = off + n - cur[0][0]
            if span <= sieve_window and span <= sieve_factor * (payload + n):
                cur.append((off, n))
                payload += n
                continue
            close()
        cur = [(off, n)]
        payload = n
    close()
    return out


def plan_writes(items: Sequence[tuple[int, Any]]) -> list[tuple[int, np.ndarray]]:
    """Plan the device writes for one batch of ``(offset, data)`` items.

    Returns ``(offset, data)`` pairs. Strictly adjacent writes merge into
    one transfer. Overlapping writes within one batch are an application
    race (the access sanitizer flags them); they are never merged — each
    is issued separately, in arrival order, so the outcome stays the
    outcome of *some* serial order.
    """
    arrs = [(off, as_payload(data)) for off, data in items]
    arrs = [(off, arr) for off, arr in arrs if arr.size]
    in_order = sorted(arrs, key=lambda t: t[0])
    for (lo_a, a), (lo_b, _) in zip(in_order, in_order[1:]):
        if lo_b < lo_a + len(a):  # overlap: no merging at all
            return arrs
    ops: list[tuple[int, np.ndarray]] = []
    for off, arr in in_order:
        if ops and off == ops[-1][0] + len(ops[-1][1]):
            ops[-1] = (ops[-1][0], np.concatenate([ops[-1][1], arr]))
        else:
            ops.append((off, arr))
    return ops
