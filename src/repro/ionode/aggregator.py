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
``(offset, nbytes)`` ranges — no simulation state — so it is unit-testable
without an engine and reusable by the node service loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from ..devices.controller import as_payload

__all__ = [
    "Run",
    "ReadPlan",
    "WriteOp",
    "coalesce",
    "plan_reads",
    "plan_rmw",
    "plan_writes",
]


@dataclass(frozen=True)
class Run:
    """One contiguous device byte range ``[offset, offset + nbytes)``."""

    offset: int
    nbytes: int

    @property
    def end(self) -> int:
        """Past-the-end byte offset."""
        return self.offset + self.nbytes


@dataclass(frozen=True)
class ReadPlan:
    """Device reads covering one batch of read ranges on one device.

    ``reads`` is what the device is asked to do; ``payload_bytes`` is the
    union of bytes the batch actually wants (after coalescing overlaps);
    ``waste_bytes`` is the sieving surcharge — hole bytes transferred only
    to avoid extra requests. Invariant: the total bytes read equals
    ``payload_bytes + waste_bytes``.
    """

    reads: tuple[Run, ...]
    sieved: bool
    payload_bytes: int
    waste_bytes: int

    @property
    def device_bytes(self) -> int:
        """Total bytes the plan transfers from the device."""
        return sum(r.nbytes for r in self.reads)


@dataclass(frozen=True)
class WriteOp:
    """One device write: ``data`` landing at byte ``offset``."""

    offset: int
    data: np.ndarray


def coalesce(ranges: Sequence[tuple[int, int]]) -> list[Run]:
    """Merge overlapping/adjacent ``(offset, nbytes)`` ranges into runs.

    Returns maximal contiguous runs in ascending offset order; zero-length
    ranges are dropped. Each input range is fully contained in exactly one
    returned run.
    """
    spans = sorted((off, off + n) for off, n in ranges if n > 0)
    runs: list[Run] = []
    for lo, hi in spans:
        if runs and lo <= runs[-1].end:
            last = runs[-1]
            if hi > last.end:
                runs[-1] = Run(last.offset, hi - last.offset)
        else:
            runs.append(Run(lo, hi - lo))
    return runs


def plan_reads(
    ranges: Sequence[tuple[int, int]],
    *,
    sieve: bool = True,
    sieve_factor: float = 4.0,
    sieve_window: int = 1 << 22,
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
    payload = sum(r.nbytes for r in runs)
    if len(runs) <= 1 or not sieve:
        return ReadPlan(tuple(runs), False, payload, 0)
    span = runs[-1].end - runs[0].offset
    if span <= sieve_factor * payload and span <= sieve_window:
        covering = Run(runs[0].offset, span)
        return ReadPlan((covering,), True, payload, span - payload)
    return ReadPlan(tuple(runs), False, payload, 0)


def plan_rmw(
    ranges: Sequence[tuple[int, int]],
    *,
    sieve_factor: float = 4.0,
    sieve_window: int = 1 << 22,
) -> list[tuple[Run, tuple[Run, ...]]]:
    """Group noncontiguous write ranges into read-modify-write windows.

    The write-side counterpart of :func:`plan_reads` (data sieving for
    writes): coalesce the wanted ranges, then greedily pack consecutive
    runs into *windows* — covering extents to be read, overlaid with the
    wanted pieces, and written back as one transfer each. A run joins the
    current window only while the grown window stays within
    ``sieve_window`` and within ``sieve_factor`` times its wanted payload,
    the same knobs that bound read sieving's transfer surcharge.

    Returns ``(window, pieces)`` pairs in ascending order. A window whose
    single piece equals the window itself needs no RMW — the caller should
    issue it as a plain write.
    """
    if sieve_factor < 1.0:
        raise ValueError("sieve_factor must be >= 1.0")
    runs = coalesce(ranges)
    out: list[tuple[Run, tuple[Run, ...]]] = []
    cur: list[Run] = []
    payload = 0

    def close() -> None:
        if cur:
            window = Run(cur[0].offset, cur[-1].end - cur[0].offset)
            out.append((window, tuple(cur)))

    for r in runs:
        if cur:
            span = r.end - cur[0].offset
            if span <= sieve_window and span <= sieve_factor * (payload + r.nbytes):
                cur.append(r)
                payload += r.nbytes
                continue
            close()
        cur = [r]
        payload = r.nbytes
    close()
    return out


def plan_writes(items: Sequence[tuple[int, Any]]) -> list[WriteOp]:
    """Plan the device writes for one batch of ``(offset, data)`` items.

    Strictly adjacent writes merge into one transfer. Overlapping writes
    within one batch are an application race (the access sanitizer flags
    them); they are never merged — each is issued separately, in arrival
    order, so the outcome stays the outcome of *some* serial order.
    """
    arrs = [(off, as_payload(data)) for off, data in items]
    arrs = [(off, arr) for off, arr in arrs if arr.size]
    in_order = sorted(arrs, key=lambda t: t[0])
    for (lo_a, a), (lo_b, _) in zip(in_order, in_order[1:]):
        if lo_b < lo_a + len(a):  # overlap: no merging at all
            return [WriteOp(off, arr) for off, arr in arrs]
    ops: list[WriteOp] = []
    for off, arr in in_order:
        if ops and off == ops[-1].offset + len(ops[-1].data):
            ops[-1] = WriteOp(ops[-1].offset, np.concatenate([ops[-1].data, arr]))
        else:
            ops.append(WriteOp(off, arr))
    return ops
