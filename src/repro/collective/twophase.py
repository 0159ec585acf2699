"""Two-phase collective I/O — the extension the paper's concepts led to.

§6 asks for "the best ways to implement" the organizations; the answer
the community converged on a few years later (Bridge's tools, PASSION,
then MPI-IO's collective buffering) is *two-phase I/O*: when every
process of a parallel program participates in one logical transfer whose
per-process pieces are small and strided (the IS internal view is the
canonical case), it is cheaper to

1. **Phase 1 (I/O)** — divide the *file range* into one contiguous domain
   per process (its *file domain*) and have each process transfer only
   its own domain with a few large sequential requests, then
2. **Phase 2 (exchange)** — redistribute the data in memory, over the
   interconnect, to the processes that actually want each record.

The trade: phase 1 converts many seeks into streaming transfers; phase 2
adds interconnect traffic. Benchmarks X1 and X2 (the access-optimization
hierarchy) measure the crossover against independent strided, list-I/O,
and data-sieving access.

Collective writes run the phases in the other order: each process first
*exchanges* the records that fall outside its own file domain to the
domain owners (charged per process, for the bytes it actually ships),
then every owner assembles its contiguous domain — read-filling any
record no process contributed, so unwritten bytes keep their previous
contents — and writes it with one transfer.

Both directions are *ranged* (``read_at`` / ``write_at`` over any record
span) and accept explicit per-process index lists, which is what makes
collectives work for the dynamic organizations (SS/GDA, where no static
map says who owns what) under ``allow_dynamic=True``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..core.convert import contiguous_runs
from ..core.errors import OrganizationError
from ..sim.sync import SimBarrier

if TYPE_CHECKING:  # pragma: no cover
    from ..fs.pfs import ParallelFile

__all__ = ["CollectiveIO", "balanced_indices"]


def balanced_indices(start: int, count: int, n_processes: int) -> dict[int, np.ndarray]:
    """A balanced contiguous split of ``[start, start + count)`` records.

    The canonical explicit ``indices=`` argument for collectives over the
    dynamic organizations (SS/GDA have no static ownership to consult):
    process ``q`` receives the ``q``-th of ``n_processes`` contiguous
    domains, sized as evenly as possible — the same arithmetic as
    :meth:`CollectiveIO.file_domain`.
    """
    if n_processes < 1:
        raise ValueError("n_processes must be >= 1")
    q_size, r = divmod(count, n_processes)
    out: dict[int, np.ndarray] = {}
    for q in range(n_processes):
        lo = start + q * q_size + min(q, r)
        hi = lo + q_size + (1 if q < r else 0)
        out[q] = np.arange(lo, hi, dtype=np.int64)
    return out


class CollectiveIO:
    """Coordinated ranged transfers for all processes of a file.

    ``exchange_rate`` (bytes/second) and ``exchange_latency`` (seconds per
    message) model the interconnect of the exchange phase. The
    1989-flavoured default (10 MB/s, 100 µs) is an order of magnitude
    faster than one disk — the regime in which two-phase I/O pays off.

    By default the file must have a static organization (S/PS/IS/PDA), so
    the organization map determines which records each process wants.
    ``allow_dynamic=True`` admits SS/GDA files too; every collective call
    must then pass explicit ``indices`` (there is no static ownership to
    consult).
    """

    def __init__(
        self,
        file: "ParallelFile",
        exchange_rate: float = 10e6,
        exchange_latency: float = 1e-4,
        *,
        allow_dynamic: bool = False,
    ):
        if not file.map.is_static and not allow_dynamic:
            raise OrganizationError(
                "collective I/O requires a static organization (S/PS/IS/PDA); "
                "pass allow_dynamic=True and explicit indices= to run "
                "collectives over SS/GDA files"
            )
        if exchange_rate <= 0 or exchange_latency < 0:
            raise ValueError("invalid interconnect parameters")
        self.file = file
        self.exchange_rate = exchange_rate
        self.exchange_latency = exchange_latency
        #: bytes moved over the interconnect by the last operation
        self.last_exchange_bytes = 0
        #: per-process interconnect bytes of the last operation
        self.last_remote_bytes: dict[int, int] = {}

    # -- file domains ---------------------------------------------------------

    def file_domain(
        self, process: int, start: int = 0, count: int | None = None
    ) -> tuple[int, int]:
        """Half-open record range ``process`` transfers in the I/O phase —
        a balanced contiguous split of ``[start, start + count)`` (the
        whole file by default)."""
        if count is None:
            count = self.file.n_records - start
        p = self.file.map.n_processes
        q, r = divmod(count, p)
        lo = start + process * q + min(process, r)
        hi = lo + q + (1 if process < r else 0)
        return lo, hi

    def _exchange_cost(self, nbytes: int) -> float:
        if nbytes <= 0:
            return 0.0
        return self.exchange_latency + nbytes / self.exchange_rate

    def _wanted(
        self, start: int, count: int, indices
    ) -> dict[int, np.ndarray]:
        """Per-process global record indices for a ranged collective.

        Defaults to each process's organization-map sequence clipped to
        the range; explicit ``indices`` (``{process: array}``) override it
        and are required for dynamic organizations.
        """
        m = self.file.map
        p = m.n_processes
        end = start + count
        out: dict[int, np.ndarray] = {}
        if indices is None:
            if not m.is_static:
                raise OrganizationError(
                    f"{m.org.name} files have no static record ownership; "
                    "pass explicit indices={process: records}"
                )
            for q in range(p):
                recs = m.records_of(q)
                out[q] = recs[(recs >= start) & (recs < end)]
            return out
        if sorted(indices) != list(range(p)):
            raise ValueError("need indices for every process")
        for q in range(p):
            arr = np.asarray(indices[q], dtype=np.int64)
            if arr.size and (arr.min() < start or arr.max() >= end):
                raise ValueError(
                    f"process {q} indices outside range [{start}, {end})"
                )
            out[q] = arr
        return out

    # -- collective read --------------------------------------------------------

    def read_all(self, indices=None):
        """Generator: every process's records, via two-phase transfer.

        Returns ``{process: array}`` where each array holds the process's
        records in its access order (exactly what independent reads would
        have returned). See :meth:`read_at` for ``indices``.
        """
        return (yield from self.read_at(0, self.file.n_records, indices))

    def read_at(self, start: int, count: int, indices=None):
        """Generator: ranged two-phase collective read of
        ``[start, start + count)``.

        Each process reads its file domain of the range with one
        contiguous transfer, then pulls the records it wants from the
        owning domains over the interconnect (each process is charged the
        bytes *it* fetched remotely). ``indices`` optionally gives each
        process's wanted records explicitly (required for dynamic
        organizations); duplicates across processes are fine for reads.
        """
        env = self.file.env
        p = self.file.map.n_processes
        self.file._check_span(start, count)
        wanted_of = self._wanted(start, count, indices)
        spec = self.file.attrs.record_spec
        record_size = spec.record_size
        bounds = [self.file_domain(q, start, count) for q in range(p)]
        barrier = SimBarrier(env, p)
        domains: dict[int, np.ndarray] = {}
        remote: dict[int, int] = {}

        def phase_worker(q: int):
            # I/O phase: read my contiguous file domain
            lo, hi = bounds[q]
            if hi > lo:
                domains[q] = yield self.file.read_records(lo, hi - lo)
            else:
                domains[q] = spec.decode(b"")
            yield barrier.wait()
            # exchange phase: pull my records from the owning domains
            wanted = wanted_of[q]
            if len(wanted) == 0:
                remote[q] = 0
                return q, spec.decode(b"")
            out = np.empty(
                (len(wanted), spec.items_per_record), dtype=spec.dtype
            )
            remote_bytes = 0
            for src in range(p):
                s_lo, s_hi = bounds[src]
                mask = (wanted >= s_lo) & (wanted < s_hi)
                if not mask.any():
                    continue
                take = domains[src][wanted[mask] - s_lo]
                out[mask] = take
                if src != q:
                    remote_bytes += take.shape[0] * record_size
            remote[q] = remote_bytes
            if remote_bytes:
                yield env.timeout(self._exchange_cost(remote_bytes))
            return q, out

        def driver():
            procs = [env.process(phase_worker(q)) for q in range(p)]
            results = yield env.all_of(procs)
            return dict(results.values())

        result = yield env.process(driver())
        self.last_remote_bytes = dict(remote)
        self.last_exchange_bytes = sum(remote.values())
        return result

    # -- collective write ----------------------------------------------------------

    def write_all(self, per_process: dict[int, np.ndarray], indices=None):
        """Generator: every process contributes its records; two-phase.

        ``per_process[q]`` holds process q's records in its access order.
        See :meth:`write_at`.
        """
        return (
            yield from self.write_at(
                0, self.file.n_records, per_process, indices
            )
        )

    def write_at(
        self,
        start: int,
        count: int,
        per_process: dict[int, np.ndarray],
        indices=None,
    ):
        """Generator: ranged two-phase collective write of
        ``[start, start + count)``.

        Exchange phase: each process partitions its own records by file
        domain and ships the ones crossing into other domains (charged
        per process for the bytes it actually sends). I/O phase: each
        domain owner assembles its contiguous domain from the received
        pieces — records no process contributed are *read-filled* from
        the file first, so unwritten ranges keep their previous contents
        instead of receiving uninitialized garbage — and writes it with
        one transfer.

        ``indices`` optionally gives each process's record placement
        explicitly (required for dynamic organizations). Index lists must
        be disjoint across processes: overlapping collective writes have
        no defined outcome.
        """
        env = self.file.env
        m = self.file.map
        p = m.n_processes
        spec = self.file.attrs.record_spec
        items = spec.items_per_record
        self.file._check_span(start, count)
        wanted_of = self._wanted(start, count, indices)
        if sorted(per_process) != list(range(p)):
            raise ValueError("need data for every process")
        data_of: dict[int, np.ndarray] = {}
        for q in range(p):
            data = np.asarray(per_process[q])
            if data.ndim == 1:
                data = data.reshape(-1, items)
            if len(data) != len(wanted_of[q]):
                raise ValueError(
                    f"process {q} supplied {len(data)} records, "
                    f"owns {len(wanted_of[q])}"
                )
            data_of[q] = data
        # disjointness, exactly and without sorting: every index lies in
        # [start, start + count) (checked by _wanted), so mark each one in
        # a flag per record of the span; a duplicate, across processes or
        # inside one, marks fewer flags than there are indices
        taken = np.zeros(count, dtype=bool)
        for wanted in wanted_of.values():
            taken[wanted - start] = True
        if np.count_nonzero(taken) != sum(map(len, wanted_of.values())):
            raise ValueError(
                "collective write indices overlap across processes"
            )

        bounds = [self.file_domain(q, start, count) for q in range(p)]
        barrier = SimBarrier(env, p)
        #: per-domain contributions: list of (global indices, rows)
        incoming: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {
            q: [] for q in range(p)
        }
        remote: dict[int, int] = {}

        def phase_worker(q: int):
            # exchange phase: scatter my records to their domain owners;
            # only the records crossing out of my own domain travel the
            # interconnect, and I pay for exactly those bytes
            wanted, data = wanted_of[q], data_of[q]
            remote_bytes = 0
            for dst in range(p):
                d_lo, d_hi = bounds[dst]
                mask = (wanted >= d_lo) & (wanted < d_hi)
                if not mask.any():
                    continue
                incoming[dst].append((wanted[mask], data[mask]))
                if dst != q:
                    remote_bytes += int(mask.sum()) * spec.record_size
            remote[q] = remote_bytes
            if remote_bytes:
                yield env.timeout(self._exchange_cost(remote_bytes))
            yield barrier.wait()
            # I/O phase: assemble and write my contiguous domain
            lo, hi = bounds[q]
            if hi <= lo:
                return q
            buf = np.empty((hi - lo, items), dtype=spec.dtype)
            covered = np.zeros(hi - lo, dtype=bool)
            for idx, rows in incoming[q]:
                buf[idx - lo] = rows
                covered[idx - lo] = True
            if not covered.all():
                # read-fill the holes: unwritten records keep their
                # previous on-media contents
                holes = contiguous_runs(np.nonzero(~covered)[0] + lo)
                if len(holes) == 1:
                    fill = yield self.file.read_records(*holes[0])
                else:
                    fill = yield self.file.read_gather(holes)
                pos = 0
                for start, count in holes:
                    buf[start - lo : start - lo + count] = fill[pos : pos + count]
                    pos += count
            yield self.file.write_records(lo, buf)
            return q

        def driver():
            procs = [env.process(phase_worker(q)) for q in range(p)]
            yield env.all_of(procs)
            return count

        result = yield env.process(driver())
        self.last_remote_bytes = dict(remote)
        self.last_exchange_bytes = sum(remote.values())
        return result
