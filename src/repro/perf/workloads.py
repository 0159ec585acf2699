"""Deterministic six-organization workloads for perf and determinism runs.

One workload per file organization (S, PS, IS, SS, GDA, PDA), each a full
read pass followed by a full write pass through the organization's own
handle type. The determinism regression tests
(`tests/perf/test_determinism.py`) pin their simulated outcome.

Everything here is deterministic by construction — no RNG, no wall-clock
reads — so two runs of the same workload on the same configuration must
produce the same event order, final clock, device statistics, and media
bytes. :func:`digest` folds all of those into one hash; an attached
sanitizer must leave it unchanged (see ``docs/PERF.md``).
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Iterable

import numpy as np

from ..fs.internal_io import SSSession
from ..sim.engine import Environment, Process

if TYPE_CHECKING:  # pragma: no cover
    from ..fs.pfs import ParallelFile, ParallelFileSystem

__all__ = [
    "ORGS",
    "WorkloadConfig",
    "make_file",
    "seed_file",
    "spawn_workload",
    "run_org",
    "digest",
]

#: every file organization, in the paper's order
ORGS = ("S", "PS", "IS", "SS", "GDA", "PDA")


class WorkloadConfig:
    """Shape of one workload file (size, blocking, parallelism)."""

    __slots__ = ("n_records", "record_size", "records_per_block",
                 "n_processes", "chunk", "cache_blocks")

    def __init__(
        self,
        n_records: int = 480,
        record_size: int = 32,
        records_per_block: int = 6,
        n_processes: int = 4,
        chunk: int = 48,
        cache_blocks: int = 2,
    ):
        if n_records % n_processes:
            raise ValueError("n_records must divide evenly among processes")
        self.n_records = n_records
        self.record_size = record_size
        self.records_per_block = records_per_block
        self.n_processes = n_processes
        self.chunk = chunk
        self.cache_blocks = cache_blocks


def make_file(
    pfs: "ParallelFileSystem", org: str, cfg: WorkloadConfig
) -> "ParallelFile":
    """Create (and seed) the workload file for ``org``."""
    f = pfs.create(
        f"perf_{org}",
        org,
        n_records=cfg.n_records,
        record_size=cfg.record_size,
        records_per_block=cfg.records_per_block,
        n_processes=cfg.n_processes,
    )
    seed_file(f)
    return f


def seed_file(file: "ParallelFile") -> None:
    """Fill the file's media with a deterministic pattern in zero time."""
    nbytes = file.attrs.file_bytes
    raw = (np.arange(nbytes, dtype=np.uint64) % 251).astype(np.uint8)
    file.volume.poke(file.entry.extent, file.layout, 0, raw)


def _fill(count: int, record_size: int, salt: int) -> np.ndarray:
    """Deterministic write payload: ``count`` records of ``record_size``."""
    flat = (np.arange(count * record_size, dtype=np.uint64) * 7 + salt) % 251
    return flat.astype(np.uint8).reshape(count, record_size)


def spawn_workload(
    file: "ParallelFile", cfg: WorkloadConfig
) -> list[Process]:
    """Spawn the organization's read-then-write workload processes.

    The caller owns the run (``env.run(env.all_of(procs))`` or a bare
    ``env.run()``); this only creates the processes.
    """
    org = file.map.org.name
    env = file.env
    driver = {
        "S": _spawn_s,
        "PS": _spawn_partition,
        "IS": _spawn_partition,
        "SS": _spawn_ss,
        "GDA": _spawn_gda,
        "PDA": _spawn_pda,
    }[org]
    return driver(env, file, cfg)


def run_org(
    env: Environment, pfs: "ParallelFileSystem", org: str, cfg: WorkloadConfig
) -> "ParallelFile":
    """Create, seed, and spawn one organization's workload (no run)."""
    f = make_file(pfs, org, cfg)
    spawn_workload(f, cfg)
    return f


# -- per-organization drivers -------------------------------------------------


def _spawn_s(env, file, cfg):
    def reader_writer():
        h = file.internal_view(file.map.reader)
        while not h.eof:
            yield from h.read_next(cfg.chunk)
        w = file.internal_view(file.map.reader)
        pos = 0
        while pos < cfg.n_records:
            count = min(cfg.chunk, cfg.n_records - pos)
            yield from w.write_next(_fill(count, cfg.record_size, pos))
            pos += count

    return [env.process(reader_writer())]


def _spawn_partition(env, file, cfg):
    def worker(p):
        h = file.internal_view(p)
        while not h.eof:
            yield from h.read_next(cfg.chunk)
        w = file.internal_view(p)
        pos = 0
        while pos < w.n_local_records:
            count = min(cfg.chunk, w.n_local_records - pos)
            yield from w.write_next(_fill(count, cfg.record_size, p * 131 + pos))
            pos += count

    return [env.process(worker(p)) for p in range(cfg.n_processes)]


def _spawn_ss(env, file, cfg):
    read_session = SSSession(file)
    write_session = SSSession(file)
    block_records = cfg.records_per_block

    def worker(p):
        h = read_session.handle(p)
        while not read_session.exhausted:
            data = yield from h.read_next()
            if data is None:
                break
        w = write_session.handle(p)
        payload = _fill(block_records, cfg.record_size, p * 17 + 5)
        while not write_session.exhausted:
            n = yield from w.write_next(payload)
            if not n:
                break

    return [env.process(worker(p)) for p in range(cfg.n_processes)]


def _spawn_gda(env, file, cfg):
    # Disjoint record extents: process p owns every P-th extent of
    # records_per_block records and visits them in a scrambled (but
    # fixed) order, which is what makes this "direct" rather than
    # interleaved.
    P = cfg.n_processes
    span = cfg.records_per_block
    if cfg.n_records % (P * span):
        raise ValueError("GDA needs n_records divisible by n_processes * records_per_block")
    k = cfg.n_records // (P * span)

    def worker(p):
        # extents are block-aligned, so a working-set cache turns the
        # write pass into cache hits and defers device writes to one
        # flush — a gather under extent batching
        h = file.internal_view(p, cache_blocks=max(k, 1))
        order = [(((i * 7 + 3) % k) * P + p) * span for i in range(k)]
        for r in order:
            yield from h.read_record(r, span)
        for r in order:
            yield from h.write_record(r, _fill(span, cfg.record_size, r))
        yield from h.flush()

    return [env.process(worker(p)) for p in range(P)]


def _spawn_pda(env, file, cfg):
    # Every owned block is cached (the §3.2 private-block working set), so
    # the read pass misses once per block, the write pass hits, and the
    # final flush writes the whole dirty set back — one gather under
    # extent batching, one write per block without it.
    bs = file.attrs.block_spec

    def worker(p):
        owned = [int(b) for b in file.map.blocks_of(p)]
        h = file.internal_view(p, cache_blocks=max(len(owned), 1))
        spans = []
        for b in owned:
            first = bs.first_record(b)
            count = min(cfg.records_per_block, cfg.n_records - first)
            spans.append((first, count))
        for first, count in spans:
            yield from h.read_record(first, count)
        for first, count in spans:
            yield from h.write_record(
                first, _fill(count, cfg.record_size, first)
            )
        yield from h.flush()

    return [env.process(worker(p)) for p in range(cfg.n_processes)]


# -- outcome digest -----------------------------------------------------------


def _device_members(device) -> Iterable:
    """Expand ShadowPair-style composites into their member controllers."""
    primary = getattr(device, "primary", None)
    if primary is not None:
        return (primary, device.shadow)
    return (device,)


def digest(
    env: Environment,
    pfs: "ParallelFileSystem",
    files: "Iterable[ParallelFile]",
) -> str:
    """Hash of everything the simulation produced that users can observe.

    Folds in the final clock, the event-id and step counters (so any
    reordering or extra/missing event changes the hash), per-device
    statistics, and the media bytes of every workload file. Two runs that
    agree on this digest produced byte-identical simulated results —
    the plain/sanitized equivalence contract.
    """
    h = hashlib.sha256()
    h.update(repr((float(env.now), env._eid, env.steps)).encode())
    for device in pfs.volume.devices:
        for d in _device_members(device):
            lat = d.latency
            h.update(
                repr(
                    (
                        d.name,
                        d.writes_applied,
                        lat.count,
                        float(lat.total),
                        d.transient_errors,
                    )
                ).encode()
            )
    for f in files:
        raw = f.volume.peek(f.entry.extent, f.layout, 0, f.attrs.file_bytes)
        h.update(f.name.encode())
        h.update(np.ascontiguousarray(raw).tobytes())
    return h.hexdigest()
