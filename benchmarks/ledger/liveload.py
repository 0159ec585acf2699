"""The ledger's wall-clock workload: a ``DatasetServer`` on loopback TCP.

Client load and server share one asyncio loop in one thread (that is how
the stack is used in-process); slab I/O runs on the loop's worker threads.
Phases run in a fixed order — warm-up (discarded), closed loop in
fixed-size rounds, open loop at a fixed rate — because on a small sandbox
the first seconds of threaded work after a rest run up to 2.5x faster than
steady state (see README.md, "The burst artefact").
"""

from __future__ import annotations

import asyncio
import cProfile
import os
import shutil
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro.dataset import DatasetSchema, LiveDataset
from repro.datatype import (
    check_view_runs,
    plan_view_read,
    plan_view_write,
    slab_to_view,
    validate_slab,
)
from repro.live import LiveParallelFileSystem
from repro.live.server import DatasetClient, DatasetServer

N_CONNECTIONS = 2
SLAB = (8, 128)                 # rows x cols of every request
READ_SHARE = 0.75
OPEN_RATE = 600.0               # requests / second over all connections
ROUND_REQUESTS = 400            # closed loop: requests per connection per round
DRIFT_LIMIT = 0.10
WARMUP_SHARE = 0.35             # of --seconds: outlasts the ~2 s sandbox CPU burst
OPEN_SHARE = 0.4
CLOSED_SHARE = 0.6
POOL = 4096                     # pre-generated requests per connection (cycled)
PAYLOADS = 64                   # pre-generated write payloads per connection


class Round(NamedTuple):
    """One closed-loop round: every connection issued its requests back to back."""

    wall_s: float       # until the last connection finished
    read_s: float       # client-observed seconds in reads, per connection
    write_s: float      # ... in writes
    requests: int       # over all connections


def percentile(samples, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100) of ``samples``."""
    s = sorted(samples)
    if not s:
        return 0.0
    pos = q / 100.0 * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


class Connection:
    """One client connection, the half of the grid it owns, and its seeded
    request sequence. Connections own disjoint rows, so each can check every
    read against its own shadow copy whatever the other is doing."""

    def __init__(self, index: int, side: int, grid: np.ndarray, rng):
        self.index = index
        rows = side // N_CONNECTIONS
        self.row0 = index * rows
        self.shadow = grid
        self.ops = (rng.random(POOL) >= READ_SHARE).tolist()      # True = write
        self.r0 = (self.row0 + rng.integers(0, rows - SLAB[0] + 1, POOL)).tolist()
        self.c0 = rng.integers(0, side - SLAB[1] + 1, POOL).tolist()
        self.payloads = [rng.normal(size=SLAB).astype("<f8") for _ in range(PAYLOADS)]
        self.cursor = 0
        self.client: DatasetClient | None = None
        self.attempted = 0
        self.failed = 0

    def next_request(self):
        k = self.cursor
        self.cursor = k + 1
        i = k % POOL
        return self.ops[i], self.r0[i], self.c0[i], self.payloads[k % PAYLOADS]

    async def issue(self, name: str):
        """One request through the server, checked; ``(is_write, seconds)``."""
        is_write, r0, c0, payload = self.next_request()
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if is_write:
                n = await self.client.write(name, "grid", (r0, c0), SLAB, payload)
                ok = n == payload.size
                if ok:
                    self.shadow[r0:r0 + SLAB[0], c0:c0 + SLAB[1]] = payload
            else:
                got = await self.client.read(name, "grid", (r0, c0), SLAB)
                ok = bool(np.array_equal(
                    got, self.shadow[r0:r0 + SLAB[0], c0:c0 + SLAB[1]]))
        except (RuntimeError, ConnectionError, OSError):
            ok = False          # error reply or refused request
        dt = time.perf_counter() - t0
        if not ok:
            self.failed += 1
        return is_write, dt


class ProfiledPool(ThreadPoolExecutor):
    """Worker pool whose threads each profile exactly the calls they run, so
    a traced pass sees the slab I/O the loop hands to ``asyncio.to_thread``."""

    def __init__(self, max_workers: int):
        super().__init__(max_workers=max_workers)
        self._local = threading.local()
        self._lock = threading.Lock()
        self.profiles: list[cProfile.Profile] = []

    def _run(self, fn, *args, **kwargs):
        prof = getattr(self._local, "prof", None)
        if prof is None:
            prof = self._local.prof = cProfile.Profile()
            with self._lock:
                self.profiles.append(prof)
        prof.enable()
        try:
            return fn(*args, **kwargs)
        finally:
            prof.disable()

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(self._run, fn, *args, **kwargs)


class LiveServe:
    name = "live_serve"
    side = 256
    dataset = "live"

    def __init__(self, seed: int, scale: float = 1.0, scratch: Path | None = None):
        self.seed = seed
        self.scale = scale
        self.scratch = Path(scratch) if scratch else Path(tempfile.gettempdir())
        self.schema = DatasetSchema.build(
            {"row": self.side, "col": self.side},
            {"grid": ("<f8", ("row", "col"), {"units": "arb"})},
            {"bench": "ledger"},
        )
        self.round_requests = max(20, int(ROUND_REQUESTS * scale))

    # -- set-up / tear-down ---------------------------------------------------

    async def _setup(self):
        rng = np.random.default_rng([self.seed, 0x11FE])
        self.scratch.mkdir(parents=True, exist_ok=True)
        root = Path(tempfile.mkdtemp(prefix="live_", dir=self.scratch))
        grid = rng.normal(size=(self.side, self.side)).astype("<f8")
        lfs = LiveParallelFileSystem(root)
        LiveDataset.create(lfs, self.dataset, self.schema, data={"grid": grid}).close()
        server = await DatasetServer(lfs).start()
        conns = [
            Connection(i, self.side, grid, np.random.default_rng([self.seed, 0x11FE, i]))
            for i in range(N_CONNECTIONS)
        ]
        for c in conns:
            c.client = await DatasetClient.connect("127.0.0.1", server.port, tenant="gold")
        return {"root": root, "lfs": lfs, "server": server, "conns": conns, "grid": grid}

    async def _teardown(self, state):
        for c in state["conns"]:
            if c.client is not None:
                await c.client.close()
        await state["server"].stop()
        shutil.rmtree(state["root"], ignore_errors=True)

    # -- phases ----------------------------------------------------------------

    async def _closed_round(self, conns, n: int):
        """Every connection issues ``n`` requests back to back."""
        by_op = [0.0, 0.0]

        async def one(c):
            for _ in range(n):
                is_write, dt = await c.issue(self.dataset)
                by_op[is_write] += dt

        t0 = time.perf_counter()
        await asyncio.gather(*(one(c) for c in conns))
        wall = time.perf_counter() - t0
        return Round(wall, by_op[0] / len(conns), by_op[1] / len(conns), n * len(conns))

    async def _closed_for(self, conns, seconds: float):
        rounds = []
        t0 = time.perf_counter()
        while not rounds or time.perf_counter() - t0 < seconds:
            rounds.append(await self._closed_round(conns, self.round_requests))
        return rounds

    async def _open_loop(self, conns, seconds: float):
        """Requests sent on a fixed schedule whatever the replies do; latency
        runs from each request's due time, so a stall is charged to every
        request it delays."""
        period = len(conns) / OPEN_RATE
        n = max(10, int(seconds / period))
        lat = ([], [])              # seconds from due time: reads, writes
        late = []                   # how late the generator sent
        start = time.perf_counter() + 0.01

        async def one(c):
            t0 = start + c.index * period / len(conns)
            for i in range(n):
                due = t0 + i * period
                wait = due - time.perf_counter()
                if wait > 0:
                    await asyncio.sleep(wait)
                late.append(time.perf_counter() - due)
                is_write, _ = await c.issue(self.dataset)
                lat[is_write].append(time.perf_counter() - due)

        await asyncio.gather(*(one(c) for c in conns))
        return lat, late

    # -- outside-in timing of the live path's layers (traced runs only) -------

    async def _probes(self, state, n: int) -> dict:
        shape = (self.side, self.side)
        out = {}
        # connection 0's seeded sequence, replayed through every probe
        c = state["conns"][0]
        saved, c.cursor = c.cursor, 0
        requests = [c.next_request() for _ in range(n)]

        # client round trip through the server, one caller
        c.cursor = 0
        t0 = time.perf_counter()
        for _ in range(n):
            await c.issue(self.dataset)
        out["live.rtt_us"] = (time.perf_counter() - t0) / n * 1e6
        c.cursor = saved

        # the backend called directly
        with LiveDataset.open(state["lfs"], self.dataset) as ds:
            t0 = time.perf_counter()
            for is_write, r0, c0, payload in requests:
                if is_write:
                    ds.write_slab("grid", (r0, c0), SLAB, payload)
                    c.shadow[r0:r0 + SLAB[0], c0:c0 + SLAB[1]] = payload
                else:
                    ds.read_slab("grid", (r0, c0), SLAB)
            out["live.backend_us"] = (time.perf_counter() - t0) / n * 1e6
            base = ds.toc["var/grid"].payload_off
            n_records = ds.file.n_records

        # slab -> view -> plan alone
        t0 = time.perf_counter()
        for is_write, r0, c0, _ in requests:
            start, count = validate_slab(shape, (r0, c0), SLAB)
            view = slab_to_view(shape, start, count, base=base, scale=8)
            runs = check_view_runs(view, n_records)
            (plan_view_write if is_write else plan_view_read)(runs, 1)
        out["live.plan_us"] = (time.perf_counter() - t0) / n * 1e6

        # the floor: bare positioned syscalls moving the same bytes
        row_bytes = SLAB[1] * 8
        path = state["root"] / "floor.bin"
        path.write_bytes(bytes(self.side * self.side * 8))
        fd = os.open(path, os.O_RDWR)
        try:
            t0 = time.perf_counter()
            for is_write, r0, c0, payload in requests:
                raw = payload.tobytes() if is_write else None
                for k in range(SLAB[0]):
                    off = ((r0 + k) * self.side + c0) * 8
                    if is_write:
                        os.pwrite(fd, raw[k * row_bytes:(k + 1) * row_bytes], off)
                    else:
                        os.pread(fd, row_bytes, off)
            out["live.syscall_us"] = (time.perf_counter() - t0) / n * 1e6
        finally:
            os.close(fd)

        # the hop floor: a no-op through the loop's worker pool
        t0 = time.perf_counter()
        for _ in range(n):
            await asyncio.to_thread(int)
        out["live.thread_hop_us"] = (time.perf_counter() - t0) / n * 1e6
        out["live.server_overhead_us"] = out["live.rtt_us"] - out["live.backend_us"]
        return out

    # -- the run ---------------------------------------------------------------

    def run(self, seconds: float, setup_repeats: int,
            profiler: cProfile.Profile | None = None) -> dict:
        """All phases of one run. Returns the pieces the runner folds into
        metrics; ``profiler`` adds a traced closed-loop round at the end."""
        return asyncio.run(self._run(seconds, setup_repeats, profiler))

    async def _run(self, seconds, setup_repeats, profiler):
        setups = []
        for _ in range(setup_repeats - 1):      # extra set-ups, timed then discarded
            t0 = time.perf_counter()
            state = await self._setup()
            setups.append(time.perf_counter() - t0)
            await self._teardown(state)
        t0 = time.perf_counter()
        state = await self._setup()
        setups.append(time.perf_counter() - t0)
        conns = state["conns"]
        out = {"setup_samples": setups}
        try:
            # fixed phase order: warm-up, closed loop, open loop. The closed
            # loop follows the warm-up directly: any pause or lighter phase in
            # between lets the sandbox's CPU burst allowance refill
            t0 = time.perf_counter()
            await self._closed_for(conns, WARMUP_SHARE * seconds)
            out["live.warmup_s"] = time.perf_counter() - t0
            for c in conns:
                c.attempted = c.failed = 0

            flagged = False
            for attempt in range(2):
                rounds = await self._closed_for(conns, CLOSED_SHARE * seconds)
                half = len(rounds) // 2
                if half:
                    first = sum(r.wall_s for r in rounds[:half]) / half
                    second = sum(r.wall_s for r in rounds[half:]) / (len(rounds) - half)
                    drift = first / second      # = req/s second half / first half
                else:
                    drift = 1.0
                if abs(drift - 1.0) <= DRIFT_LIMIT:
                    break
                flagged = attempt == 1

            lat, late = await self._open_loop(conns, OPEN_SHARE * seconds)
            out.update(
                rounds=rounds, lat=lat, late=late, drift=drift, drift_flagged=flagged,
                attempted=sum(c.attempted for c in conns),
                failed=sum(c.failed for c in conns),
            )
            stats = state["server"].stats()
            out["server_errors"] = stats["errors_total"] + stats["protocol_errors"]
            out["live.admission_wait_s"] = sum(
                t["admission_wait_s"] for t in stats["tenants"].values())

            # the server's own copy must agree with the shadows at the end
            final = LiveDataset.open(state["lfs"], self.dataset)
            try:
                grid = final.read_variable("grid")
            finally:
                final.close()
            rows = self.side // N_CONNECTIONS
            out["final_ok"] = all(
                np.array_equal(grid[c.row0:c.row0 + rows], c.shadow[c.row0:c.row0 + rows])
                for c in conns
            )

            if profiler is not None:
                out.update(await self._probes(state, max(50, int(500 * self.scale))))
                loop = asyncio.get_running_loop()
                pool = ProfiledPool(N_CONNECTIONS)
                loop.set_default_executor(pool)
                n_rounds = max(1, len(rounds) // 2)
                profiler.enable()
                t0 = time.perf_counter()
                for _ in range(n_rounds):
                    await self._closed_round(conns, self.round_requests)
                out["traced_wall_s"] = (time.perf_counter() - t0) / n_rounds
                profiler.disable()
                out["thread_profiles"] = pool.profiles
        finally:
            await self._teardown(state)
        return out
