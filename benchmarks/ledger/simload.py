"""The ledger's simulated-time workloads.

Five workloads over ``repro``'s public API. The drivers here are the
ledger's own copies: a later change to ``repro.perf.workloads`` or to
``benchmarks/bench_*.py`` cannot change the load the ledger applies.

Every workload has the same shape::

    w = SimFull(seed, scale)
    state = w.setup()              # build stacks, create + seed files
    result = w.run_pass(state, clock)   # timed regions only inside clock.region()

``run_pass`` consumes ``state`` (a pass starts from a fresh stack so every
pass of one seed produces the same simulated outcome) and returns a
:class:`PassResult`. Verification happens after the timed regions.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from repro import Environment, build_parallel_fs
from repro.dataset import Dataset, DatasetSchema
from repro.devices import DiskGeometry
from repro.fs import SSSession
from repro.qos import QoSConfig
from repro.resilience import ResilienceConfig
from repro.trace import NullTraceRecorder

ORGS = ("S", "PS", "IS", "SS", "GDA", "PDA")
N_PROCESSES = 4
RECORD_SIZE = 32
RECORDS_PER_BLOCK = 6
CHUNK = 48


@dataclass
class PassResult:
    """What one pass did: host seconds per side, counts, and its outcome."""

    read_wall_s: float = 0.0
    write_wall_s: float = 0.0
    requests: int = 0          # file-level requests the drivers issued
    bytes_moved: int = 0       # payload bytes those requests read or wrote
    sim_elapsed_s: float = 0.0
    events: int = 0
    digest: str = ""
    problems: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)    # per-layer counters
    extra: dict = field(default_factory=dict)    # workload-specific numbers

    @property
    def wall_s(self) -> float:
        return self.read_wall_s + self.write_wall_s


# -- helpers --------------------------------------------------------------------


def record_multiset(records) -> np.ndarray:
    """Sorted records of a ``(n, record_size)`` uint8 array (or a list of
    such arrays): equal multisets <=> every record delivered exactly once,
    intact, whatever order the organization visits them in."""
    if isinstance(records, list):
        records = np.concatenate(records) if records else np.empty((0, 1), np.uint8)
    a = np.ascontiguousarray(records, dtype=np.uint8)
    a = a.reshape(len(a), -1)
    return np.sort(a.view(np.dtype((np.void, a.shape[1]))).ravel())


def same_records(a, b) -> bool:
    x, y = record_multiset(a), record_multiset(b)
    return x.shape == y.shape and bool(np.array_equal(x, y))


def media_bytes(file) -> np.ndarray:
    return np.ascontiguousarray(
        file.volume.peek(file.entry.extent, file.layout, 0, file.attrs.file_bytes),
        dtype=np.uint8,
    )


def seed_media(pfs, file, raw: np.ndarray) -> None:
    """Fill the file's media in zero simulated time, keeping a parity
    group's check drive consistent (it holds the XOR of the data drives at
    equal offsets), so degraded reads of seeded data reconstruct it."""
    file.volume.poke(file.entry.extent, file.layout, 0, raw)
    group = pfs.resilience.group if pfs.resilience is not None else None
    if group is not None:
        ext = file.entry.extent
        top = max(b + n for b, n in zip(ext.bases, ext.sizes) if b is not None)
        check = np.zeros(top, dtype=np.uint8)
        for d in group.data_devices:
            np.bitwise_xor(check, d.peek(0, top), out=check)
        group.parity_device.poke(0, check)


def all_controllers(pfs) -> list:
    """Every device controller of a stack: data drives (a swapped-in spare is
    one of them), the check drive, and spares still idle."""
    devs = list(pfs.volume.devices)
    rv = pfs.resilience
    if rv is not None:
        if rv.group is not None:
            devs.append(rv.group.parity_device)
        if rv.rebuilder is not None:
            devs.extend(rv.rebuilder.spares)
    return devs


def outcome_digest(stacks) -> str:
    """Outcome-only hash of a pass: final clocks, per-device service
    statistics, and the media bytes of every workload file. Engine
    bookkeeping (event ids, step counts) is left out on purpose, so a
    change that drops events passes while any change to simulated
    results does not."""
    h = hashlib.sha256()
    for env, pfs, files in stacks:
        h.update(repr(float(env.now)).encode())
        for d in all_controllers(pfs):
            lat = d.latency
            h.update(
                repr(
                    (d.name, d.disk.total_requests, d.writes_applied,
                     lat.count, float(lat.total))
                ).encode()
            )
        for f in files:
            h.update(f.name.encode())
            h.update(media_bytes(f).tobytes())
    return h.hexdigest()


def _mean(xs) -> float:
    xs = list(xs)
    return sum(xs) / len(xs) if xs else 0.0


def _finite(x) -> float:
    x = float(x)
    return x if math.isfinite(x) else 0.0


def layer_stats(stacks, caches=()) -> dict:
    """Work / waiting / waste counters of one pass, read from the public
    statistics surfaces of every stack the pass ran on (exact, and on the
    simulated clock where they are times)."""
    devs, nodes, tenants, res, meta_ops = [], [], [], [], 0
    events = 0
    for env, pfs, _files in stacks:
        now = env.now
        events += env.steps
        for d in all_controllers(pfs):
            devs.append((d, now))
        if pfs.io_cluster is not None:
            nodes.extend((n, now) for n in pfs.io_cluster.nodes)
        if pfs.qos is not None:
            tenants.extend(pfs.qos.tenants.values())
        if pfs.resilience is not None:
            res.append(pfs.resilience.stats)
        if pfs.metastore is not None:
            c = pfs.metastore.to_dict()["counters"]
            meta_ops += sum(
                c[k] for k in ("creates", "deletes", "renames", "extends", "lookups")
            )
    busy = [(d, now) for d, now in devs if d.disk.total_requests]
    out = {
        "sim.events": events,
        "devices.requests": sum(d.disk.total_requests for d, _ in devs),
        "devices.seeks": sum(d.disk.total_seeks for d, _ in devs),
        "devices.util_mean": _mean(d.utilization.utilization(now) for d, now in busy),
        "devices.latency_mean_ms": 1e3 * _mean(d.latency.mean for d, _ in busy if d.latency.count),
        "devices.queue_wait_p50_ms": 1e3 * _mean(
            d.wait_stat.percentile(50) for d, _ in busy if d.wait_stat.count),
        "devices.queue_wait_p95_ms": 1e3 * _mean(
            d.wait_stat.percentile(95) for d, _ in busy if d.wait_stat.count),
        "devices.queue_len_max": max((d.queue_stat.max for d, _ in devs), default=0.0),
        "ionode.requests": sum(n.completed for n, _ in nodes),
        "ionode.coalescing_ratio": _mean(
            _finite(n.coalescing_ratio) for n, _ in nodes if n.completed),
        "ionode.sieved_batches": sum(n.sieved_batches for n, _ in nodes),
        "ionode.cache_hit_ratio": _mean(
            n.cache.hit_rate for n, _ in nodes if n.cache is not None),
        "ionode.util_mean": _mean(n.utilization.utilization(now) for n, now in nodes),
        "ionode.queue_wait_p50_ms": 1e3 * _mean(
            n.wait_stat.percentile(50) for n, _ in nodes if n.wait_stat.count),
        "ionode.queue_wait_p95_ms": 1e3 * _mean(
            n.wait_stat.percentile(95) for n, _ in nodes if n.wait_stat.count),
        "qos.blocked_mean_ms": 1e3 * _mean(t.blocked.mean for t in tenants if t.blocked.count),
        "qos.queued_mean_ms": 1e3 * _mean(t.queued.mean for t in tenants if t.queued.count),
        "qos.service_mean_ms": 1e3 * _mean(t.service.mean for t in tenants if t.service.count),
        "qos.throttled_grants": sum(
            t.bucket.throttled_grants for t in tenants if t.bucket is not None),
        "buffering.hit_ratio": (
            sum(c.hits for c in caches) / max(1, sum(c.reads for c in caches))),
        "buffering.coalesced": sum(c.coalesced for c in caches),
        "metastore.ops": meta_ops,
    }
    for name in (
        "degraded_reads", "degraded_writes", "reconstructed_bytes",
        "journaled_writes", "replayed_writes", "retry_attempts",
        "rebuild_bytes", "rebuilds_completed",
    ):
        out[f"resilience.{name}"] = sum(getattr(s, name) for s in res)
    lat = [s.degraded_read_latency for s in res if s.degraded_read_latency.count]
    out["resilience.degraded_read_latency_mean_ms"] = 1e3 * _mean(t.mean for t in lat)
    return out


class Tape:
    """What the drivers of one file did: data read, data written, request
    count. Appending a reference is all that happens inside the timed
    region; checking happens afterwards."""

    def __init__(self):
        self.read: list = []
        self.written: list = []
        self.requests = 0
        self.caches: list = []


# -- the six organization drivers ------------------------------------------------
#
# One driver per organization, each split into a read side and a write side
# so the two can run as separate timed ``env.run()`` regions. ``new`` is the
# (n_records, record_size) array of seeded payload the write side draws from.


class OrgDriver:
    def __init__(self, env, file, n_records: int, new: np.ndarray, spawn=None):
        self.env = env
        #: ``spawn(p, generator)`` starts process ``p``'s generator (the QoS
        #: workload bills it to a tenant); plain ``env.process`` otherwise
        self.spawn = spawn or (lambda p, gen: env.process(gen))
        self.file = file
        self.n_records = n_records
        self.new = new
        self.tape = Tape()
        self._handles: dict = {}
        self._write_cursor = 0      # SS: next unused payload block

    def spawn_read(self):
        return getattr(self, f"_read_{self.file.map.org.name}")()

    def spawn_write(self):
        return getattr(self, f"_write_{self.file.map.org.name}")()

    # S: one designated process scans, then rewrites, the whole file
    def _read_S(self):
        tape, file = self.tape, self.file

        def reader():
            h = file.internal_view(file.map.reader)
            while not h.eof:
                tape.requests += 1
                tape.read.append((yield from h.read_next(CHUNK)))

        return [self.spawn(file.map.reader, reader())]

    def _write_S(self):
        tape, file, new, n = self.tape, self.file, self.new, self.n_records

        def writer():
            w = file.internal_view(file.map.reader)
            pos = 0
            while pos < n:
                chunk = new[pos:pos + CHUNK]
                tape.requests += 1
                yield from w.write_next(chunk)
                tape.written.append(chunk)
                pos += len(chunk)

        return [self.spawn(file.map.reader, writer())]

    # PS / IS: every process walks its own partition
    def _read_PS(self):
        tape, file = self.tape, self.file

        def reader(p):
            h = file.internal_view(p)
            while not h.eof:
                tape.requests += 1
                tape.read.append((yield from h.read_next(CHUNK)))

        return [self.spawn(p, reader(p)) for p in range(N_PROCESSES)]

    def _write_PS(self):
        tape, file, new = self.tape, self.file, self.new
        share = self.n_records // N_PROCESSES

        def writer(p):
            w = file.internal_view(p)
            mine = new[p * share:(p + 1) * share]
            pos = 0
            while pos < w.n_local_records:
                chunk = mine[pos:pos + CHUNK]
                tape.requests += 1
                yield from w.write_next(chunk)
                tape.written.append(chunk)
                pos += len(chunk)

        return [self.spawn(p, writer(p)) for p in range(N_PROCESSES)]

    _read_IS = _read_PS
    _write_IS = _write_PS

    # SS: whoever asks gets the next block
    def _read_SS(self):
        tape, file = self.tape, self.file
        session = SSSession(file)

        def reader(p):
            h = session.handle(p)
            while not session.exhausted:
                tape.requests += 1
                got = yield from h.read_next()
                if got is None:
                    break
                tape.read.append(got[1])

        return [self.spawn(p, reader(p)) for p in range(N_PROCESSES)]

    def _write_SS(self):
        tape, file, new = self.tape, self.file, self.new
        session = SSSession(file)
        rpb = RECORDS_PER_BLOCK
        n_blocks = self.n_records // rpb

        def writer(p):
            w = session.handle(p)
            while not session.exhausted:
                k = self._write_cursor % n_blocks
                self._write_cursor += 1
                payload = new[k * rpb:(k + 1) * rpb]
                tape.requests += 1
                block = yield from w.write_next(payload)
                if block is None:
                    break
                tape.written.append(payload)

        return [self.spawn(p, writer(p)) for p in range(N_PROCESSES)]

    # GDA: process p owns every P-th extent and visits them in a scrambled
    # (fixed) order; a working-set cache turns the write side into hits and
    # one flush
    def _gda_order(self, p):
        span = RECORDS_PER_BLOCK
        k = self.n_records // (N_PROCESSES * span)
        return [(((i * 7 + 3) % k) * N_PROCESSES + p) * span for i in range(k)]

    def _read_GDA(self):
        tape, file = self.tape, self.file
        span = RECORDS_PER_BLOCK
        k = self.n_records // (N_PROCESSES * span)

        def reader(p):
            h = self._handles[p] = file.internal_view(p, cache_blocks=max(k, 1))
            tape.caches.append(h.cache)
            for r in self._gda_order(p):
                tape.requests += 1
                tape.read.append((yield from h.read_record(r, span)))

        return [self.spawn(p, reader(p)) for p in range(N_PROCESSES)]

    def _write_GDA(self):
        tape, new = self.tape, self.new
        span = RECORDS_PER_BLOCK

        def writer(p):
            h = self._handles[p]
            for r in self._gda_order(p):
                payload = new[r:r + span]
                tape.requests += 1
                yield from h.write_record(r, payload)
                tape.written.append(payload)
            tape.requests += 1
            yield from h.flush()

        return [self.spawn(p, writer(p)) for p in range(N_PROCESSES)]

    # PDA: every owned block cached (the private working set): the read side
    # misses once per block, the write side hits, the flush writes it all back
    def _pda_spans(self, p):
        bs = self.file.attrs.block_spec
        spans = []
        for b in self.file.map.blocks_of(p):
            first = bs.first_record(int(b))
            spans.append((first, min(RECORDS_PER_BLOCK, self.n_records - first)))
        return spans

    def _read_PDA(self):
        tape, file = self.tape, self.file

        def reader(p):
            spans = self._pda_spans(p)
            h = self._handles[p] = file.internal_view(p, cache_blocks=max(len(spans), 1))
            tape.caches.append(h.cache)
            for first, count in spans:
                tape.requests += 1
                tape.read.append((yield from h.read_record(first, count)))

        return [self.spawn(p, reader(p)) for p in range(N_PROCESSES)]

    def _write_PDA(self):
        tape, new = self.tape, self.new

        def writer(p):
            h = self._handles[p]
            for first, count in self._pda_spans(p):
                payload = new[first:first + count]
                tape.requests += 1
                yield from h.write_record(first, payload)
                tape.written.append(payload)
            tape.requests += 1
            yield from h.flush()

        return [self.spawn(p, writer(p)) for p in range(N_PROCESSES)]


class SixOrgWorkload:
    """Full read pass then full write pass through each organization's own
    handle type, each organization on a freshly built stack."""

    name = ""
    n_records = 0

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        unit = N_PROCESSES * RECORDS_PER_BLOCK * CHUNK     # keeps every driver aligned
        self.n = max(unit, int(self.n_records * scale) // unit * unit)
        k = self.n // (N_PROCESSES * RECORDS_PER_BLOCK)
        if math.gcd(7, k) != 1:     # the GDA scramble must stay a permutation
            self.n += unit
        rng = np.random.default_rng([seed, 0x51])
        nbytes = self.n * RECORD_SIZE
        #: what the files hold before the pass, and what the write side stores
        self.old = rng.integers(0, 256, size=(self.n, RECORD_SIZE), dtype=np.uint8)
        self.new = rng.integers(0, 256, size=(self.n, RECORD_SIZE), dtype=np.uint8)
        assert self.old.nbytes == nbytes

    # -- stack construction: subclasses say what is switched on ---------------

    def build_stack(self, env):
        raise NotImplementedError

    def before_pass(self, env, pfs):
        """Hook run (untimed) once the file exists, before the read side."""

    def spawner(self, env, pfs):
        """``spawn(p, generator)`` for the drivers (None: plain processes)."""
        return None

    def setup(self):
        stacks = []
        for org in ORGS:
            env = Environment()
            pfs = self.build_stack(env)
            f = pfs.create(
                f"ledger_{org}", org,
                n_records=self.n, record_size=RECORD_SIZE,
                records_per_block=RECORDS_PER_BLOCK, n_processes=N_PROCESSES,
            )
            seed_media(pfs, f, self.old.reshape(-1))
            stacks.append((env, pfs, [f]))
        return stacks

    def run_pass(self, stacks, clock) -> PassResult:
        res = PassResult()
        drivers = []
        for env, pfs, (f,) in stacks:
            self.before_pass(env, pfs)
            drv = OrgDriver(env, f, self.n, self.new, self.spawner(env, pfs))
            drivers.append(drv)
            try:
                procs = drv.spawn_read()
                with clock.region("read"):
                    env.run(env.all_of(procs))
                procs = drv.spawn_write()
                with clock.region("write"):
                    env.run(env.all_of(procs))
                    env.run()       # background work (rebuild, write-behind) settles
            except Exception as exc:  # noqa: BLE001 - a failed pass is a result
                res.problems.append(f"{f.name}: {type(exc).__name__}: {exc}")
        res.read_wall_s = clock.total("read")
        res.write_wall_s = clock.total("write")
        res.requests = sum(d.tape.requests for d in drivers)
        res.bytes_moved = sum(
            a.nbytes for d in drivers for a in (*d.tape.read, *d.tape.written))
        for drv in drivers:
            tape, f = drv.tape, drv.file
            if not same_records(tape.read, self.old):
                res.problems.append(f"{f.name}: read side did not deliver the seeded records")
            if not same_records(tape.written, self.new):
                res.problems.append(f"{f.name}: write side did not cover the file once")
            if not same_records(media_bytes(f).reshape(-1, RECORD_SIZE), self.new):
                res.problems.append(f"{f.name}: media does not hold the written records")
        res.stats = layer_stats(
            stacks, caches=[c for d in drivers for c in d.tape.caches]
        )
        res.sim_elapsed_s = sum(float(env.now) for env, _, _ in stacks)
        res.events = res.stats["sim.events"]
        res.digest = outcome_digest(stacks)
        return res


class SimFull(SixOrgWorkload):
    name = "sim_full"
    n_records = 15360

    def build_stack(self, env):
        pfs = build_parallel_fs(
            env, 4, recorder=NullTraceRecorder(), io_nodes=2,
            resilience=ResilienceConfig(protection="parity", spares=1),
            qos=QoSConfig(), batch_io=True,
        )
        pfs.attach_metastore(shards=4)
        # two tenants so QoS schedules and throttles: processes 0-1 are an
        # unthrottled heavy-weight tenant, processes 2-3 a light one behind a
        # token bucket it overruns in bursts
        pfs.qos.tenant("gold", weight=4.0)
        pfs.qos.tenant("bronze", weight=1.0, rate=self.bronze_rate, burst=self.bronze_burst)
        return pfs

    bronze_rate = 192 * 1024      # bytes / simulated second
    bronze_burst = 16 * 1024      # bytes

    def spawner(self, env, pfs):
        qos = pfs.qos
        return lambda p, gen: qos.spawn("gold" if p < 2 else "bronze", gen)


class SimBare(SixOrgWorkload):
    name = "sim_bare"
    n_records = 30720

    def build_stack(self, env):
        return build_parallel_fs(env, 4, recorder=NullTraceRecorder())


class SimDegraded(SixOrgWorkload):
    name = "sim_degraded"
    n_records = 15360
    #: small drives, so a whole-device rebuild is comparable to the foreground pass
    geometry = DiskGeometry(block_size=4096, blocks_per_cylinder=16, cylinders=64)

    def build_stack(self, env):
        return build_parallel_fs(
            env, 4, geometry=self.geometry, recorder=NullTraceRecorder(),
            resilience=ResilienceConfig(protection="parity", spares=1),
            batch_io=True,
        )

    def before_pass(self, env, pfs):
        rv = pfs.resilience
        pfs.volume.devices[1].fail()
        rv.failed_at[1] = env.now
        rv.rebuilder.start(1)


# -- sim_clients -------------------------------------------------------------------


class SimClients:
    """Many light think/read and think/write clients: timer-dominated, with a
    pending-event population that grows with the client count. The same
    driver at ``small`` clients, repeated, is the small-N reference the
    per-request scale cost is taken against."""

    name = "sim_clients"
    n_clients = 5120
    small_factor = 16           # reference population = n_clients / 16 ...
    small_repeats = 8           # ... run this many times
    n_systems = 4               # PS file systems sharing the Environment
    n_devices = 2               # per file system
    rounds = 2

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        per = self.n_systems * self.small_factor
        self.big = max(per, int(self.n_clients * scale) // per * per)
        self.small = self.big // self.small_factor
        self.rng_key = [seed, 0xC1]

    def _build(self, n_clients: int, salt: int):
        rng = np.random.default_rng(self.rng_key + [n_clients, salt])
        env = Environment()
        per = n_clients // self.n_systems
        systems = []
        for i in range(self.n_systems):
            pfs = build_parallel_fs(env, self.n_devices, recorder=NullTraceRecorder())
            f = pfs.create(
                f"clients_{i}", "PS", n_records=per, record_size=RECORD_SIZE,
                records_per_block=1, n_processes=per,
            )
            old = rng.integers(0, 256, size=(per, RECORD_SIZE), dtype=np.uint8)
            new = rng.integers(0, 256, size=(self.rounds, per, RECORD_SIZE), dtype=np.uint8)
            seed_media(pfs, f, old.reshape(-1))
            systems.append((pfs, f, old, new))
        # think times in [1 ms, 51 ms), whole microseconds: (side, round, client)
        # (plain floats: numpy scalars would leak into the engine's clock arithmetic)
        think = (1e-3 + rng.integers(0, 50_000, size=(2, self.rounds, n_clients)) * 1e-6).tolist()
        return env, systems, think

    def setup(self):
        return {
            "big": self._build(self.big, 0),
            "small": [self._build(self.small, 1 + k) for k in range(self.small_repeats)],
        }

    def _run(self, built, clock, suffix: str, res: PassResult):
        env, systems, think = built
        rounds = self.rounds
        reads = [[None] * (rounds * len(old)) for _, _, old, _ in systems]
        requests = 0

        def reader(f, p, cid, sink):
            for r in range(rounds):
                yield env.sleep(think[0][r][cid])
                h = f.internal_view(p)
                sink[r * len(sink) // rounds + p] = yield from h.read_next(1)

        def writer(f, p, cid, new):
            for r in range(rounds):
                yield env.sleep(think[1][r][cid])
                w = f.internal_view(p)
                yield from w.write_next(new[r, p:p + 1])

        try:
            cid = 0
            for (pfs, f, old, new), sink in zip(systems, reads):
                for p in range(len(old)):
                    env.process(reader(f, p, cid, sink))
                    cid += 1
                requests += rounds * len(old)
            with clock.region("read" + suffix):
                env.run()
            cid = 0
            for pfs, f, old, new in systems:
                for p in range(len(old)):
                    env.process(writer(f, p, cid, new))
                    cid += 1
                requests += rounds * len(old)
            with clock.region("write" + suffix):
                env.run()
        except Exception as exc:  # noqa: BLE001 - a failed pass is a result
            res.problems.append(f"{type(exc).__name__}: {exc}")
        for (pfs, f, old, new), sink in zip(systems, reads):
            want = np.concatenate([old] * rounds)
            got = [x for x in sink if x is not None]
            if len(got) != len(sink) or not bool(np.array_equal(np.concatenate(got), want)):
                res.problems.append(f"{f.name}: a client read something other than its record")
            if not bool(np.array_equal(media_bytes(f).reshape(-1, RECORD_SIZE), new[-1])):
                res.problems.append(f"{f.name}: media does not hold the last round's writes")
        return requests

    def run_pass(self, state, clock) -> PassResult:
        res = PassResult()
        big_requests = self._run(state["big"], clock, "", res)
        small_requests = sum(
            self._run(built, clock, ".small", res) for built in state["small"]
        )
        res.read_wall_s = clock.total("read")
        res.write_wall_s = clock.total("write")
        res.requests = big_requests
        res.bytes_moved = big_requests * RECORD_SIZE
        small_wall = clock.total("read.small") + clock.total("write.small")
        res.extra = {
            "small_wall_s": small_wall,
            "small_requests": small_requests,
            "scale_cost_ratio": (res.wall_s / big_requests) / (small_wall / small_requests),
        }
        env, systems, _ = state["big"]
        stacks = [(env, pfs, [f]) for pfs, f, _, _ in systems]
        res.stats = layer_stats(stacks)
        # one shared Environment: count its clock and steps once
        res.sim_elapsed_s = float(env.now)
        res.stats["sim.events"] = res.events = env.steps
        small_stacks = [
            (e, pfs, [f]) for e, systems_k, _ in state["small"] for pfs, f, _, _ in systems_k
        ]
        res.digest = outcome_digest(stacks + small_stacks)
        return res


# -- sim_noncontig -----------------------------------------------------------------


def drive(env, generator):
    """Run one generator as a process to completion; its return value."""
    return env.run(env.process(generator))


class SimNoncontig:
    """Hyperslab I/O on a simulated dataset: the planner-heavy path
    (dataset -> container -> datatype -> collective -> fs gather)."""

    name = "sim_noncontig"
    side = 512                  # grid is side x side float64
    tiles = 16                  # tiles per dimension
    n_devices = 4

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        # area scales with ``scale``; tiles stay 16 x 16
        unit = self.tiles * N_PROCESSES
        self.n = max(unit, int(self.side * math.sqrt(scale)) // unit * unit)
        rng = np.random.default_rng([seed, 0xD5])
        #: the grid before the pass, after the tile writes, after the collective write
        self.grids = [rng.normal(size=(self.n, self.n)).astype("<f8") for _ in range(3)]
        self.schema = DatasetSchema.build(
            {"row": self.n, "col": self.n},
            {"grid": ("<f8", ("row", "col"), {"units": "arb"})},
            {"bench": "ledger"},
        )

    def setup(self):
        env = Environment()
        pfs = build_parallel_fs(
            env, self.n_devices, recorder=NullTraceRecorder(), batch_io=True
        )
        # mode="view": the collective create path spends over a second in one
        # np.unique, which would make set-up cost (and its noise) dwarf the pass;
        # the pass itself still writes collectively
        ds = drive(env, Dataset.create(
            pfs, "noncontig", self.schema, org="IS", writers=N_PROCESSES,
            data={"grid": self.grids[0]}, user_string="ledger", mode="view",
        ))
        return env, pfs, ds

    def run_pass(self, state, clock) -> PassResult:
        env, pfs, ds = state
        res = PassResult()
        began = env.now             # set-up (Dataset.create) already advanced the clock
        n, t = self.n, self.n // self.tiles
        old, mid, new = self.grids
        tiles = [(i, j) for i in range(self.tiles) for j in range(self.tiles)]
        mine = [tiles[q::N_PROCESSES] for q in range(N_PROCESSES)]
        got_tiles: dict = {}
        band = n // self.tiles              # rows per collective call
        share = band // N_PROCESSES         # rows per process within a band
        got_bands: list = []

        def tile_reader(q):
            for k, (i, j) in enumerate(mine[q]):
                got_tiles[i, j] = yield from ds.read_slab(
                    "grid", (i * t, j * t), (t, t), sieve=bool(k & 1))

        def tile_writer(q):
            for k, (i, j) in enumerate(mine[q]):
                yield from ds.write_slab(
                    "grid", (i * t, j * t), (t, t),
                    mid[i * t:(i + 1) * t, j * t:(j + 1) * t], sieve=bool(k & 1))

        def band_slabs(b):
            return [((b * band + q * share, 0), (share, n)) for q in range(N_PROCESSES)]

        def band_reader():
            for b in range(self.tiles):
                got_bands.append((yield from ds.read_slab_all("grid", band_slabs(b))))

        def band_writer():
            for b in range(self.tiles):
                slabs = band_slabs(b)
                yield from ds.write_slab_all(
                    "grid", slabs, [new[s[0]:s[0] + c[0]] for s, c in slabs])

        try:
            procs = [env.process(tile_reader(q)) for q in range(N_PROCESSES)]
            with clock.region("read"):
                env.run(env.all_of(procs))
            procs = [env.process(tile_writer(q)) for q in range(N_PROCESSES)]
            with clock.region("write"):
                env.run(env.all_of(procs))
            proc = env.process(band_reader())
            with clock.region("read"):
                env.run(proc)
            proc = env.process(band_writer())
            with clock.region("write"):
                env.run(proc)
            res.sim_elapsed_s = env.now - began
            final = drive(env, ds.read_variable("grid"))
        except Exception as exc:  # noqa: BLE001 - a failed pass is a result
            res.problems.append(f"{type(exc).__name__}: {exc}")
            final = None
        res.read_wall_s = clock.total("read")
        res.write_wall_s = clock.total("write")
        res.requests = 2 * len(tiles) + 2 * self.tiles
        res.bytes_moved = 4 * old.nbytes
        for (i, j), a in got_tiles.items():
            if not np.array_equal(a, old[i * t:(i + 1) * t, j * t:(j + 1) * t]):
                res.problems.append(f"tile ({i},{j}) read back wrong")
                break
        if len(got_tiles) != len(tiles):
            res.problems.append("not every tile was read")
        for b, parts in enumerate(got_bands):
            for q, (s, c) in enumerate(band_slabs(b)):
                if not np.array_equal(parts[q], mid[s[0]:s[0] + c[0]]):
                    res.problems.append(f"collective band {b} process {q} read back wrong")
                    break
        if len(got_bands) != self.tiles:
            res.problems.append("not every band was read collectively")
        if final is None or not np.array_equal(final, new):
            res.problems.append("dataset does not hold the collectively written grid")
        stacks = [(env, pfs, [ds.file])]
        res.stats = layer_stats(stacks)
        res.events = res.stats["sim.events"]
        res.digest = outcome_digest(stacks)
        return res


WORKLOADS = {w.name: w for w in (SimFull, SimBare, SimClients, SimDegraded, SimNoncontig)}
