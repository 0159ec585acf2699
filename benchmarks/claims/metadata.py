"""X4 (extension) — open/create-storm scaling of the sharded metastore.

§3's Finite Element Machine experience is a *metadata* bottleneck story:
thousands of per-process files that "all had to be created, modified,
and deleted individually" through one directory service. This experiment
measures the cure: the same open/create storm driven through a
single-catalog FIFO metadata server (1 shard — every request serialized
through one queue) versus the hash-sharded service at 4 and 8 shards.

For each client count N in the grid, N simulated clients each create,
open (lookup), and delete a private batch of files through
:class:`repro.metastore.MetaServer`. The metric is simulated seconds to
drain the storm and the derived ops/sec; the expected curve is FIFO time
growing linearly with N while sharded time flattens toward the
per-shard serialization floor. The checks: the sharded service beats
the FIFO baseline at the highest client count, and every storm leaves
the namespace invariants clean and deletes every file it created.

Quick mode shrinks the client grid and the per-client batch.
"""

from repro import Environment
from repro.metastore import MetadataService, MetaServer
from repro.metastore.harness import make_entry

OP_TIME = 5e-5           # simulated seconds per metadata op at a shard
SHARD_COUNTS = (1, 4, 8)


def params(quick: bool):
    """(client counts, files per client)."""
    return ((2, 8), 4) if quick else ((2, 4, 8, 16, 32), 8)


def run_storm(n_shards: int, n_clients: int, files_per_client: int):
    """One create/open/delete storm; returns (sim_seconds, total_ops,
    invariant findings, files left)."""
    env = Environment()
    service = MetadataService(n_shards=n_shards)
    server = MetaServer(env, service, op_time=OP_TIME)

    def client(cid: int):
        names = [f"c{cid}.f{i}" for i in range(files_per_client)]
        for name in names:
            yield server.submit("create", name, make_entry(name))
        for name in names:
            yield server.submit("lookup", name)
        for name in names:
            yield server.submit("delete", name)

    def driver():
        yield env.all_of(
            [env.process(client(c), name=f"client{c}")
             for c in range(n_clients)]
        )

    env.run(env.process(driver(), name="storm"))
    return env.now, server.total_served, len(service.check_invariants()), len(service)


def x4_metadata_storm(quick: bool) -> dict:
    """One row per (shards, clients): simulated ms to drain the storm,
    ops served and ops per simulated second; then the speedup of the best
    sharded service over FIFO at the top client count."""
    clients, fpc = params(quick)
    runs = {(sh, n): run_storm(sh, n, fpc) for sh in SHARD_COUNTS for n in clients}
    rows = [
        {"shards": sh, "clients": n, "ops_per_client": 3 * fpc,  # create + lookup + delete
         "elapsed_ms": t * 1e3, "ops": ops, "ops_per_s": ops / t if t else 0.0}
        for (sh, n), (t, ops, _, _) in runs.items()
    ]
    top = max(clients)
    fifo_top = runs[(1, top)][0]
    best_sharded_top = min(runs[(sh, top)][0] for sh in SHARD_COUNTS if sh > 1)
    rows.append({"clients": top, "fifo_ms": fifo_top * 1e3,
                 "best_sharded_ms": best_sharded_top * 1e3,
                 "speedup": fifo_top / best_sharded_top})
    return {"rows": rows, "checks": {
        "every_storm_leaves_invariants_clean": all(r[2] == 0 for r in runs.values()),
        "every_storm_file_deleted": all(r[3] == 0 for r in runs.values()),
        "sharded_beats_fifo_at_top": best_sharded_top < fifo_top,
    }}
