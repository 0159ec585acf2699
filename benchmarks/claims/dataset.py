"""X5 (extension) — typed dataset API on both backends.

Two result blocks:

1. **hyperslab ladder** — one strided hyperslab of a 2-D variable read
   four ways on the simulated backend: per-element requests, list I/O
   (one request per run), data sieving (covering reads + scatter), and
   two-phase collective (4 processes splitting the slab). Per-element
   access must be at least 2x slower than every compiled path; the
   relative order of the compiled paths is reported, not asserted (the
   fs batches list requests, so sieving pays off only on patterns
   batching cannot merge).
2. **backend identity matrix** — for every file organization, the same
   dataset (create + plain slab writes + collective ``write_slab_all``
   on the sim side, plain writes on the live side) must produce
   *identical container bytes* on modelled devices and on a host file
   (``content_fingerprint``: attrs section masked, everything else
   byte-exact).

The live server (``DatasetServer``) is exercised by
``tests/live/test_server.py`` and timed by the cost ledger, not here: its
figures are wall-clock.

Quick mode shrinks the variable.
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import Environment, build_parallel_fs
from repro.core import FileOrganization
from repro.dataset import (
    Dataset,
    DatasetSchema,
    LiveDataset,
    content_fingerprint,
)
from repro.devices import FAST_1989, DiskGeometry
from repro.datatype import slab_indices
from repro.live import LiveParallelFileSystem

from .common import run

GEO = DiskGeometry(block_size=4096, blocks_per_cylinder=16, cylinders=512)
N_DEVICES = 4


def params(quick: bool):
    """(rows, cols) of the variable."""
    return (16, 16) if quick else (64, 64)


def grid_schema(rows: int, cols: int) -> DatasetSchema:
    return DatasetSchema.build(
        {"row": rows, "col": cols},
        {"grid": ("<f8", ("row", "col"), {"units": "arb"})},
        {"experiment": "X5"},
    )


def grid_data(rows: int, cols: int) -> np.ndarray:
    rng = np.random.default_rng(1989)
    return rng.normal(size=(rows, cols)).astype("<f8")


def sim_dataset(rows: int, cols: int, org="IS"):
    """A fresh simulated stack holding the grid dataset; (env, dataset)."""
    env = Environment()
    pfs = build_parallel_fs(env, N_DEVICES, timing=FAST_1989, geometry=GEO)
    ds = run(env, Dataset.create(
        pfs, "x5", grid_schema(rows, cols), org=org, writers=4,
        data={"grid": grid_data(rows, cols)}, user_string="bench X5",
    ))
    return env, ds


# -- block 1: hyperslab ladder ----------------------------------------------


def ladder(rows: int, cols: int):
    """The same half-width slab (all rows, left half of the columns) read
    per-element, as list I/O, sieved, and collectively."""
    start, count = (0, 0), (rows, cols // 2)
    half = grid_data(rows, cols)[:, : cols // 2]
    out = {}

    # per-element: one positioned request per element
    env, ds = sim_dataset(rows, cols)
    ext = ds._var_extent("grid")
    itemsize = ds.schema.variable("grid").itemsize
    elems = slab_indices((rows, cols), start, count)

    def per_element():
        chunks = []
        for e in elems:
            raw = yield ds.file.read_records(
                ext.payload_off + int(e) * itemsize, itemsize
            )
            chunks.append(np.asarray(raw, dtype=np.uint8).reshape(-1))
        return np.concatenate(chunks)

    t0 = env.now
    raw = run(env, per_element())
    got = np.frombuffer(raw.tobytes(), "<f8").reshape(count)
    out["per_element_ok"] = np.array_equal(got, half)
    out["per_element_sim_s"] = env.now - t0

    # list I/O (one request per run) and sieving (covering reads, scatter
    # in memory)
    for name, sieve in (("list_io", False), ("sieved", True)):
        env, ds = sim_dataset(rows, cols)
        t0 = env.now
        got = run(env, ds.read_slab("grid", start, count, sieve=sieve))
        out[f"{name}_ok"] = np.array_equal(got, half)
        out[f"{name}_sim_s"] = env.now - t0

    # collective: 4 processes split the slab by rows
    env, ds = sim_dataset(rows, cols)
    share = rows // 4
    slabs = [((q * share, 0), (share, cols // 2)) for q in range(4)]
    t0 = env.now
    parts = run(env, ds.read_slab_all("grid", slabs))
    out["collective_ok"] = all(
        np.array_equal(parts[q], half[q * share:(q + 1) * share]) for q in range(4)
    )
    out["collective_sim_s"] = env.now - t0
    return out


# -- block 2: backend identity matrix ---------------------------------------


def identity_matrix(rows: int, cols: int, tmp: Path):
    """Per organization: (sim fingerprint, live fingerprint) of the same
    create + sieved slab patch + collective rewrite + sync."""
    schema = grid_schema(rows, cols)
    data = grid_data(rows, cols)
    patch = np.arange(cols, dtype="<f8").reshape(1, cols)
    share = rows // 4
    slabs = [((q * share, 0), (share, cols)) for q in range(4)]
    vals = [np.full((share, cols), float(q), dtype="<f8") for q in range(4)]
    out = {}
    for org in (o.value for o in FileOrganization):
        env, ds = sim_dataset(rows, cols, org)
        run(env, ds.write_slab("grid", (1, 0), (1, cols), patch, sieve=True))
        run(env, ds.write_slab_all("grid", slabs, vals))
        run(env, ds.sync())
        raw = ds.file.volume.peek(
            ds.file.entry.extent, ds.file.layout, 0, ds.file.attrs.file_bytes
        )
        sim_fp = content_fingerprint(
            np.ascontiguousarray(raw, dtype=np.uint8).tobytes()
        )

        lfs = LiveParallelFileSystem(tmp / f"id_{org}")
        with LiveDataset.create(
            lfs, "x5", schema, org=org, n_processes=4,
            data={"grid": data}, user_string="bench X5",
        ) as lds:
            lds.write_slab("grid", (1, 0), (1, cols), patch, sieve=True)
            for (s, c), v in zip(slabs, vals):
                lds.write_slab("grid", s, c, v)
            lds.sync()
            live_fp = content_fingerprint(lds.file.path.read_bytes())
        out[org] = (sim_fp, live_fp)
    return out


def x5_dataset(quick: bool) -> dict:
    """Rows: the hyperslab ladder's simulated ms per access path, then per
    organization the sim and live content fingerprints (prefix) and
    whether they agree."""
    rows_n, cols = params(quick)
    lad = ladder(rows_n, cols)
    with tempfile.TemporaryDirectory(prefix="claims_x5_") as td:
        ident = identity_matrix(rows_n, cols, Path(td))
    paths = ("per_element", "list_io", "sieved", "collective")
    rows = [{"path": k, "elapsed_ms": lad[f"{k}_sim_s"] * 1e3} for k in paths]
    rows += [
        {"org": org, "sim_fingerprint": sim[:16], "live_fingerprint": live[:16],
         "identical": sim == live}
        for org, (sim, live) in ident.items()
    ]
    checks = {f"{k}_reads_the_slab": lad[f"{k}_ok"] for k in paths}
    # The load-bearing claim is that every compiled path crushes
    # per-element access. The relative order of list vs sieve vs
    # collective depends on the access pattern (the fs already batches
    # list requests, so sieving's extra covering bytes only pay off on
    # patterns batching can't merge) — report it, don't check it.
    checks["per_element_2x_slower_than_every_compiled_path"] = lad[
        "per_element_sim_s"
    ] > 2 * max(lad[f"{k}_sim_s"] for k in paths[1:])
    checks["sim_live_bytes_identical_every_org"] = all(
        sim == live for sim, live in ident.values()
    )
    return {"rows": rows, "checks": checks}
