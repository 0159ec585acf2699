"""Ablation A4 — out-of-core transpose: the buffer-space knob end to end.

The §4 remark that performance hinges on "the buffer space available"
applied to the classic out-of-core kernel: transposing a matrix too big
to hold in memory. The tiled algorithm's buffer (tile x n elements) is
swept; the naive column-gather algorithm is the degenerate 1-row buffer.

Expected shape: elapsed time drops roughly with 1/tile (transfer count
is O((n/tile)^2) tiles, each costing ~2 reads + 1 write), saturating when
per-transfer overhead stops dominating.
"""

import numpy as np

from repro import Environment, build_parallel_fs
from repro.devices import DiskGeometry
from repro.workloads import create_matrix_file, transpose_naive, transpose_tiled

from .common import fill, run

N = 32
GEO = DiskGeometry(block_size=4096, blocks_per_cylinder=16, cylinders=256)


def transpose_time(algo):
    env = Environment()
    pfs = build_parallel_fs(env, 4, geometry=GEO)
    src = create_matrix_file(pfs, "A", N)
    dst = create_matrix_file(pfs, "At", N)
    A = np.random.default_rng(0).random((N, N))

    fill(env, src, A)
    start = env.now
    run(env, algo(src, dst))

    # verify while we are here (the read-back is part of the timed run)
    def check():
        v = dst.global_view()
        v.seek(0)
        out = yield from v.read()
        return out.reshape(N, N)

    ok = bool(np.array_equal(run(env, check()), A.T))
    return env.now - start, ok


def a4_transpose(quick: bool) -> dict:
    """One row per algorithm / tile size: simulated ms, every result
    checked against the in-memory transpose."""
    out = {"naive (1-row buffer)": transpose_time(transpose_naive)}
    for tile in (2, 4, 8, 16, 32):
        out[f"tiled tile={tile}"] = transpose_time(
            lambda s, d, t=tile: transpose_tiled(s, d, t)
        )
    rows = [{"algorithm": k, "elapsed_ms": t * 1e3} for k, (t, _) in out.items()]
    t = {k: v for k, (v, _) in out.items()}
    naive = t["naive (1-row buffer)"]
    seq = [t[f"tiled tile={n}"] for n in (2, 4, 8, 16, 32)]
    return {"rows": rows, "checks": {
        # correctness is part of the ablation
        "every_transpose_correct": all(ok for _, ok in out.values()),
        # tiling wins dramatically over the naive column gather
        "tiling_beats_naive": t["tiled tile=4"] < naive * 0.3,
        # monotone improvement with buffer size (small tolerance)
        "monotone_in_tile": all(a >= b * 0.98 for a, b in zip(seq, seq[1:])),
        # with the whole matrix buffered, I/O collapses to a few big sweeps
        "full_buffer_10x": naive / t["tiled tile=32"] > 10,
    }}
