"""E10 — §5, problem area 1: a file created with a PS organization must be
read later with an IS internal view. The three remedies, measured:

1. degraded alternate-view software interface (extra transfers);
2. global-view fallback (the consumer reads everything sequentially);
3. a conversion utility copy (one-time full read + write).

Expected shape: the matched (native) view is fastest per pass; the
alternate view degrades (one transfer per owned block instead of one per
partition); conversion pays ~ a full copy once, after which passes run at
native speed — so it wins when the file is consumed often enough.
"""

from repro import Environment, alternate_view, build_parallel_fs, convert_file
from repro.devices import DiskGeometry

from .common import fill, run, run_all

RECORD = 4096
RPB = 4
N_RECORDS = 256 * RPB
P = 4
GEO = DiskGeometry(block_size=4096, blocks_per_cylinder=16, cylinders=512)


def ps_file():
    """A fresh stack holding the zero-filled PS file; (env, pfs, file)."""
    env = Environment()
    pfs = build_parallel_fs(env, P, geometry=GEO)
    f = pfs.create(
        "src", "PS", n_records=N_RECORDS, record_size=RECORD,
        records_per_block=RPB, n_processes=P, layout="clustered",
    )
    fill(env, f)
    return env, pfs, f


def time_parallel_pass(env, handles):
    start = env.now
    run_all(env, [h.read_next(h.n_local_records) for h in handles])
    return env.now - start


def run_experiment():
    out = {}

    # native PS pass (the matched view, for reference)
    env, _, f = ps_file()
    out["native PS pass"] = time_parallel_pass(
        env, [f.internal_view(q) for q in range(P)]
    )

    # remedy 1: IS consumers through the degraded alternate-view interface
    env, _, f = ps_file()
    out["alternate IS view pass"] = time_parallel_pass(
        env, [alternate_view(f, "IS", q) for q in range(P)]
    )

    # remedy 2: global-view fallback (sequential consumer)
    env, _, f = ps_file()
    start = env.now

    def global_read():
        v = f.global_view()
        while not v.eof:
            yield from v.read(64)

    run(env, global_read())
    out["global-view fallback pass"] = env.now - start

    # remedy 3: convert once, then native IS passes
    env, pfs, f = ps_file()
    start = env.now
    dst = run(env, convert_file(pfs, f, "dst", "IS"))
    out["conversion (one-time)"] = env.now - start
    out["native IS pass (after conversion)"] = time_parallel_pass(
        env, [dst.internal_view(q) for q in range(P)]
    )
    return out


def e10_view_mismatch(quick: bool) -> dict:
    """One row per remedy pass (simulated ms), then the number of IS
    passes after which the conversion copy breaks even."""
    out = run_experiment()
    native = out["native PS pass"]
    alt = out["alternate IS view pass"]
    conv = out["conversion (one-time)"]
    native_is = out["native IS pass (after conversion)"]
    # break-even: conversion amortizes after k passes
    k = conv / (alt - native_is)
    rows = [{"pass": name, "elapsed_ms": t * 1e3} for name, t in out.items()]
    rows.append({"conversion_break_even_passes": k})
    return {"rows": rows, "checks": {
        # the degraded interface is correct but slower than the matched view
        "alternate_view_degrades": alt > native * 1.5,
        # conversion costs about a full copy: well above one matched pass
        # (but, being a sequential stream, it can even undercut one seek-bound
        # alternate-view pass — which is why §5 says "each of these solutions
        # could be useful, depending on the situation")
        "conversion_costs_a_copy": conv > native * 1.8,
        # after conversion, passes run at matched-view speed
        "converted_passes_beat_alternate": native_is < alt,
        "break_even_within_30_passes": 0 < k < 30,
    }}
