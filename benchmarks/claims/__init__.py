"""The paper's experiments as one claims ledger, pinned in simulated time.

Each experiment is one function ``key(quick) -> {"rows": [...], "checks":
{name: bool}}`` whose docstring quotes the paper and states the expected
shape. Rows hold simulated quantities only (times in simulated ms, counts,
ratios, media digests), so a run repeats exactly; checks are the shape
claims ("speedup monotone", "sharded beats FIFO") as named booleans. The
function name is the experiment's key in ``CLAIMS.json``, which holds one
``full`` and one ``quick`` section::

    PYTHONPATH=src python -m benchmarks.claims [--quick]

rewrites that run's section and exits nonzero if any check is false, so
``git diff benchmarks/claims/CLAIMS.json`` shows which claims moved.
``quick`` shrinks the few experiments that have a large configuration;
the rest run at full size either way.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import (
    boundary,
    buffering,
    collective_hierarchy,
    container,
    dataset,
    declustering,
    fig1,
    file_per_process,
    global_view,
    io_nodes,
    metadata,
    pda_cache,
    protection,
    ps_is_parallel,
    qos,
    reliability,
    resilience,
    seek_degradation,
    self_scheduling,
    ss_blocking,
    stripe_unit,
    striping,
    transpose,
    view_mismatch,
)

CLAIMS_PATH = Path(__file__).with_name("CLAIMS.json")

EXPERIMENTS = {
    f.__name__: f
    for f in (
        fig1.fig1,
        striping.e1_striping,
        ps_is_parallel.e2_ps_is_parallel,
        ps_is_parallel.e2_independent_rates,
        seek_degradation.e3_seek_degradation,
        seek_degradation.e3_arm_scheduling,
        declustering.e4_declustering,
        buffering.e5_buffering,
        global_view.e6_global_view,
        self_scheduling.e7_self_scheduling,
        reliability.e8_reliability,
        protection.e9_protection,
        protection.e9_recovery_times,
        view_mismatch.e10_view_mismatch,
        boundary.e11_boundary,
        file_per_process.e12_file_per_process,
        stripe_unit.a1_stripe_unit,
        ss_blocking.a2_ss_blocking,
        pda_cache.a3_pda_cache,
        transpose.a4_transpose,
        collective_hierarchy.x2_collective_hierarchy,
        container.x3_container_format,
        metadata.x4_metadata_storm,
        dataset.x5_dataset,
        io_nodes.x6_io_nodes,
        io_nodes.x6_node_sweep,
        resilience.x7_degraded_reads,
        resilience.x7_rebuild_throttle,
        qos.x8_qos_isolation,
    )
}


def _plain(x):
    """JSON-ready copy: numpy scalars unwrapped, floats cut to 9
    significant digits so last-bit float noise cannot move a pin."""
    if isinstance(x, np.generic):
        x = x.item()
    if isinstance(x, float):
        return float(f"{x:.9g}")
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    return x


def collect(quick: bool) -> dict:
    """Run every experiment; ``{key: {"rows": [...], "checks": {...}}}``."""
    return {key: _plain(run(quick)) for key, run in EXPERIMENTS.items()}


def dump(doc: dict) -> str:
    """``CLAIMS.json`` text, one row or check per line so a re-pin's
    ``git diff`` names exactly the rows that moved."""

    def entry(key, result):
        rows = ",\n".join(f"    {json.dumps(r)}" for r in result["rows"])
        checks = ",\n".join(
            f"    {json.dumps(name)}: {json.dumps(ok)}"
            for name, ok in result["checks"].items()
        )
        return (
            f'  {json.dumps(key)}: {{\n   "rows": [\n{rows}\n   ],\n'
            f'   "checks": {{\n{checks}\n   }}\n  }}'
        )

    sections = ",\n".join(
        f" {json.dumps(name)}: {{\n"
        + ",\n".join(entry(k, r) for k, r in claims.items())
        + "\n }"
        for name, claims in doc.items()
    )
    return "{\n" + sections + "\n}\n"
