"""Shared deterministic workloads and the bench-record writer.

:mod:`~repro.perf.workloads` holds the six-organization workloads and the
outcome :func:`digest` that the determinism goldens pin
(``tests/perf/test_determinism.py``); :func:`write_bench_json` writes the
``benchmarks/results/BENCH_*.json`` records. Wall-clock measurement lives
in ``benchmarks/ledger/`` (see its README), not here.
"""

from .report import write_bench_json
from .workloads import ORGS, WorkloadConfig, digest, run_org

__all__ = ["write_bench_json", "ORGS", "WorkloadConfig", "digest", "run_org"]
