"""Shared deterministic workloads.

:mod:`~repro.perf.workloads` holds the six-organization workloads and the
outcome :func:`digest` that the determinism goldens pin
(``tests/perf/test_determinism.py``). Wall-clock measurement lives in
``benchmarks/ledger/`` (see its README), not here; the paper's claims in
simulated time live in ``benchmarks/claims/``.
"""

from .workloads import ORGS, WorkloadConfig, digest, run_org

__all__ = ["ORGS", "WorkloadConfig", "digest", "run_org"]
