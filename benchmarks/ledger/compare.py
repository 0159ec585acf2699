#!/usr/bin/env python3
"""Compare two ledger result files (base A, candidate B).

    python3 benchmarks/ledger/compare.py A.json B.json [--layers]

One row per workload x bounded metric: both medians, the ratio B/A with
its base, the bound, and a verdict:

``better`` / ``worse``
    B's median moved past A's by more than the bound, in that direction;
``within``
    it did not;
``unresolved``
    the run-to-run spread inside A or B (distance between the quartiles of
    the metric's own samples, over their median) is wider than the bound,
    so the files cannot tell: report it as unresolved, not as unchanged.

Simulated seconds and the outcome digest have bound 0: any difference is a
model change, not an optimisation, and reads ``worse``. Exits non-zero on
any ``worse``, any changed digest, or any rise in ``failed_frac``.
``--layers`` adds the per-layer deltas (never gated).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spec  # noqa: E402


def own_spread(metric: dict) -> float:
    """Interquartile distance of a metric's samples over their median."""
    samples = metric.get("samples", [])
    if len(samples) < 2:
        return 0.0
    q = statistics.quantiles(samples, n=4)
    mid = statistics.median(samples)
    return (q[2] - q[0]) / mid if mid else 0.0


def verdict(name: str, a: dict, b: dict) -> str:
    va, vb = a["value"], b["value"]
    bound = spec.BOUNDS[name]
    if bound == 0:          # repeats exactly: any difference is a change of model
        return "within" if va == vb else "worse"
    # the share of A's median by which B is worse (negative when better)
    worse = (vb - va) / va if spec.BETTER[name] == "lower" else (va - vb) / va
    if max(own_spread(a), own_spread(b)) > bound:
        return "unresolved"
    if worse > bound:
        return "worse"
    if worse < -bound:
        return "better"
    return "within"


def compare(a: dict, b: dict, show_layers: bool = False, out=sys.stdout) -> int:
    bad = 0
    print(f"base A: {a.get('git_sha', '?')[:12]} seed {a.get('seed')}   "
          f"candidate B: {b.get('git_sha', '?')[:12]} seed {b.get('seed')}", file=out)
    header = (f"{'workload':<14s} {'metric':<22s} {'A':>12s} {'B':>12s} {'unit':<6s} "
              f"{'B/A':>7s} {'bound':>6s}  verdict")
    print(header, file=out)
    for name in a["workloads"]:
        wa, wb = a["workloads"][name], b["workloads"].get(name)
        if wb is None:
            print(f"{name:<14s} missing from B", file=out)
            bad += 1
            continue
        for metric in spec.gated_metrics(name):
            ma, mb = wa["metrics"].get(metric), wb["metrics"].get(metric)
            if ma is None or mb is None:
                continue
            word = verdict(metric, ma, mb)
            ratio = mb["value"] / ma["value"] if ma["value"] else float("nan")
            print(f"{name:<14s} {metric:<22s} {ma['value']:>12.5g} {mb['value']:>12.5g} "
                  f"{ma['unit']:<6s} {ratio:>7.3f} {spec.BOUNDS[metric]:>6.0%}  {word}", file=out)
            bad += word == "worse"
        fa, fb = wa["failed_frac"], wb["failed_frac"]
        rose = fb > fa
        print(f"{name:<14s} {'failed_frac':<22s} {fa:>12.5g} {fb:>12.5g} {'share':<6s} "
              f"{'':>7s} {'0%':>6s}  {'worse' if rose else 'within'}", file=out)
        bad += rose
        da, db = wa["digest"]["value"], wb["digest"]["value"]
        if da or db:
            same = da == db
            print(f"{name:<14s} {'outcome digest':<22s} {da[:12]:>12s} {db[:12]:>12s} "
                  f"{'':<6s} {'':>7s} {'':>6s}  {'identical' if same else 'CHANGED'}", file=out)
            bad += not same
        if show_layers:
            for metric, va in wa["layers"].items():
                vb = wb["layers"].get(metric)
                if vb is None:
                    continue
                ratio = f"{vb / va:>7.3f}" if va else f"{'-':>7s}"
                print(f"{name:<14s}   {metric:<42s} {va:>12.5g} {vb:>12.5g} "
                      f"{spec.UNITS.get(metric, ''):<6s} {ratio}", file=out)
    print("verdict: " + ("REGRESSION" if bad else "no regression"), file=out)
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a", type=Path, help="base result file")
    ap.add_argument("b", type=Path, help="candidate result file")
    ap.add_argument("--layers", action="store_true", help="also print per-layer deltas")
    args = ap.parse_args(argv)
    a = json.loads(args.a.read_text())
    b = json.loads(args.b.read_text())
    if a.get("schema_version") != b.get("schema_version"):
        print("schema versions differ", file=sys.stderr)
        return 2
    return compare(a, b, args.layers)


if __name__ == "__main__":
    raise SystemExit(main())
