#!/usr/bin/env python3
"""The cost ledger: six named workloads, end-to-end metrics on two clocks,
and a per-layer table from a separate traced pass.

    python3 benchmarks/ledger/run.py [--workload NAME ...] [--seed N]
        [--seconds S | --repeats K] [--trace [0|1]] [--out PATH]
        [--smoke] [--regen]

One workload (``--workload NAME`` once) runs in this process and ends with
one JSON line ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
Several workloads (the default: all six) each run in a subprocess of their
own — fresh RSS, no order effects — and are gathered into one JSON in the
ledger schema (``--out``, see README.md).

Inside a workload: set-up (timed -> ``setup_s``), one discarded warm-up
pass, then timed passes with tracing off until ``--seconds`` have gone by
(or exactly ``--repeats``); reported values are medians, with n stated.
Only then, under ``--trace``, one more pass runs under the tracer.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import platform
import pstats
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    # the ledger measures the checkout it lives in, never an installed copy
    sys.exit(f"{ROOT / 'src' / 'repro'} not found: run from a full checkout")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))
# numpy asks the kernel for transparent huge pages on big arrays; whether a
# sparsely touched simulated drive then costs 4 KiB or 2 MiB per touched page
# depends on what the kernel has free, which makes peak_rss_mb and setup_s
# bimodal from run to run. Must be set before numpy is imported.
os.environ.setdefault("NUMPY_MADVISE_HUGEPAGE", "0")

import numpy as np  # noqa: E402

import layers  # noqa: E402
import liveload  # noqa: E402
import simload  # noqa: E402
import spec  # noqa: E402
from clock import RegionClock  # noqa: E402

DIGESTS = HERE / "digests.json"
SCRATCH = ROOT / ".ledger_scratch"
SMOKE_SCALE = 0.05
SETUP_REPEATS = 5       # set-ups timed per run ...
SETUP_BUDGET_S = 3.0    # ... or fewer (at least 3) once they have taken this long
WORKLOAD_NAMES = tuple(name for name, _ in spec.WORKLOADS)


# -- small helpers ----------------------------------------------------------------


def sample(values, name: str, n: int | None = None) -> dict:
    """A metric in the ledger schema: the median of ``values`` and the rest.
    ``n`` overrides the count when one value already summarizes many (a
    percentile over ``n`` requests)."""
    values = [float(v) for v in values]
    return {
        "value": median(values),
        "unit": spec.UNITS[name],
        "n": len(values) if n is None else n,
        "samples": values,
        "bound": spec.BOUNDS.get(name),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest_key(scale: float, seed: int) -> str:
    return f"{scale:g}:{seed}"


def load_digests(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        return {}


# -- one simulated workload --------------------------------------------------------


def measure_sim(name: str, args) -> tuple[dict, list]:
    """``(record, profiles)``; profiles is empty unless tracing."""
    workload = simload.WORKLOADS[name](args.seed, args.scale)

    # set-up is timed first, back to back, in the fresh process: a user's
    # first set-up. (Timed between passes it depends on allocator history:
    # glibc raises its mmap threshold as big arrays are freed, and calloc
    # then has to clear recycled memory, by how much depends on the pass.)
    setups = []
    started = time.perf_counter()
    while len(setups) < SETUP_REPEATS and (
            len(setups) < 3 or time.perf_counter() - started < SETUP_BUDGET_S):
        gc.collect()
        t0 = time.perf_counter()
        state = workload.setup()
        setups.append(time.perf_counter() - t0)
        del state

    def one_pass(profiler=None):
        gc.collect()
        state = workload.setup()
        gc.collect()
        return workload.run_pass(state, RegionClock(profiler))

    warm = one_pass()                                     # discarded
    # memory is read after the first pass: later passes add allocator history
    # that depends on how many passes fitted into --seconds
    rss = peak_rss_mb()
    passes = []
    started = time.perf_counter()
    while True:
        passes.append(one_pass())
        if args.repeats:
            if len(passes) >= args.repeats:
                break
        elif len(passes) >= 2 and time.perf_counter() - started >= args.seconds:
            break

    # correctness: content checks of every pass, and the outcome digest
    pinned = None if args.regen else (
        load_digests(args.digests).get(name, {}).get(digest_key(args.scale, args.seed)))
    seen = {r.digest for r in (warm, *passes)}
    agree = len(seen) == 1
    attempted = failed = 0
    problems = []
    for r in passes:
        attempted += r.requests
        bad = bool(r.problems) or (r.digest != pinned if pinned else not agree)
        if bad:
            failed += r.requests
        problems.extend(r.problems)
    if pinned and any(r.digest != pinned for r in passes):
        problems.append(f"outcome digest {passes[-1].digest[:16]} != pinned {pinned[:16]}")
    if not agree:
        problems.append("passes of one seed disagree on the outcome digest")
    status = "disagree" if not agree else (
        "unpinned" if not pinned else "pinned" if passes[-1].digest == pinned else "mismatch")

    last = passes[-1]
    metrics = {
        "wall_s": sample([r.wall_s for r in passes], "wall_s"),
        "read_wall_s": sample([r.read_wall_s for r in passes], "read_wall_s"),
        "write_wall_s": sample([r.write_wall_s for r in passes], "write_wall_s"),
        "peak_rss_mb": sample([rss], "peak_rss_mb"),
        "setup_s": sample(setups, "setup_s"),
        "sim.elapsed_s": sample([r.sim_elapsed_s for r in passes], "sim.elapsed_s"),
    }
    if "scale_cost_ratio" in last.extra:
        metrics["sim.scale_cost_ratio"] = sample(
            [r.extra["scale_cost_ratio"] for r in passes], "sim.scale_cost_ratio")
    wall = metrics["wall_s"]["value"]
    lay = dict(last.stats)
    lay["fs.requests"] = last.requests
    lay["fs.bytes_moved"] = last.bytes_moved
    lay["host_us_per_event"] = 1e6 * wall / max(1, last.events)
    lay["host_us_per_request"] = 1e6 * wall / max(1, last.requests)
    lay["storage.device_ops_per_request"] = lay["devices.requests"] / max(1, last.requests)
    info = {
        "passes": len(passes),
        "peak_rss_end_mb": peak_rss_mb(),
        "events_per_s": last.events / wall,
        "sim_mb_per_wall_s": last.bytes_moved / wall / 1e6,
    }
    record = {
        "metrics": metrics, "layers": lay, "info": info,
        "attempted": attempted, "failed": failed, "problems": problems,
        "digest": {"value": last.digest, "status": status},
    }
    profiles = []
    if args.trace:
        profiles.append(cProfile.Profile())
        traced = one_pass(profiles[0])
        lay["trace.overhead_ratio"] = traced.wall_s / wall
        if traced.digest != last.digest:
            problems.append("the traced pass produced a different outcome digest")
    if args.regen and agree and not any(r.problems for r in passes):
        book = load_digests(args.digests)
        book.setdefault(name, {})[digest_key(args.scale, args.seed)] = last.digest
        args.digests.write_text(json.dumps(book, indent=2, sort_keys=True) + "\n")
        record["digest"]["status"] = "regenerated"
    return record, profiles


# -- the live workload --------------------------------------------------------------


def measure_live(name: str, args) -> tuple[dict, list]:
    workload = liveload.LiveServe(args.seed, args.scale, scratch=SCRATCH)
    prof = cProfile.Profile() if args.trace else None
    gc.collect()
    run = workload.run(args.seconds, SETUP_REPEATS, profiler=prof)
    rss = peak_rss_mb()
    rounds = run["rounds"]
    lat_r, lat_w = run["lat"]
    pct = liveload.percentile
    metrics = {
        "wall_s": sample([r.wall_s for r in rounds], "wall_s"),
        "read_wall_s": sample([r.read_s for r in rounds], "read_wall_s"),
        "write_wall_s": sample([r.write_s for r in rounds], "write_wall_s"),
        "peak_rss_mb": sample([rss], "peak_rss_mb"),
        "setup_s": sample(run["setup_samples"], "setup_s"),
        "live.req_per_s": sample([r.requests / r.wall_s for r in rounds], "live.req_per_s"),
        "live.read_p50_ms": sample([1e3 * pct(lat_r, 50)], "live.read_p50_ms", len(lat_r)),
        "live.read_p90_ms": sample([1e3 * pct(lat_r, 90)], "live.read_p90_ms", len(lat_r)),
        "live.write_p50_ms": sample([1e3 * pct(lat_w, 50)], "live.write_p50_ms", len(lat_w)),
        "live.write_p90_ms": sample([1e3 * pct(lat_w, 90)], "live.write_p90_ms", len(lat_w)),
    }
    lay = {
        "live.req_p99_ms": 1e3 * pct(lat_r + lat_w, 99),
        "live.gen_late_p90_ms": 1e3 * pct(run["late"], 90),
        "live.drift": run["drift"],
    }
    lay.update({k: v for k, v in run.items() if k.startswith("live.")})
    wall = metrics["wall_s"]["value"]
    lay["fs.requests"] = rounds[0].requests
    lay["host_us_per_request"] = 1e6 * wall / rounds[0].requests
    problems = []
    failed = run["failed"]
    if run["server_errors"]:
        problems.append(f"server counted {run['server_errors']} error(s)")
    if not run["final_ok"]:
        problems.append("the served dataset does not end equal to the clients' shadow copy")
        failed = max(failed, 1)
    if run["drift_flagged"]:
        print(f"  WARNING: closed-loop rate drifted {run['drift']:.2f}x between halves, "
              "twice: not at steady state")
    record = {
        "metrics": metrics, "layers": lay,
        "info": {"rounds": len(rounds), "open_loop_samples": len(lat_r) + len(lat_w),
                 "drift_flagged": run["drift_flagged"]},
        "attempted": run["attempted"], "failed": failed, "problems": problems,
        "digest": {"value": "", "status": "none"},
    }
    profiles = []
    if prof is not None:
        profiles = [prof, *run["thread_profiles"]]
        lay["trace.overhead_ratio"] = run["traced_wall_s"] / wall
    return record, profiles


# -- output -------------------------------------------------------------------------


def trace_table(name: str, lay: dict, stats: pstats.Stats, top: int = 30) -> dict:
    """The traced pass as a table: per-layer self time / share / calls, the
    inclusive entry-point times, and the heaviest functions with the layer
    each was charged to."""
    total = lay["host.total_s"] or 1.0
    heavy = sorted(stats.stats.items(), key=lambda kv: kv[1][2], reverse=True)[:top]
    return {
        "schema_version": spec.SCHEMA_VERSION,
        "workload": name,
        "host_total_s": lay["host.total_s"],
        "overhead_ratio": lay["trace.overhead_ratio"],
        "layers": {
            layer: {
                "self_s": lay[f"host.{layer}.self_s"],
                "share": lay[f"host.{layer}.self_s"] / total,
                "calls": lay[f"host.{layer}.calls"],
            }
            for layer in (*layers.LAYERS, layers.OTHER)
        },
        "inclusive_s": {k: v for k, v in lay.items() if k.startswith("cum.")},
        "top_functions": [
            {
                "function": f"{Path(f[0]).name}:{f[1]}({f[2]})",
                "layer": layers.layer_of(f[0]) or "caller's",
                "self_s": tt, "calls": nc,
            }
            for f, (_cc, nc, tt, _ct, _callers) in heavy
        ],
    }


def print_record(name: str, record: dict) -> None:
    print(f"== {name}")
    for metric, m in record["metrics"].items():
        bound = "" if m["bound"] is None else f"  bound {m['bound']:.0%}"
        print(f"  {metric:<44s} {m['value']:>14.6g} {m['unit']:<6s} n={m['n']}{bound}")
    for metric, value in record["layers"].items():
        print(f"  {metric:<44s} {value:>14.6g} {spec.UNITS[metric]}")
    for key, value in record["info"].items():
        print(f"  ({key}: {value:.6g})" if isinstance(value, float) else f"  ({key}: {value})")
    print(f"  failed_frac {record['failed_frac']:.6g}  "
          f"({record['failed']} of {record['attempted']}), "
          f"digest {record['digest']['status']}")
    for p in record["problems"]:
        print(f"  PROBLEM: {p}")


def result_line(record: dict, trace: bool) -> str:
    """The last line of a single-workload run."""
    if trace:
        lay = record["layers"]
        flat = {k: m["value"] for k, m in record["metrics"].items()}
        metrics = {
            n: {"value": float(lay.get(n, flat.get(n, 0.0))), "unit": spec.UNITS[n]}
            for n in spec.LAYER_NAMES
        }
    else:
        metrics = {
            n: {"value": record["metrics"][n]["value"], "unit": spec.UNITS[n]}
            for n in spec.E2E_NAMES
        }
    return json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"], "metrics": metrics,
    })


def run_one(name: str, args) -> dict:
    measure = measure_live if name == "live_serve" else measure_sim
    record, profiles = measure(name, args)
    stats = layers.merged_stats(profiles) if profiles else None
    if stats is not None:
        record["layers"].update(layers.trace_metrics(stats))
    record["correct"] = record["failed"] == 0 and not record["problems"]
    record["failed_frac"] = record["failed"] / max(1, record["attempted"])
    record.update(workload=name, seed=args.seed, scale=args.scale)
    print_record(name, record)
    if stats is not None and args.trace_out:
        table = trace_table(name, record["layers"], stats)
        Path(args.trace_out).write_text(json.dumps(table, indent=1) + "\n")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return record


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_suite(names, args) -> int:
    """Each workload in its own subprocess; one JSON in the ledger schema."""
    out_path = Path(args.out) if args.out else None
    book = {
        "schema_version": spec.SCHEMA_VERSION,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "repeats": args.repeats,
        "scale": args.scale,
        "trace": bool(args.trace),
        "workloads": {},
    }
    ok = True
    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="suite_", dir=SCRATCH) as tmp:
        for name in names:
            part = Path(tmp) / f"{name}.json"
            cmd = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(int(args.trace)), "--out", str(part),
                "--digests", str(args.digests),
            ]
            if args.repeats:
                cmd += ["--repeats", str(args.repeats)]
            if args.smoke:
                cmd += ["--smoke"]
            if args.regen:
                cmd += ["--regen"]
            if args.trace and out_path is not None:
                cmd += ["--trace-out", str(out_path.parent / f"trace_{name}.json")]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")   # all but the result line
            if proc.returncode != 0 or not part.exists():
                sys.stderr.write(proc.stderr)
                print(f"== {name}: run failed (exit {proc.returncode})")
                ok = False
                continue
            record = json.loads(part.read_text())
            book["workloads"][name] = record
            ok = ok and record["correct"]
    if out_path is not None:
        out_path.write_text(json.dumps(book, indent=1) + "\n")
        print(f"wrote {out_path}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=WORKLOAD_NAMES, metavar="NAME",
                    help="workload to run (repeatable; default: all six)")
    ap.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS),
                    help="how long the timed passes of one workload measure")
    ap.add_argument("--repeats", type=int, default=0,
                    help="exactly this many timed passes instead of --seconds (sim workloads)")
    ap.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                    help="add the traced pass and report the per-layer metrics")
    ap.add_argument("--out", default=None, metavar="PATH", help="write the result JSON here")
    ap.add_argument("--trace-out", default=None, metavar="PATH",
                    help="single workload: write the traced pass as a table here")
    ap.add_argument("--smoke", action="store_true",
                    help="every workload at about 1/20 size, two short passes, no gating")
    ap.add_argument("--regen", action="store_true",
                    help="pin this seed's outcome digests in digests.json")
    ap.add_argument("--digests", type=Path, default=DIGESTS, metavar="PATH",
                    help="pinned outcome digests (default: digests.json beside this file)")
    args = ap.parse_args(argv)
    args.scale = SMOKE_SCALE if args.smoke else 1.0
    if args.smoke:
        args.seconds = min(args.seconds, 0.6)
        args.repeats = args.repeats or 2
    names = args.workload or list(WORKLOAD_NAMES)
    try:
        if len(names) > 1:
            return run_suite(names, args)
        record = run_one(names[0], args)
        print(result_line(record, bool(args.trace)))
        return 0
    finally:
        if SCRATCH.is_dir() and not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()


if __name__ == "__main__":
    raise SystemExit(main())
