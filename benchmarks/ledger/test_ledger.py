"""Tests of the ledger itself, driven through ``--smoke``.

    PYTHONPATH=src python -m pytest benchmarks/ledger -q

Outside ``testpaths``, so the tier-1 suite does not run them.
"""

import copy
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import spec  # noqa: E402

RUN = [sys.executable, str(HERE / "run.py")]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SIM = spec.SIM


def run(*argv, check=True):
    proc = subprocess.run([*RUN, *argv], capture_output=True, text=True, timeout=300)
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Two traced smoke runs of the whole suite."""
    books = []
    for tag in "ab":
        out = tmp_path_factory.mktemp(tag) / "ledger.json"
        run("--smoke", "--trace", "1", "--out", str(out))
        books.append(json.loads(out.read_text()))
    return books


def test_benchmark_json_is_generated_from_spec():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench == spec.benchmark_json()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert bench["paths"] == ["benchmarks/ledger"]
    assert [w["name"] for w in bench["workloads"]] == [n for n, _ in spec.WORKLOADS]
    assert len(bench["workloads"]) == 6
    names = [m["name"] for m in (*bench["workloads"], *bench["end_to_end"], *bench["per_layer"])]
    assert len(names) == len(set(names))
    for n in names:
        assert NAME.match(n), n
    for m in (*bench["end_to_end"], *bench["per_layer"]):
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    for m in bench["end_to_end"]:
        assert 0 <= m["bound"] <= 0.25
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"])
    assert len(bench["per_layer"]) <= 128 and 1 <= len(bench["end_to_end"]) <= 16
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in bench["workloads"])


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_carries_every_declared_metric(trace):
    proc = run("--workload", "sim_bare", "--smoke", "--trace", str(trace))
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    declared = spec.benchmark_json()["per_layer" if trace else "end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())
        # every end-to-end metric is also printed by name with its unit
        for m in declared:
            assert re.search(rf"^\s+{re.escape(m['name'])}\s+\S+\s+{re.escape(m['unit'])}\b",
                             proc.stdout, re.M), m["name"]


def test_suite_schema(smoke):
    book = smoke[0]
    for key in ("schema_version", "git_sha", "python", "numpy", "nproc", "seed", "repeats"):
        assert key in book
    assert list(book["workloads"]) == [n for n, _ in spec.WORKLOADS]
    for name, rec in book["workloads"].items():
        assert rec["correct"], (name, rec["problems"])
        assert rec["failed_frac"] == 0
        for metric in spec.gated_metrics(name):
            m = rec["metrics"][metric]
            assert set(m) == {"value", "unit", "n", "samples", "bound"}
            assert m["unit"] == spec.UNITS[metric] and m["bound"] == spec.BOUNDS[metric]
        for metric in rec["layers"]:
            assert NAME.match(metric) and metric in spec.UNITS, metric


def test_two_runs_agree_on_everything_simulated(smoke):
    a, b = smoke
    for name in SIM:
        ra, rb = a["workloads"][name], b["workloads"][name]
        assert ra["digest"]["value"] == rb["digest"]["value"]
        assert ra["digest"]["status"] == "pinned"
        assert ra["metrics"]["sim.elapsed_s"]["samples"] == rb["metrics"]["sim.elapsed_s"]["samples"]
        assert ra["layers"]["sim.events"] == rb["layers"]["sim.events"]
        for layer in (*spec.LAYERS, spec.OTHER):
            key = f"host.{layer}.calls"
            assert ra["layers"][key] == rb["layers"][key], (name, key)


def test_bypass_rows_read_zero(smoke):
    lay = smoke[0]["workloads"]
    for name in ("sim_bare", "sim_clients"):
        for layer in ("ionode", "qos", "resilience"):
            assert lay[name]["layers"][f"host.{layer}.calls"] == 0
    for name in ("sim_full", "sim_bare", "sim_clients", "sim_degraded"):
        for layer in ("datatype", "collective", "dataset"):
            assert lay[name]["layers"][f"host.{layer}.calls"] == 0
    assert lay["sim_noncontig"]["layers"]["host.collective.calls"] > 0
    assert lay["sim_full"]["layers"]["host.qos.calls"] > 0
    assert lay["sim_degraded"]["layers"]["resilience.reconstructed_bytes"] > 0
    for name in SIM:
        rec = lay[name]["layers"]
        assert rec["host.other.self_s"] <= 0.05 * rec["host.total_s"], name


def test_corrupted_digest_fails_every_request(tmp_path):
    book = json.loads((HERE / "digests.json").read_text())
    key = f"{0.05:g}:{spec.DEFAULT_SEED}"
    book["sim_bare"][key] = "0" * 64
    bad = tmp_path / "digests.json"
    bad.write_text(json.dumps(book))
    out = tmp_path / "rec.json"
    run("--workload", "sim_bare", "--smoke", "--digests", str(bad), "--out", str(out))
    rec = json.loads(out.read_text())
    assert rec["failed_frac"] == 1 and rec["failed"] == rec["attempted"]
    assert rec["correct"] is False and rec["digest"]["status"] == "mismatch"


def test_compare_flags_a_synthetic_slowdown(smoke):
    base = copy.deepcopy(smoke[0])
    m = base["workloads"]["sim_bare"]["metrics"]["wall_s"]
    m["samples"] = [m["value"]] * 3       # a steady base, so the verdict is resolved
    assert compare.compare(base, copy.deepcopy(base), out=io.StringIO()) == 0
    slow = copy.deepcopy(base)
    m = slow["workloads"]["sim_bare"]["metrics"]["wall_s"]
    factor = 1 + 1.5 * spec.BOUNDS["wall_s"]       # past the bound
    m["value"] *= factor
    m["samples"] = [s * factor for s in m["samples"]]
    sink = io.StringIO()
    assert compare.compare(base, slow, out=sink) == 1
    row = [ln for ln in sink.getvalue().splitlines()
           if ln.startswith("sim_bare") and " wall_s " in ln]
    assert row and row[0].rstrip().endswith("worse")
    noisy = copy.deepcopy(slow)
    m = noisy["workloads"]["sim_bare"]["metrics"]["wall_s"]
    m["samples"] = [m["value"] * f for f in (0.7, 1.0, 1.3)]
    sink = io.StringIO()
    compare.compare(base, noisy, out=sink)
    assert any(ln.rstrip().endswith("unresolved") for ln in sink.getvalue().splitlines())
    failing = copy.deepcopy(base)
    failing["workloads"]["live_serve"]["failed_frac"] = 0.01
    assert compare.compare(base, failing, out=io.StringIO()) == 1
