"""Run the reachability census over tier-1 and the CI command lines.

    PYTHONPATH=src python -m benchmarks.census [--check]

Runs tier-1 (``--hypothesis-seed=0`` so two runs reach the same code), the
cost ledger's ``--smoke`` pass (the one program run of the live server)
and the CLIs CI runs, each with the ``sitecustomize`` hook of this package
on ``PYTHONPATH``, then prints the unreached functions and the tests-only
ones per module. ``--check`` exits 1 on an unreached function that is
neither AST-excused nor in ``allow.txt``, on a stale ``allow.txt`` line,
and on a tests-only count other than the committed ``TESTS_ONLY``.
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from . import COUNTED, REPO, SRC, TESTS_ONLY, census, functions, load_reached, read_allow

FIXTURES = REPO / "tests" / "container" / "fixtures"

#: (argv after ``python``, expected exit code)
RUNS = [
    (["-m", "pytest", "-x", "-q", "--hypothesis-seed=0", "-p", "no:cacheprovider"], 0),
    ([str(REPO / "benchmarks" / "ledger" / "run.py"), "--smoke"], 0),
    (["-m", "repro.metastore.harness", "--quick"], 0),
    (["-m", "repro.container", str(FIXTURES / "good.cnt")], 0),
    (["-m", "repro.container", str(FIXTURES / "corrupt.cnt")], 1),
]


def run_all(dump_dir: str) -> None:
    env = dict(os.environ, REPRO_CENSUS_DIR=dump_dir)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).parent), str(SRC)]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    for argv, expected in RUNS:
        proc = subprocess.run(
            [sys.executable, *argv], cwd=REPO, env=env,
            capture_output=True, text=True,
        )
        if proc.returncode != expected:
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
            raise SystemExit(
                f"census: python {' '.join(argv)} exited {proc.returncode}, "
                f"expected {expected}"
            )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="exit 1 on an unexcused unreached function, a "
                         "stale allow.txt line or a moved tests-only count")
    args = ap.parse_args(argv)

    allowed, problems = read_allow()
    with tempfile.TemporaryDirectory(prefix="census-") as dump_dir:
        run_all(dump_dir)
        reached = load_reached(Path(dump_dir))
    lines, found_problems = census(functions(COUNTED), reached, allowed, TESTS_ONLY)
    problems += found_problems
    print("\n".join(lines))
    if args.check and problems:
        print("\ncensus check failed:\n  " + "\n  ".join(problems))
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
