"""Run every experiment and pin its section of ``CLAIMS.json``.

    PYTHONPATH=src python -m benchmarks.claims [--quick]

Writes the ``full`` (or, with ``--quick``, the ``quick``) section, prints
one line per experiment, and exits 1 if any check is false.
"""

import argparse
import json
import sys

from . import CLAIMS_PATH, collect, dump


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="shrink the large configurations (the pinned "
                         "'quick' section the tier-1 test compares)")
    args = ap.parse_args(argv)

    section = "quick" if args.quick else "full"
    claims = collect(args.quick)
    doc = json.loads(CLAIMS_PATH.read_text()) if CLAIMS_PATH.exists() else {}
    doc[section] = claims
    CLAIMS_PATH.write_text(
        dump({name: doc[name] for name in ("full", "quick") if name in doc})
    )

    failed = []
    for key, result in claims.items():
        bad = [name for name, ok in result["checks"].items() if not ok]
        failed += [f"{key}.{name}" for name in bad]
        print(f"{key:<26s} {len(result['rows']):>3d} rows  "
              f"{len(result['checks']) - len(bad):>2d}/{len(result['checks'])} checks")
    for name in failed:
        print(f"FAILED {name}", file=sys.stderr)
    print(f"wrote the {section!r} section of {CLAIMS_PATH}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
