"""The paper's claims, pinned: the quick experiment set reproduces the
committed ``quick`` section of ``benchmarks/claims/CLAIMS.json`` exactly.

A model change that moves simulated time fails here and names the
experiments whose rows or checks moved; re-pin by running
``PYTHONPATH=src python -m benchmarks.claims --quick`` (and without
``--quick`` for the ``full`` section) and commit the diff.
"""

import json

from benchmarks.claims import CLAIMS_PATH, EXPERIMENTS, collect


def test_quick_claims_match_the_pinned_section():
    pinned = json.loads(CLAIMS_PATH.read_text())
    got = collect(quick=True)
    moved = [key for key in EXPERIMENTS if got[key] != pinned["quick"].get(key)]
    assert not moved, f"claims moved against CLAIMS.json: {moved}"
    failed = [
        f"{key}.{name}"
        for key, result in got.items()
        for name, ok in result["checks"].items()
        if not ok
    ]
    assert not failed, f"claim checks failed: {failed}"


def test_both_sections_pin_every_experiment():
    pinned = json.loads(CLAIMS_PATH.read_text())
    assert list(pinned) == ["full", "quick"]
    for section in pinned.values():
        assert list(section) == list(EXPERIMENTS)
        assert all(all(r["checks"].values()) for r in section.values())
