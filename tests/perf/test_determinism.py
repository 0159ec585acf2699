"""Golden event-trace digests: refactors must not move the simulation.

For every organization, on every stack (bare, full, resilient, shadow), under both
submission modes (per-block, extent-batched), the cost ledger's ``OrgDriver``
reads the seeded file and rewrites it (``tests/perf/orgload.py``). Each cell
pins the outcome digest — final clock, every controller's statistics, media
bytes — and, apart from it, the event-id and step counters. All three must be
identical between a plain environment with a no-op trace recorder and a strict
(sanitized) one with a collecting recorder, **and** equal to the golden value
in ``tests/baselines/engine_digests.json``. Whatever the pin, each run must
also pass ``orgload.problems``: records delivered, and the stack's redundancy
kept.

The golden file pins the simulation across refactors: any change to
event ordering, device timing, or stored bytes shows up as a digest
mismatch here before it can silently shift benchmark results. Batched
digests legitimately differ from per-block ones (batching changes
request sizes, hence timing) — each (stack, submission) cell has its own
golden value. A change that only schedules fewer events (say, a release
nothing waits on) moves the counters by visible integers under unmoved
outcome hashes.

This test also runs under ``--sanitize``: the suite-wide sanitizer hook
attaches to the plain side too, and because the sanitizer only observes,
the digests must still match the golden values.

Regenerate after an intentional timing change::

    PYTHONPATH=src:. python tests/perf/test_determinism.py --regen
"""

import json
from pathlib import Path

import pytest

from repro import build_parallel_fs
from repro.qos import QoSConfig
from repro.resilience import ResilienceConfig
from repro.sim import Environment
from repro.trace import NullTraceRecorder, TraceRecorder
from tests.perf.orgload import ORGS, digest, problems, run_org

GOLDEN = Path(__file__).parent.parent / "baselines" / "engine_digests.json"

N_DEVICES = 4
IO_NODES = 2
#: bare: direct-attached, no opt-ins; full: every opt-in on; resilient:
#: parity plus one spare, direct-attached; shadow: mirrored drives
#: (width-1 parity groups) behind the I/O nodes (the per-device node path
#: of the resilience layer)
STACKS = ("bare", "full", "resilient", "shadow")
SUBMISSIONS = ("per_block", "batched")
STACK_KWARGS = {
    "bare": lambda: {},
    "full": lambda: dict(
        io_nodes=IO_NODES,
        resilience=ResilienceConfig(protection="parity", spares=1),
        qos=QoSConfig(),
    ),
    "resilient": lambda: dict(
        resilience=ResilienceConfig(protection="parity", spares=1),
    ),
    "shadow": lambda: dict(
        io_nodes=IO_NODES,
        resilience=ResilienceConfig(protection="shadow", spares=1),
    ),
}


def _build(stack: str, batched: bool, strict: bool):
    env = Environment(strict=strict)
    recorder = TraceRecorder() if strict else NullTraceRecorder()
    pfs = build_parallel_fs(
        env, N_DEVICES, recorder=recorder, batch_io=batched, **STACK_KWARGS[stack]()
    )
    return env, pfs


def _run(stack: str, submission: str, org: str, strict: bool):
    """``(pin, problems)`` of one cell: the pin is the outcome digest and
    the event counters."""
    env, pfs = _build(stack, submission == "batched", strict)
    drv = run_org(env, pfs, org)
    pin = {"outcome": digest(env, pfs, drv.file), "eid": env._eid, "steps": env.steps}
    return pin, problems(pfs, drv)


def _compute_all() -> dict:
    return {f"{stack}/{sub}": {org: _run(stack, sub, org, strict=False)[0] for org in ORGS}
            for stack in STACKS for sub in SUBMISSIONS}


@pytest.fixture(scope="module")
def golden():
    assert GOLDEN.exists(), (
        f"missing golden digests {GOLDEN}; regenerate with "
        f"PYTHONPATH=src:. python {__file__} --regen"
    )
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("stack", STACKS)
@pytest.mark.parametrize("submission", SUBMISSIONS)
@pytest.mark.parametrize("org", ORGS)
def test_digest_matches_golden_both_engines(golden, stack, submission, org):
    want = golden[f"{stack}/{submission}"][org]
    got_plain, bad_plain = _run(stack, submission, org, strict=False)
    got_strict, bad_strict = _run(stack, submission, org, strict=True)
    assert bad_plain == bad_strict == [], f"{stack}/{submission} {org}: {bad_plain or bad_strict}"
    assert got_plain == got_strict, (
        f"plain and strict environments diverged: {stack}/{submission} {org}"
    )
    assert got_plain == want, (
        f"simulation changed vs golden: {stack}/{submission} {org}: "
        f"{got_plain} != {want} (regenerate the baseline only for an "
        f"intentional change)"
    )


def test_golden_covers_every_cell(golden):
    assert set(golden) == {f"{s}/{m}" for s in STACKS for m in SUBMISSIONS}
    for cell in golden.values():
        assert set(cell) == set(ORGS)
        for pin in cell.values():
            assert set(pin) == {"outcome", "eid", "steps"}


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        raise SystemExit(f"usage: PYTHONPATH=src:. python {sys.argv[0]} --regen")
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(_compute_all(), indent=2) + "\n")
    print(f"wrote {GOLDEN}")
