"""The benchmark/CI trace default: NullTraceRecorder costs nothing.

Benchmark runs use :class:`~repro.trace.NullTraceRecorder`, and the
fs layer's ``_tracing`` flag must short-circuit the per-block trace work
before any :class:`~repro.trace.AccessEvent` is allocated or any
``record`` call is made. A collecting recorder (or a conflict sanitizer)
re-enables tracing.
"""

import pytest

from repro import build_parallel_fs
from repro.sim import Environment
import repro.trace.events as trace_events
from repro.trace import NullTraceRecorder, TraceRecorder
from tests.perf.orgload import ORGS, run_org


def test_noop_recorder_disables_tracing_flag():
    env = Environment()
    pfs = build_parallel_fs(env, 2, recorder=NullTraceRecorder())
    assert not pfs._tracing
    pfs.recorder = TraceRecorder()
    assert pfs._tracing


def test_null_recorder_run_makes_zero_trace_allocations(monkeypatch):
    calls = []

    def counting_record(self, *args, **kwargs):
        calls.append(args)

    monkeypatch.setattr(TraceRecorder, "record", counting_record)
    monkeypatch.setattr(NullTraceRecorder, "record", counting_record)

    def counting_ctor(*args, **kwargs):
        calls.append(("alloc",))

    # the only construction site is TraceRecorder.record's module global
    monkeypatch.setattr(trace_events, "AccessEvent", counting_ctor)

    recorder = NullTraceRecorder()
    env = Environment()
    pfs = build_parallel_fs(env, 4, recorder=recorder)
    for org in ORGS:
        run_org(env, pfs, org, n_records=96)
    assert calls == []
    assert len(recorder) == 0


def test_collecting_recorder_still_records():
    recorder = TraceRecorder()
    env = Environment()
    pfs = build_parallel_fs(env, 4, recorder=recorder)
    run_org(env, pfs, "IS", n_records=96)
    assert len(recorder) > 0
    assert recorder.total_bytes() > 0


@pytest.mark.parametrize("recorder_cls", [TraceRecorder, NullTraceRecorder])
def test_recorder_choice_does_not_change_simulation(recorder_cls):
    env = Environment()
    pfs = build_parallel_fs(env, 4, recorder=recorder_cls())
    run_org(env, pfs, "IS", n_records=96)
    # same program, same clock/steps regardless of recorder
    assert (round(env.now, 9), env.steps) == _reference_outcome()


def _reference_outcome():
    env = Environment()
    pfs = build_parallel_fs(env, 4)
    run_org(env, pfs, "IS", n_records=96)
    return (round(env.now, 9), env.steps)
