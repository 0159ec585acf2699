"""Cross-backend behaviour matrix for the global view, the six handle kinds
and file-view I/O.

One scripted operation sequence per kind runs through the simulator's
generator handles and the live backend's plain-call handles. After every
operation the two must agree on the return value (or the exception type)
and on the handle's observable state: ``position``, ``eof`` and
``remaining`` wherever the handle has them. The scripts include the error
paths: an exhausted partition, a foreign PDA block, a span outside the
file, a wrong block size, SS exhaustion and ``session.validate()``. The
view scripts run ``read_view``/``write_view`` with sieving off and on and
then compare the media bytes of both files.
"""

import inspect

import numpy as np
import pytest

from repro import build_parallel_fs
from repro.fs import SSSession
from repro.datatype import IndexedView, StridedView
from repro.live import LiveParallelFileSystem
from repro.sim import Environment, Event

N = 16
STATE = ("position", "eof", "remaining")


def rows(n, start=1.0):
    return (start + np.arange(n, dtype=np.float64)).reshape(-1, 1)


class SimBackend:
    def __init__(self, tmp_path):
        self.env = Environment()
        self.pfs = build_parallel_fs(self.env, 2)

    def create(self, org, **kw):
        return self.pfs.create("f", org, n_records=N, record_size=8,
                               dtype="float64", **kw)

    def session(self, f):
        return SSSession(f)

    def call(self, fn, *args, **kw):
        out = fn(*args, **kw)
        if not (inspect.isgenerator(out) or isinstance(out, Event)):
            return out
        box = {}

        def body():
            if isinstance(out, Event):
                box["out"] = yield out
            else:
                box["out"] = yield from out

        self.env.run(self.env.process(body()))
        return box["out"]


class LiveBackend:
    def __init__(self, tmp_path):
        self.lfs = LiveParallelFileSystem(tmp_path / "live")

    def create(self, org, **kw):
        return self.lfs.create("f", org, n_records=N, record_size=8,
                               dtype="float64", **kw)

    def session(self, f):
        return f.ss_session()

    def call(self, fn, *args, **kw):
        return fn(*args, **kw)


def outcome(backend, fn, *args, **kw):
    """``("ok", value)`` or ``("raise", exception type)`` of one call."""
    try:
        return "ok", backend.call(fn, *args, **kw)
    except Exception as exc:  # noqa: BLE001 - the type is the observation
        return "raise", type(exc)


def same(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return a == b


def state(target):
    return {k: getattr(target, k) for k in STATE if hasattr(target, k)}


def replay(tmp_path, org, script, **create_kw):
    """Run ``script`` on both backends, comparing after every step.

    A step ``("open", name, process, options)`` opens an internal view
    (``options["session"] = True`` passes the file's SS session); any other
    step is ``(target, method, *args)`` on a handle opened earlier, on the
    global view (``"global"``), on the file itself (``"file"``) or on the
    SS session (``"session"``); a trailing dict in ``args`` is passed as
    keyword arguments.
    Returns the outcome kinds, for the scripts to check that their error
    paths really raised.
    """
    sides = []
    for backend in (SimBackend(tmp_path), LiveBackend(tmp_path)):
        f = backend.create(org, **create_kw)
        objs = {"global": f.global_view(), "file": f}
        if org == "SS":
            objs["session"] = backend.session(f)
        sides.append((backend, f, objs))
    kinds = []
    for step in script:
        got, states = [], []
        for backend, f, objs in sides:
            if step[0] == "open":
                _, name, process, options = step
                opts = dict(options)
                if opts.pop("session", False):
                    opts["session"] = objs["session"]
                res = outcome(backend, f.internal_view, process, **opts)
                if res[0] == "ok":
                    objs[name], res = res[1], ("ok", None)
                target = objs.get(name)
            else:
                target_name, method, *args = step
                kw = args.pop() if args and isinstance(args[-1], dict) else {}
                target = objs[target_name]
                res = outcome(backend, getattr(target, method), *args, **kw)
            got.append(res)
            states.append(state(target) if target is not None else {})
        (sim_kind, sim_val), (live_kind, live_val) = got
        assert sim_kind == live_kind, (step, got)
        assert same(sim_val, live_val), (step, got)
        assert states[0] == states[1], (step, states)
        kinds.append(sim_kind)
    media = [
        backend.call(f.global_view().read_at, 0, N).tobytes()
        for backend, f, _ in sides
    ]
    assert media[0] == media[1]
    sides[1][1].close()
    return kinds


def test_global_view(tmp_path):
    kinds = replay(tmp_path, "S", [
        ("global", "write", rows(10)),
        ("global", "read"),                       # to EOF: six zeros
        ("global", "seek", 0),
        ("global", "read", 4),
        ("global", "read_at", 2, 3),
        ("global", "write_at", 14, rows(2, 50.0)),
        ("global", "seek", 15),
        ("global", "write", rows(3)),             # past EOF: no cursor drift
        ("global", "seek", 17),                   # outside the file
        ("global", "read_at", 15, 2),             # outside the file
        ("global", "read", 100),                  # clipped at EOF
        ("global", "read", 1),                    # at EOF: empty
    ])
    assert kinds.count("raise") == 3


def test_sequential(tmp_path):
    kinds = replay(tmp_path, "S", [
        ("open", "h", 0, {}),                     # not the reader
        ("open", "h", 2, {}),                     # not a process
        ("open", "h", 1, {}),
        ("h", "write_next", rows(10)),
        ("h", "read_next", 3),
        ("h", "write_next", rows(5)),             # past EOF
        ("h", "read_next", 10),                   # clipped at EOF
        ("h", "read_next"),
    ], n_processes=2, reader=1)
    assert kinds.count("raise") == 3


@pytest.mark.parametrize("org", ["PS", "IS"])
def test_partition(tmp_path, org):
    kinds = replay(tmp_path, org, [
        ("open", "h0", 0, {}),
        ("open", "h1", 1, {}),
        ("h0", "write_next", rows(5)),
        ("h1", "write_next", rows(8, 20.0)),
        ("h0", "read_next", 2),
        ("h0", "write_next", rows(4)),            # partition exhausted
        ("h0", "write_next", rows(1, 9.0)),
        ("h1", "read_next", 3),                   # past the end: empty
        ("global", "read"),
    ], n_processes=2, records_per_block=2)
    assert kinds.count("raise") == 1


def test_self_scheduled(tmp_path):
    kinds = replay(tmp_path, "SS", [
        ("open", "h", 0, {}),                     # no session
        ("open", "h0", 0, {"session": True}),
        ("open", "h1", 1, {"session": True}),
        ("h0", "write_next", rows(4)),            # block 0
        ("session", "validate"),                  # blocks 1..3 not drawn
        ("h1", "write_next", rows(3)),            # block 1: wrong size
        ("h0", "read_next"),                      # block 2
        ("h1", "read_next"),                      # block 3
        ("h0", "read_next"),                      # exhausted
        ("h1", "write_next", rows(4)),            # exhausted
        ("session", "validate"),
        ("global", "read"),
    ], n_processes=2, records_per_block=4)
    assert kinds.count("raise") == 3


def test_global_direct(tmp_path):
    kinds = replay(tmp_path, "GDA", [
        ("open", "h0", 0, {}),
        ("open", "h1", 1, {}),
        ("h0", "write_record", 3, rows(4)),
        ("h1", "read_record", 2, 5),
        ("h1", "read_record", 15, 2),             # outside the file
        ("h1", "read_record", 0, 0),              # empty request
        ("h0", "write_record", -1, rows(1)),      # outside the file
        ("h0", "read_record", 15),
    ], n_processes=2, records_per_block=2)
    assert kinds.count("raise") == 3


def test_partitioned_direct(tmp_path):
    kinds = replay(tmp_path, "PDA", [
        ("open", "h0", 0, {}),
        ("open", "h1", 1, {}),
        ("open", "s0", 0, {"sequential_within_block": True}),
        ("h0", "write_record", 0, rows(2)),
        ("h0", "read_record", 0, 6),              # crosses block 1 (process 1's)
        ("h0", "write_record", 0, rows(6)),       # likewise
        ("h0", "write_record", 4, rows(2, 7.0)),  # block 2 is process 0's
        ("h1", "read_record", 4, 1),              # foreign block
        ("h1", "read_record", 2, 2),
        ("s0", "read_record", 1),                 # slot 1 before slot 0
        ("s0", "read_record", 0),
        ("s0", "read_record", 1),
        ("s0", "reset_block", 0),
        ("s0", "read_record", 0, 2),
    ], n_processes=2, records_per_block=2, assignment="interleaved")
    assert kinds.count("raise") == 4


STRIDED = StridedView(1, 4, 2, 4)                       # 1,2 5,6 9,10 13,14
INDEXED = IndexedView([(0, 1), (3, 2), (5, 1), (9, 3), (15, 1)])


@pytest.mark.parametrize("view", [STRIDED, INDEXED], ids=["strided", "indexed"])
@pytest.mark.parametrize("sieve", [
    {},
    {"sieve": True},
    {"sieve": True, "sieve_factor": 8.0},
    {"sieve": True, "sieve_window": 8},                 # one record
], ids=["list", "sieve", "sieve-wide", "sieve-one-record"])
def test_view_io(tmp_path, view, sieve):
    n = len(view)
    kinds = replay(tmp_path, "S", [
        ("global", "write", rows(N)),
        ("file", "read_view", view, sieve),
        ("file", "write_view", rows(n, 100.0), view, sieve),
        ("file", "read_view", view, sieve),
        ("global", "read_at", 0, N),
        ("file", "write_view", rows(n + 1), view, sieve),   # wrong count
        ("file", "read_view", StridedView(8, 3, 2, 4), sieve),  # past EOF
    ])
    assert kinds.count("raise") == 2
