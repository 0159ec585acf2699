"""FIG1 — regenerate Figure 1: internal organizations of sequential
parallel files.

The paper's only figure shows, for a file of blocks and three processes,
which process accesses which block under each sequential organization
(S, PS, IS, SS). Here the panels are produced from *measured traces* of
the implementation, not drawn by hand.
"""

from repro import Environment, SSSession, TraceRecorder, build_parallel_fs

from .common import fill, run, run_all

N_BLOCKS = 12
RPB = 2
N_RECORDS = N_BLOCKS * RPB
N_PROCESSES = 3


def _traced(org):
    """A fresh traced stack holding one zero-filled file of ``org``."""
    env, rec = Environment(), TraceRecorder()
    pfs = build_parallel_fs(env, 3, recorder=rec)
    f = pfs.create(
        f"fig1_{org}", org, n_records=N_RECORDS, record_size=8,
        records_per_block=RPB, n_processes=N_PROCESSES,
    )
    fill(env, f)
    rec.clear()
    return env, rec, f


def _part_reader(f, q):
    h = f.internal_view(q)
    while h.blocks_remaining:
        yield from h.read_next_block()


def run_figure1():
    panels = {}

    # (a) Sequential: one process reads the whole file
    env, rec, f = _traced("S")

    def s_reader():
        h = f.internal_view(0)
        while not h.eof:
            yield from h.read_next(RPB)

    run(env, s_reader())
    panels["a"] = ("Sequential.", rec.blocks_by_process(f.name))

    # (b) Partitioned: contiguous blocks per process
    # (c) Interleaved: stride-P blocks per process
    for label, org, desc in (("b", "PS", "Partitioned."), ("c", "IS", "Interleaved.")):
        env, rec, f = _traced(org)
        run_all(env, [_part_reader(f, q) for q in range(3)])
        panels[label] = (desc, rec.blocks_by_process(f.name))

    # (d) Self-scheduled: access order decided by request order
    env, rec, f = _traced("SS")
    session = SSSession(f)
    order = []

    def ss_reader(q):
        h = session.handle(q)
        while True:
            item = yield from h.read_next()
            if item is None:
                return
            order.append((item[0], q))
            yield env.timeout(0.001 * (q + 1))  # uneven rates, as in real runs

    run_all(env, [ss_reader(q) for q in range(3)])
    session.validate()
    panels["d"] = ("Self-scheduled.", rec.blocks_by_process(f.name))
    return panels, order


def fig1(quick: bool) -> dict:
    """One row per panel: the owning process (0-based) of each block,
    plus the self-scheduled hand-out order as (block, process) pairs."""
    panels, ss_order = run_figure1()
    owner = {
        label: [next(q for q, bs in m.items() if b in bs) for b in range(N_BLOCKS)]
        for label, (_, m) in panels.items()
    }
    d = panels["d"][1]
    covered = sorted(blk for blocks in d.values() for blk in blocks)
    rows = [
        {"panel": label, "organization": desc, "owner": owner[label]}
        for label, (desc, _) in panels.items()
    ]
    rows.append({"panel": "d", "access_order": ss_order})
    return {"rows": rows, "checks": {
        "s_one_process_reads_all": panels["a"][1] == {0: list(range(N_BLOCKS))},
        "ps_contiguous_thirds": panels["b"][1]
        == {0: [0, 1, 2, 3], 1: [4, 5, 6, 7], 2: [8, 9, 10, 11]},
        "is_round_robin": panels["c"][1]
        == {0: [0, 3, 6, 9], 1: [1, 4, 7, 10], 2: [2, 5, 8, 11]},
        "ss_no_skip_no_repeat": covered == list(range(N_BLOCKS)),
        "ss_every_process_served": len(d) == N_PROCESSES,
    }}
