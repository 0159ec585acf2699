"""The live backend: parallel files on the real file system, real threads.

The same six organizations run over host files (§2's "standard parallel
files": the global view of a sequential organization is literally a flat
file any tool can read). Threads stand in for the paper's processes;
the self-scheduled file hands out work under a real lock.

Run:  python examples/live_threads.py
"""

import tempfile
import threading
from pathlib import Path

import numpy as np

from repro import LiveParallelFileSystem
from repro.live import tools


def main() -> None:
    root = Path(tempfile.mkdtemp(prefix="repro_live_"))
    lfs = LiveParallelFileSystem(root)
    print(f"live parallel file system at {root}")

    # --- PS file written by 4 threads, read as a conventional flat file ---
    n, p = 400, 4
    f = lfs.create("field.dat", "PS", n_records=n, record_size=8,
                   dtype="float64", records_per_block=10, n_processes=p)
    data = np.random.default_rng(0).random((n, 1))

    def writer(q: int):
        h = f.internal_view(q)
        mine = f.map.records_of(q)
        h.write_next(data[mine])

    threads = [threading.Thread(target=writer, args=(q,)) for q in range(p)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    # the global view is just the file bytes: read it with plain numpy
    raw = np.fromfile(f.path, dtype=np.float64).reshape(n, 1)
    assert np.array_equal(raw, data)
    print(f"4 threads wrote {n} records; np.fromfile() sees the correct "
          "global view (a conventional flat file)")
    f.close()

    # --- metadata persistence: reopen later, different process count ------
    g = lfs.open("field.dat", n_processes=8)
    print(f"reopened: organization={g.attrs.organization}, now viewed by "
          f"{g.map.n_processes} processes")
    h = g.internal_view(7)
    part = h.read_next(h.n_local_records)
    assert np.array_equal(part, data[g.map.records_of(7)])
    g.close()

    # --- SS file: threads race for work under a real lock ------------------
    tasks = lfs.create("tasks.dat", "SS", n_records=60, record_size=8,
                       dtype="float64", records_per_block=1, n_processes=6)
    tasks.global_view().write(np.arange(60, dtype=np.float64).reshape(60, 1))
    session = tasks.ss_session()
    counts = [0] * 6

    def worker(q: int):
        h = tasks.internal_view(q, session=session)
        while True:
            item = h.read_next()
            if item is None:
                return
            counts[q] += 1

    threads = [threading.Thread(target=worker, args=(q,)) for q in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    session.validate()   # every block exactly once, none skipped
    print(f"self-scheduled: 6 threads drained 60 tasks "
          f"(per-thread counts {counts}), coverage validated")
    tasks.close()

    # --- §2's "transparent mechanisms": the generic tools see the same files -
    print("\n$ python -m repro.live.tools list", root)
    tools.main(["list", str(root)])
    print("$ python -m repro.live.tools info", root, "field.dat")
    tools.main(["info", str(root), "field.dat"])
    print("$ python -m repro.live.tools map", root, "field.dat")
    tools.main(["map", str(root), "field.dat"])


if __name__ == "__main__":
    main()
