"""Reachability hook for the census: records which ``src/repro`` functions run.

Python imports ``sitecustomize`` at start-up from any directory on its
path, so putting this directory on ``PYTHONPATH`` installs the hook in
the census run and in every subprocess it starts. Without
``REPRO_CENSUS_DIR`` in the environment it does nothing.

The first ``call`` event of a code object under the counted root
(``src/repro``, or ``REPRO_CENSUS_ROOT``) is recorded once per caller
kind. The kind is that of the nearest frame on the stack that lives in
the repository but outside the counted root: ``tests/`` makes it a test
call, any other repository file (``benchmarks/``, ``examples/``) a
program call. A stack with no such frame takes the kind of whatever
started the thread, and the main thread's is the process's own: test
under pytest, program otherwise.

Each record is one ``kind<TAB>file<TAB>first line<TAB>name`` line,
appended to a file of the process's own in ``REPRO_CENSUS_DIR`` the moment
it is made. Nothing waits for exit, so a forked ``multiprocessing`` worker
that leaves by ``os._exit`` or is terminated still counts.
"""

import os
import sys

TEST, PROGRAM = "test", "program"
_COUNTED, _OTHER, _ROOT = "counted", "other", "root"


def _install(out_dir: str) -> None:
    import threading

    repo = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    counted = os.path.abspath(
        os.environ.get("REPRO_CENSUS_ROOT") or os.path.join(repo, "src", "repro")
    )
    tests = os.path.join(repo, "tests")

    def category(filename: str) -> str:
        path = os.path.abspath(filename)
        if path.startswith(counted + os.sep):
            return _COUNTED
        if path.startswith(tests + os.sep):
            return TEST
        if path.startswith(repo + os.sep) and path.endswith(".py"):
            return PROGRAM
        return _OTHER

    categories: dict[str, str] = {}
    # kind -> {id(code): code}; holding the code keeps its id from reuse
    reached: dict[str, dict[int, object]] = {TEST: {}, PROGRAM: {}, _ROOT: {}}
    kinds: dict[int, tuple] = {}  # thread ident -> (origin kind, marks)
    out = {"pid": None, "fd": None, "root": None}

    def emit(kind: str, code) -> None:
        if out["pid"] != os.getpid():  # first record, or a forked child's
            argv0 = sys.argv[0] if sys.argv else ""
            under_pytest = "pytest" in (
                os.path.basename(argv0), os.path.basename(os.path.dirname(argv0))
            )
            out["root"] = TEST if under_pytest else PROGRAM
            # append: a reused pid adds to a finished process's file
            out["fd"] = os.open(
                os.path.join(out_dir, f"{os.getpid()}.txt"),
                os.O_WRONLY | os.O_CREAT | os.O_APPEND,
            )
            out["pid"] = os.getpid()
        if kind is _ROOT:
            kind = out["root"]
        os.write(out["fd"], (
            f"{kind}\t{os.path.abspath(code.co_filename)}\t"
            f"{code.co_firstlineno}\t{code.co_name}\n"
        ).encode())

    def make_hook(origin: str):
        marks: list = []  # (frame, kind) of the open repository frames

        def hook(frame, event, arg):
            if event == "call":
                code = frame.f_code
                cat = categories.get(code.co_filename)
                if cat is None:
                    cat = categories[code.co_filename] = category(code.co_filename)
                if cat is _COUNTED:
                    kind = marks[-1][1] if marks else origin
                    seen = reached[kind]
                    if id(code) not in seen:
                        seen[id(code)] = code
                        emit(kind, code)
                elif cat is not _OTHER:
                    marks.append((frame, cat))
            elif event == "return" and marks and marks[-1][0] is frame:
                marks.pop()

        kinds[threading.get_ident()] = (origin, marks)
        return hook

    def thread_start_hook(frame, event, arg):
        # first event in a new thread: swap in a hook of its own
        hook = make_hook(getattr(threading.current_thread(), "_census_kind", _ROOT))
        sys.setprofile(hook)
        hook(frame, event, arg)

    start = threading.Thread.start

    def census_start(self):
        origin, marks = kinds.get(threading.get_ident(), (_ROOT, ()))
        self._census_kind = marks[-1][1] if marks else origin
        return start(self)

    threading.Thread.start = census_start
    threading.setprofile(thread_start_hook)
    sys.setprofile(make_hook(_ROOT))


if os.environ.get("REPRO_CENSUS_DIR"):
    _install(os.environ["REPRO_CENSUS_DIR"])
