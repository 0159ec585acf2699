"""The reachability census: its AST identities match what CPython records,
and its hook counts calls made in subprocesses, threads and forked
children. A mismatch here would make the CI gate report decorated
functions as unreached."""

import inspect
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from benchmarks.census import Function, census, functions, load_reached

CENSUS_DIR = Path(__file__).parents[2] / "benchmarks" / "census"

FIXTURE = textwrap.dedent('''
    import abc
    import asyncio
    import functools
    import os
    import threading


    def plain():
        return 1


    def tag(fn):
        return fn


    class Thing(abc.ABC):
        @property
        def size(self):
            return 2

        @staticmethod
        def helper():
            return 3

        @tag
        @functools.lru_cache(maxsize=None)
        def stacked(self):
            return 4

        @abc.abstractmethod
        def hook(self):
            """Subclasses say."""

        def __repr__(self):
            return "Thing()"


    class Real(Thing):
        def hook(self):
            return 5


    def outer():
        def inner():
            return 6
        return inner()


    async def waiter():
        await asyncio.sleep(0)
        return 7


    def in_thread():
        return 8


    def in_fork():
        return 9


    def never():
        return 10


    def run():
        real = Real()
        plain(), real.size, Thing.helper(), real.stacked(), real.hook(), outer()
        asyncio.run(waiter())
        t = threading.Thread(target=in_thread)
        t.start()
        t.join()
        pid = os.fork()
        if pid == 0:
            in_fork()
            os._exit(0)
        os.waitpid(pid, 0)
''')


@pytest.fixture
def pkg(tmp_path):
    root = tmp_path / "pkg"
    root.mkdir()
    (root / "__init__.py").write_text("")
    (root / "mod.py").write_text(FIXTURE)
    return root


def code_objects(code):
    """Every function code object compiled from a module, recursively."""
    for const in code.co_consts:
        if inspect.iscode(const):
            if const.co_flags & inspect.CO_OPTIMIZED and not const.co_name.startswith("<"):
                yield const
            yield from code_objects(const)


def test_ast_identity_is_co_firstlineno(pkg):
    source = (pkg / "mod.py").read_text()
    compiled = {
        (c.co_firstlineno, c.co_name)
        for c in code_objects(compile(source, "mod.py", "exec"))
    }
    found = functions(pkg)
    assert {(f.line, f.name) for f in found} == compiled
    by_name = {f.qualname: f for f in found}
    # a decorated function starts at its first decorator
    assert source.splitlines()[by_name["Thing.stacked"].line - 1].strip() == "@tag"
    assert by_name["outer.inner"].path == "pkg/mod.py"
    assert by_name["Thing.hook"].excuse == "abstractmethod"
    assert by_name["Thing.__repr__"].excuse == "__repr__"
    assert by_name["plain"].excuse is None


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_subprocess_thread_and_fork_calls_are_counted(pkg, tmp_path):
    dumps = tmp_path / "dumps"
    dumps.mkdir()
    env = dict(os.environ, REPRO_CENSUS_DIR=str(dumps), REPRO_CENSUS_ROOT=str(pkg))
    env["PYTHONPATH"] = os.pathsep.join([str(CENSUS_DIR), str(pkg.parent)])
    subprocess.run(
        [sys.executable, "-c", "import pkg.mod; pkg.mod.run()"],
        env=env, check=True, timeout=60,
    )
    assert len(list(dumps.glob("*.txt"))) == 2  # the process and its fork

    reached = load_reached(dumps, root=pkg)
    found = functions(pkg)
    names = {f.qualname for f in found if f.key in reached}
    assert names == {
        "plain", "tag", "Thing.size", "Thing.helper", "Thing.stacked",
        "Real.hook", "outer", "outer.inner", "waiter", "in_thread",
        "in_fork", "run",
    }
    assert all(reached[f.key] == {"program"} for f in found if f.key in reached)

    lines, problems = census(found, reached, {"pkg/mod.py::never": "kept on purpose"})
    assert problems == []
    assert "  pkg/mod.py::Thing.hook  [abstractmethod]" in lines
    assert "  pkg/mod.py::never  [allow.txt: kept on purpose]" in lines


def test_check_names_the_unexcused_and_the_stale():
    f = Function("repro/x.py", 3, "gone", "gone", 2, None)
    _, problems = census([f], {}, {"repro/x.py::reached": "why"})
    assert problems == [
        "unreached: repro/x.py::gone (line 3)",
        "stale allow.txt line: repro/x.py::reached is not an unreached function",
    ]
