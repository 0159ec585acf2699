"""Reachability census of ``src/repro``: which functions does anything run?

Every ``def`` under ``src/repro`` is found by an ``ast`` walk and named by
``(file, first line, name)``, where the first line is that of the first
decorator -- the same number CPython stores as ``co_firstlineno``. The
``sitecustomize`` hook next to this file records the same triple for
every function that runs, and whether a test or a program reached it.
A function nothing reaches is *unreached*; one only tests reach is
*tests-only*.

Three kinds of function may stay unreached without a word, because the
AST shows what they are for: ``__repr__`` debugging aids, ``@abstractmethod``
hooks, and bodies that only ``raise NotImplementedError``. Any other
exception takes one line in ``allow.txt`` with its reason.

Run it with ``PYTHONPATH=src python -m benchmarks.census [--check]``.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from pathlib import Path

# absolute but not resolved, as the hook names files
REPO = Path(os.path.abspath(__file__)).parents[2]
SRC = REPO / "src"
COUNTED = SRC / "repro"
ALLOW = Path(__file__).with_name("allow.txt")

__all__ = ["Function", "functions", "load_reached", "read_allow", "census"]


@dataclass(frozen=True)
class Function:
    """One ``def`` found by the AST walk."""

    path: str  # relative to the walked root's parent, e.g. "repro/fs/pfs.py"
    line: int  # first decorator line, i.e. ``co_firstlineno``
    name: str
    qualname: str
    lines: int  # source lines from the first decorator to the end
    excuse: str | None  # why it may stay unreached, as the AST shows

    @property
    def key(self) -> tuple[str, int, str]:
        return (self.path, self.line, self.name)

    @property
    def label(self) -> str:
        return f"{self.path}::{self.qualname}"


def _is_abstract(node: ast.AST) -> bool:
    return any(
        (isinstance(d, ast.Name) and d.id == "abstractmethod")
        or (isinstance(d, ast.Attribute) and d.attr == "abstractmethod")
        for d in node.decorator_list
    )


def _only_raises_not_implemented(node: ast.AST) -> bool:
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]  # the docstring
    if len(body) != 1 or not isinstance(body[0], ast.Raise):
        return False
    exc = body[0].exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def _excuse(node: ast.AST) -> str | None:
    if node.name == "__repr__":
        return "__repr__"
    if _is_abstract(node):
        return "abstractmethod"
    if _only_raises_not_implemented(node):
        return "raises NotImplementedError"
    return None


def functions(root: Path = COUNTED) -> list[Function]:
    """Every ``def`` and ``async def`` in the ``.py`` files under ``root``."""
    found = []

    def walk(node: ast.AST, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                qualname = prefix + child.name
                found.append(Function(
                    path, first, child.name, qualname,
                    child.end_lineno - first + 1, _excuse(child),
                ))
                walk(child, path, qualname + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for file in sorted(root.rglob("*.py")):
        path = file.relative_to(root.parent).as_posix()
        walk(ast.parse(file.read_text(), str(file)), path, "")
    return found


def load_reached(dump_dir: Path, root: Path = COUNTED) -> dict[tuple, set[str]]:
    """``(path, line, name) -> {kinds}`` from the hook's per-process files."""
    reached: dict[tuple, set[str]] = {}
    for dump in sorted(Path(dump_dir).glob("*.txt")):
        for row in dump.read_text().splitlines():
            kind, filename, line, name = row.split("\t")
            path = Path(filename).relative_to(root.parent).as_posix()
            reached.setdefault((path, int(line), name), set()).add(kind)
    return reached


def read_allow(path: Path = ALLOW) -> tuple[dict[str, str], list[str]]:
    """``label -> reason`` from ``allow.txt``, and its malformed lines."""
    allowed, bad = {}, []
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        label, sep, reason = line.partition(" -- ")
        if not sep or not reason.strip():
            bad.append(f"allow.txt line without a ' -- reason': {line}")
        else:
            allowed[label.strip()] = reason.strip()
    return allowed, bad


def census(
    found: list[Function], reached: dict[tuple, set[str]], allowed: dict[str, str]
) -> tuple[list[str], list[str]]:
    """The report lines, and the problems that fail ``--check``."""
    unreached = [f for f in found if f.key not in reached]
    tests_only = [f for f in found if reached.get(f.key) == {"test"}]
    excused = [f for f in unreached if f.excuse or f.label in allowed]
    problems = [
        f"unreached: {f.label} (line {f.line})"
        for f in unreached if not (f.excuse or f.label in allowed)
    ]
    unreached_labels = {f.label for f in unreached}
    problems += [
        f"stale allow.txt line: {label} is not an unreached function"
        for label in sorted(allowed) if label not in unreached_labels
    ]

    out = [
        f"functions: {len(found)} ({sum(f.lines for f in found)} lines)",
        f"unreached: {len(unreached)} "
        f"({sum(f.lines for f in unreached)} lines; {len(excused)} excused)",
        f"tests-only: {len(tests_only)} ({sum(f.lines for f in tests_only)} lines)",
        "",
        "unreached:",
    ]
    for f in unreached:
        why = f.excuse or (f"allow.txt: {allowed[f.label]}" if f.label in allowed
                           else "NOT EXCUSED")
        out.append(f"  {f.label}  [{why}]")
    per_module: dict[str, list[int]] = {}
    for f in tests_only:
        row = per_module.setdefault(f.path, [0, 0])
        row[0] += 1
        row[1] += f.lines
    out += ["", "tests-only by module:", f"  {'module':<40s} {'functions':>9s} {'lines':>6s}"]
    for path, (count, lines) in sorted(per_module.items(), key=lambda kv: (-kv[1][1], kv[0])):
        out.append(f"  {path:<40s} {count:>9d} {lines:>6d}")
    return out, problems
