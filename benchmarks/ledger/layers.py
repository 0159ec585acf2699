"""Per-layer host-time attribution of a traced pass.

The tracer is ``cProfile``, switched on by the runner around the timed
regions only; nothing inside ``src/`` changes. A layer is a package under
``src/repro/``. The rule:

* a function whose file lives in ``src/repro/<pkg>/`` charges its own time
  (``tottime``) to ``<pkg>``;
* C built-ins, numpy and standard-library frames have no package of their
  own: each caller edge's share of their own time goes to the repro package
  that called them (followed through further non-repro callers);
* the ledger's own driver code, and anything no repro code called (the
  asyncio loop and its idle wait on ``live_serve``), is ``other``.
"""

from __future__ import annotations

import inspect
import pstats
import types
from pathlib import Path

import repro
from spec import LAYERS, OTHER

_REPRO_ROOT = str(Path(repro.__file__).resolve().parent) + "/"
_LEDGER_ROOT = str(Path(__file__).resolve().parent) + "/"


def layer_of(filename: str) -> str | None:
    """The layer a source file belongs to; ``None`` for frames that are
    charged to their callers (built-ins, numpy, the standard library)."""
    if filename.startswith(_REPRO_ROOT):
        pkg = filename[len(_REPRO_ROOT):].split("/", 1)[0]
        return pkg if pkg in LAYERS else OTHER
    if filename.startswith(_LEDGER_ROOT):
        return OTHER
    return None


class Attribution:
    """Self time and calls per layer, and inclusive time of named entry
    points, from one ``pstats.Stats``."""

    def __init__(self, stats: pstats.Stats):
        self.stats = stats.stats        # func -> (cc, nc, tt, ct, callers)
        self._owner: dict = {}
        self.self_s = {name: 0.0 for name in (*LAYERS, OTHER)}
        self.calls = {name: 0 for name in (*LAYERS, OTHER)}
        self.total_s = 0.0
        for func, (_cc, nc, tt, _ct, callers) in self.stats.items():
            self.total_s += tt
            own = layer_of(func[0])
            if own is not None:
                self.self_s[own] += tt
                self.calls[own] += nc
                continue
            if not callers:
                self.self_s[OTHER] += tt
                continue
            for caller, edge in callers.items():
                for name, share in self._owners(caller).items():
                    self.self_s[name] += edge[2] * share

    def _owners(self, func) -> dict:
        """How a function's time divides among layers: itself if it has one,
        otherwise its callers' division weighted by inclusive time."""
        own = layer_of(func[0])
        if own is not None:
            return {own: 1.0}
        hit = self._owner.get(func)
        if hit is not None:
            return hit
        entry = self.stats.get(func)
        callers = entry[4] if entry else None
        if not callers:
            return {OTHER: 1.0}
        self._owner[func] = {OTHER: 1.0}    # what a call cycle back to here sees
        mix: dict = {}
        weight = 0.0
        for caller, edge in callers.items():
            w = edge[3] if edge[3] > 0 else 1e-12
            weight += w
            for name, share in self._owners(caller).items():
                mix[name] = mix.get(name, 0.0) + w * share
        out = self._owner[func] = {name: v / weight for name, v in mix.items()}
        return out

    def inclusive(self, group: set) -> float:
        """Seconds inside the functions of ``group`` (callees included),
        counted once: only calls arriving from outside the group."""
        total = 0.0
        for func in group:
            entry = self.stats.get(func)
            if entry is None:
                continue
            callers = entry[4]
            if not callers:
                total += entry[3]
                continue
            total += sum(e[3] for c, e in callers.items() if c not in group)
        return total


# -- naming entry points by the objects the public API exports -----------------------


def _codes(obj, seen=None) -> set:
    """Profile keys of a function, method, class or module: every code
    object it defines, nested functions included."""
    seen = set() if seen is None else seen
    out: set = set()
    if isinstance(obj, (classmethod, staticmethod)):
        obj = obj.__func__
    if isinstance(obj, property):
        for f in (obj.fget, obj.fset, obj.fdel):
            if f is not None:
                out |= _codes(f, seen)
        return out
    if inspect.isclass(obj):
        for klass in obj.__mro__:
            if klass is object or id(klass) in seen:
                continue
            seen.add(id(klass))
            for member in vars(klass).values():
                if isinstance(member, (types.FunctionType, classmethod, staticmethod, property)):
                    out |= _codes(member, seen)
        return out
    if inspect.ismodule(obj):
        for member in vars(obj).values():
            if getattr(member, "__module__", None) == obj.__name__ and (
                inspect.isclass(member) or isinstance(member, types.FunctionType)
            ):
                out |= _codes(member, seen)
        return out
    code = getattr(inspect.unwrap(obj), "__code__", None)
    stack = [code] if code is not None else []
    while stack:
        c = stack.pop()
        out.add((c.co_filename, c.co_firstlineno, c.co_name))
        stack.extend(k for k in c.co_consts if isinstance(k, types.CodeType))
    return out


def _methods(cls, *names) -> set:
    out: set = set()
    for name in names:
        member = inspect.getattr_static(cls, name, None)
        if member is not None:
            out |= _codes(member)
    return out


def entry_points() -> dict:
    """``cum.*`` metric name -> the profile keys whose inclusive time it is.

    Classes are named whole (every method: a public ``read`` that only
    spawns a process would otherwise hide the generator that does the
    work); single methods are named where the ISSUE names them."""
    import repro.container.codec as codec
    from repro.collective import CollectiveIO
    from repro.datatype import plan_view_read, plan_view_write, slab_to_view
    from repro.devices import DeviceController
    from repro.fs import (
        DirectHandle, OwnedDirectHandle, ParallelFile, PartitionHandle,
        SequentialHandle, SSHandle, SSSession,
    )
    from repro.ionode import IONode, MediatedVolume
    from repro.qos import QoSManager
    from repro.resilience import ResilientVolume
    from repro.sim import Environment
    from repro.storage import Volume
    from repro.storage.layout import plan_batch

    handles = set()
    for cls in (SequentialHandle, PartitionHandle, SSHandle, SSSession,
                DirectHandle, OwnedDirectHandle):
        handles |= _codes(cls)
    return {
        "cum.sim.run_s": _methods(Environment, "run"),
        "cum.fs.handle_io_s": handles,
        "cum.fs.view_io_s": _methods(
            ParallelFile, "read_view", "write_view", "read_gather", "write_gather"),
        "cum.qos.admit_s": _methods(QoSManager, "admit", "admit_active"),
        "cum.ionode.volume_io_s": _codes(MediatedVolume),
        "cum.ionode.node_submit_s": _methods(IONode, "submit"),
        "cum.resilience.volume_io_s": _codes(ResilientVolume),
        "cum.storage.volume_io_s": _codes(Volume),
        "cum.storage.plan_batch_s": _codes(plan_batch),
        "cum.devices.submit_s": _methods(DeviceController, "read", "write"),
        "cum.datatype.plan_s": (
            _codes(slab_to_view) | _codes(plan_view_read) | _codes(plan_view_write)),
        "cum.collective.io_s": _codes(CollectiveIO),
        "cum.container.codec_s": _codes(codec),
    }


def merged_stats(profiles) -> pstats.Stats:
    """One ``pstats.Stats`` over several ``cProfile.Profile`` objects (the
    main thread's first, then any worker threads')."""
    stats = pstats.Stats(profiles[0])
    for extra in profiles[1:]:
        stats.add(extra)
    return stats


def trace_metrics(stats: pstats.Stats) -> dict:
    """The ``host.*`` and ``cum.*`` per-layer metrics of a traced pass."""
    att = Attribution(stats)
    out = {"host.total_s": att.total_s}
    for name in (*LAYERS, OTHER):
        out[f"host.{name}.self_s"] = att.self_s[name]
        out[f"host.{name}.calls"] = att.calls[name]
    for name, group in entry_points().items():
        out[name] = att.inclusive(group)
    return out
