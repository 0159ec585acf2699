"""Datatype layer: file views, hyperslabs, and request planning.

``views`` describes a request as a pattern (strided, nested-strided,
indexed) whose currency is a list of ``(start, count)`` record runs;
``slab`` compiles multidimensional hyperslab selections into those
patterns; ``planner`` turns a view's runs into an executable access plan
(empty / contiguous / list I/O / sieved: covering-extent reads and
read-modify-write windows) shared by the simulated and live backends.
The executors are :class:`~repro.fs.pfs.ParallelFile` (``set_view`` /
``read_view`` / ``write_view``) and
:class:`~repro.live.backend.LiveParallelFile`. The sieve defaults
``DEFAULT_SIEVE_FACTOR`` / ``DEFAULT_SIEVE_WINDOW`` are re-exported from
:mod:`repro.ionode.aggregator`, where they are defined.
"""

from ..ionode.aggregator import DEFAULT_SIEVE_FACTOR, DEFAULT_SIEVE_WINDOW
from .planner import (
    ViewReadPlan,
    ViewWritePlan,
    check_view_runs,
    plan_view_read,
    plan_view_write,
)
from .slab import (
    slab_indices,
    slab_size,
    slab_to_view,
    validate_slab,
)
from .views import (
    ContiguousView,
    FileView,
    IndexedView,
    NestedStridedView,
    StridedView,
    view_of_map,
)

__all__ = [
    "FileView",
    "ContiguousView",
    "StridedView",
    "NestedStridedView",
    "IndexedView",
    "view_of_map",
    "DEFAULT_SIEVE_FACTOR",
    "DEFAULT_SIEVE_WINDOW",
    "validate_slab",
    "slab_size",
    "slab_to_view",
    "slab_indices",
    "check_view_runs",
    "ViewReadPlan",
    "ViewWritePlan",
    "plan_view_read",
    "plan_view_write",
]
