"""Runtime conflict detection and invariant sanitizing.

Two complementary oracles for the §5 problem areas:

* :class:`AccessConflictDetector` — watches parallel-file accesses for
  write/write and read/write overlaps, partition-boundary violations,
  and internal-view mismatches (attach via
  ``ParallelFileSystem(..., sanitizer=...)``).
* :class:`EngineSanitizer` — checks substrate invariants (resource
  grants, store wakeups, buffer-pool balance, event lifecycle)
  (attach via :func:`attach` or ``Environment(strict=True)``).
"""

from .access import AccessConflictDetector, AccessRecord, Finding
from .engine_hooks import EngineSanitizer, SanitizerError, Violation, attach

__all__ = [
    "AccessConflictDetector",
    "AccessRecord",
    "Finding",
    "EngineSanitizer",
    "SanitizerError",
    "Violation",
    "attach",
]
