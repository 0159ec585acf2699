"""The standard parallel file organizations (§3 of the paper).

Two families:

* **Sequential parallel files** (§3.1) — the global view is a standard
  sequential file; the internal view is one of:

  - ``S``  (Type S,  Fig. 1a): sequential — one process accesses the whole
    file in order (that process typically partitions on the fly).
  - ``PS`` (Type PS, Fig. 1b): partitioned sequential — contiguous blocks,
    one partition per process, each process does its own I/O.
  - ``IS`` (Type IS, Fig. 1c): interleaved sequential — processes use
    non-contiguous blocks separated by a constant stride (typically the
    number of processes); "wrapped" storage of a matrix.
  - ``SS`` (Type SS, Fig. 1d): self-scheduled sequential — every I/O
    request (from whatever process) gets the next record, so access order
    is determined by request order; a queue with multiple servers.

* **Direct access parallel files** (§3.2):

  - ``GDA``: global direct access — any process may access any record in
    any order (databases; direct-access S/SS).
  - ``PDA``: partitioned direct access — blocks assigned to processes;
    random access within owned blocks (out-of-core "pages of virtual
    memory"); also subsumes direct-access PS/IS.

The module also carries the §2 taxonomy: :class:`FileCategory` records
whether a file is *standard* (must present a conventional global view to
sequential software) or *specialized* (private to one parallel program).
"""

from __future__ import annotations

import enum

__all__ = ["FileOrganization", "FileCategory"]


class FileCategory(enum.Enum):
    """Lifespan/usage category of a parallel file (§2)."""

    #: Outlives the program; global view must look like a conventional file
    #: (input files, final results, databases).
    STANDARD = "standard"
    #: Used only by one parallel program or a coordinated set; no meaningful
    #: global view is required (temporaries, checkpoints, out-of-core).
    SPECIALIZED = "specialized"


class FileOrganization(enum.Enum):
    """The six organizations proposed by the paper."""

    S = "S"
    PS = "PS"
    IS = "IS"
    SS = "SS"
    GDA = "GDA"
    PDA = "PDA"

    @property
    def is_sequential(self) -> bool:
        """Sequential family (§3.1): global view is a sequential file."""
        return self in (FileOrganization.S, FileOrganization.PS,
                        FileOrganization.IS, FileOrganization.SS)

    @property
    def is_direct(self) -> bool:
        """Direct-access family (§3.2)."""
        return self in (FileOrganization.GDA, FileOrganization.PDA)

    @property
    def is_partitioned(self) -> bool:
        """Static block-to-process ownership exists (PS, IS, PDA)."""
        return self in (FileOrganization.PS, FileOrganization.IS,
                        FileOrganization.PDA)

    @property
    def default_layout(self) -> str:
        """The implementation §4 suggests for this organization.

        S and SS stripe the byte stream; PS clusters each partition on a
        device; IS interleaves blocks across devices; the direct-access
        organizations decluster (stripe) following Livny et al. [2] and
        Kim [3].
        """
        return {
            FileOrganization.S: "striped",
            FileOrganization.SS: "striped",
            FileOrganization.PS: "clustered",
            FileOrganization.IS: "interleaved",
            FileOrganization.GDA: "striped",
            FileOrganization.PDA: "interleaved",
        }[self]

    def __str__(self) -> str:
        return self.value
