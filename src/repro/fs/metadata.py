"""File attributes: the catalog's description of a parallel file.

§2 requires that standard parallel files "appear conventional to the
system, or at least have transparent mechanisms to transform them into a
conventional appearance". The attribute record is that mechanism's data:
it captures everything (organization, record/block shape, layout family
and parameters) needed to present either view of the file, and round-trips
through a plain dict so a real system could persist it in a directory
entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

from ..core.blocks import BlockSpec
from ..core.mapping import OrganizationMap, make_map
from ..core.organizations import FileCategory, FileOrganization
from ..core.records import RecordSpec

__all__ = ["FileAttributes"]


def _plain(value: Any) -> Any:
    """JSON-safe deep copy: numpy scalars to Python scalars, arrays and
    tuples to lists, dict keys to str.

    Layout and organization parameters arrive from callers that computed
    them with numpy (``stripe_unit=arr.shape[0]`` gives ``np.int64``),
    and ``json.dumps`` refuses numpy scalars — so persistence must
    canonicalize, not just copy. Tuples become lists *here*, on the way
    out, so ``to_dict -> json -> from_dict`` is a true fixed point
    rather than changing types on the first round trip.
    """
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if hasattr(value, "tolist"):  # numpy scalar or array
        return _plain(value.tolist())
    return value


@dataclass
class FileAttributes:
    """Everything the file system remembers about one parallel file."""

    name: str
    organization: FileOrganization
    category: FileCategory
    record_size: int
    records_per_block: int
    n_records: int
    n_processes: int
    layout: str                      # 'striped' | 'interleaved' | 'clustered'
    layout_params: dict[str, Any] = field(default_factory=dict)
    org_params: dict[str, Any] = field(default_factory=dict)
    dtype: str = "uint8"

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("file name must be non-empty")
        if self.n_records < 0:
            raise ValueError("n_records must be >= 0")
        if self.n_processes < 1:
            raise ValueError("n_processes must be >= 1")

    @classmethod
    def new(
        cls,
        name: str,
        organization: FileOrganization | str,
        *,
        category: FileCategory | None = None,
        layout: str | None = None,
        org_params: dict[str, Any] | None = None,
        **shape: Any,
    ) -> "FileAttributes":
        """Attributes of a file being created; ``organization`` may be a
        code such as ``"PS"``. ``layout`` defaults to the organization's §4
        strategy and ``category`` to §2's rule: files meant for outside
        consumption (the sequential organizations) are standard, the
        direct-access scratch organizations specialized."""
        if isinstance(organization, str):
            organization = FileOrganization[organization.upper()]
        if category is None:
            category = (
                FileCategory.STANDARD
                if organization.is_sequential
                else FileCategory.SPECIALIZED
            )
        return cls(
            name=name, organization=organization, category=category,
            layout=layout or organization.default_layout,
            org_params=dict(org_params or {}), **shape,
        )

    def org_map(self, n_processes: int | None = None) -> OrganizationMap:
        """The organization map over ``n_processes`` processes (default:
        the recorded count)."""
        p = self.n_processes if n_processes is None else n_processes
        return make_map(
            self.organization, self.block_spec, self.n_records, p, **self.org_params
        )

    # Built on first use and kept: nothing reassigns ``record_size``,
    # ``dtype`` or ``records_per_block`` after creation, and neither spec
    # depends on ``n_records`` (which the metastore does update).
    @cached_property
    def record_spec(self) -> RecordSpec:
        return RecordSpec(self.record_size, self.dtype)

    @cached_property
    def block_spec(self) -> BlockSpec:
        return BlockSpec(self.record_spec, self.records_per_block)

    @property
    def file_bytes(self) -> int:
        return self.n_records * self.record_size

    @property
    def n_blocks(self) -> int:
        return self.block_spec.n_blocks(self.n_records)

    # -- persistence ------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (JSON-serializable) for catalog persistence."""
        return {
            "name": str(self.name),
            "organization": self.organization.value,
            "category": self.category.value,
            "record_size": _plain(self.record_size),
            "records_per_block": _plain(self.records_per_block),
            "n_records": _plain(self.n_records),
            "n_processes": _plain(self.n_processes),
            "layout": str(self.layout),
            "layout_params": _plain(self.layout_params),
            "org_params": _plain(self.org_params),
            "dtype": str(self.dtype),
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "FileAttributes":
        d = dict(d)
        d["organization"] = FileOrganization(d["organization"])
        d["category"] = FileCategory(d["category"])
        return cls(**d)
