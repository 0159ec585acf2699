"""The dataset model: named dimensions, typed variables, attributes.

The Parallel netCDF direction (PAPERS.md): applications describe data as
multidimensional typed arrays over *named, shared dimensions* — not byte
ranges — and the schema travels with the file. A
:class:`DatasetSchema` is the pure description half: it validates
itself, canonicalizes to JSON (the payload of the container's
``repro/dataset`` section), and answers shape/dtype questions. The
executable halves live in :mod:`repro.dataset.sim` and
:mod:`repro.dataset.live`.

Dtypes are pinned little-endian on media: a schema round-tripped through
JSON always reports the LE form, so the container's bytes mean the same
thing on any host.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..core.errors import OrganizationError

__all__ = ["Variable", "DatasetSchema", "media_dtype"]

# a variable's container section id is "var/" + name, and section ids are
# capped at 31 content bytes
_MAX_NAME = 31 - len("var/")

#: JSON-representable attribute value types
_ATTR_TYPES = (str, int, float, bool, type(None))


def media_dtype(dtype) -> np.dtype:
    """The on-media (little-endian) form of ``dtype``.

    Single-byte and byte-order-free dtypes keep their ``|`` order; wider
    ones are pinned to ``<`` so the container bytes are host-independent.
    """
    try:
        dt = np.dtype(dtype)
    except TypeError as exc:
        raise OrganizationError(f"invalid dtype {dtype!r}: {exc}") from None
    if dt.itemsize == 0:
        raise OrganizationError(f"dtype {dtype!r} has zero itemsize")
    if dt.hasobject:
        raise OrganizationError(f"dtype {dtype!r} cannot live on media")
    return dt.newbyteorder("<")


def _check_attrs(attrs: Mapping, owner: str) -> dict:
    out = {}
    for k, v in dict(attrs).items():
        if not isinstance(k, str):
            raise OrganizationError(f"{owner}: attribute key {k!r} not a string")
        if not isinstance(v, _ATTR_TYPES):
            raise OrganizationError(
                f"{owner}: attribute {k!r} has unserializable value {v!r}"
            )
        out[k] = v
    return out


@dataclass(frozen=True)
class Variable:
    """A typed array over named dimensions."""

    name: str
    dtype: str
    dims: tuple[str, ...]
    attrs: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.name or "/" in self.name or len(self.name) > _MAX_NAME:
            raise OrganizationError(
                f"variable name {self.name!r} must be 1..{_MAX_NAME} chars "
                "with no '/'"
            )
        dt = media_dtype(self.dtype)
        object.__setattr__(self, "dtype", dt.str)
        object.__setattr__(self, "dims", tuple(str(d) for d in self.dims))
        object.__setattr__(self, "attrs", _check_attrs(self.attrs, self.name))

    @property
    def np_dtype(self) -> np.dtype:
        return np.dtype(self.dtype)

    @property
    def itemsize(self) -> int:
        return self.np_dtype.itemsize


@dataclass(frozen=True)
class DatasetSchema:
    """Named dimensions + typed variables + dataset attributes.

    ``dimensions`` maps name to extent; every variable's ``dims`` must
    name declared dimensions. ``shape(var)`` and ``size(var)`` resolve a
    variable's geometry against the shared dimensions.
    """

    dimensions: dict[str, int]
    variables: dict[str, Variable]
    attrs: dict = field(default_factory=dict)

    def __post_init__(self):
        dims = {}
        for name, extent in dict(self.dimensions).items():
            if not isinstance(name, str) or not name:
                raise OrganizationError(f"dimension name {name!r} invalid")
            extent = int(extent)
            if extent < 0:
                raise OrganizationError(
                    f"dimension {name!r} has negative extent {extent}"
                )
            dims[name] = extent
        object.__setattr__(self, "dimensions", dims)
        variables = {}
        for name, var in dict(self.variables).items():
            if not isinstance(var, Variable):
                raise OrganizationError(f"variable {name!r} is not a Variable")
            if var.name != name:
                raise OrganizationError(
                    f"variable key {name!r} != variable name {var.name!r}"
                )
            for d in var.dims:
                if d not in dims:
                    raise OrganizationError(
                        f"variable {name!r} uses undeclared dimension {d!r}"
                    )
            variables[name] = var
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "attrs", _check_attrs(self.attrs, "dataset"))

    # -- construction ------------------------------------------------------

    @classmethod
    def build(
        cls,
        dimensions: Mapping[str, int],
        variables: Mapping[str, tuple],
        attrs: Mapping | None = None,
    ) -> "DatasetSchema":
        """Terse constructor: ``variables`` maps name to
        ``(dtype, dims)`` or ``(dtype, dims, attrs)``."""
        out = {}
        for name, spec in dict(variables).items():
            dtype, dims, *rest = spec
            out[name] = Variable(
                name, dtype, tuple(dims), dict(rest[0]) if rest else {}
            )
        return cls(dict(dimensions), out, dict(attrs or {}))

    # -- geometry ----------------------------------------------------------

    def variable(self, name: str) -> Variable:
        """The :class:`Variable` named ``name`` (OrganizationError if absent)."""
        try:
            return self.variables[name]
        except KeyError:
            raise OrganizationError(
                f"no variable {name!r}; dataset has {sorted(self.variables)}"
            ) from None

    def shape(self, name: str) -> tuple[int, ...]:
        """A variable's shape, resolved against the shared dimensions."""
        var = self.variable(name)
        return tuple(self.dimensions[d] for d in var.dims)

    def size(self, name: str) -> int:
        """A variable's element count."""
        out = 1
        for e in self.shape(name):
            out *= e
        return out

    def nbytes(self, name: str) -> int:
        """A variable's payload size in bytes."""
        return self.size(name) * self.variable(name).itemsize

    # -- canonical JSON ----------------------------------------------------

    def to_json(self) -> str:
        """Canonical (sorted, separator-free) JSON — the media form."""
        doc = {
            "dimensions": self.dimensions,
            "variables": {
                name: {
                    "dtype": v.dtype,
                    "dims": list(v.dims),
                    "attrs": v.attrs,
                }
                for name, v in self.variables.items()
            },
            "attrs": self.attrs,
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, raw: str | bytes) -> "DatasetSchema":
        try:
            if isinstance(raw, (bytes, bytearray)):
                raw = bytes(raw).decode("utf-8")
            doc = json.loads(raw)
        except ValueError as exc:  # UnicodeDecodeError is one too
            raise OrganizationError(f"unparseable dataset schema: {exc}") from None
        if not isinstance(doc, dict):
            raise OrganizationError("dataset schema must be a JSON object")
        try:
            variables = {
                name: Variable(
                    name,
                    spec["dtype"],
                    tuple(spec["dims"]),
                    dict(spec.get("attrs", {})),
                )
                for name, spec in dict(doc.get("variables", {})).items()
            }
            return cls(
                dict(doc.get("dimensions", {})),
                variables,
                dict(doc.get("attrs", {})),
            )
        except (KeyError, TypeError, AttributeError, ValueError, OverflowError) as exc:
            raise OrganizationError(
                f"malformed dataset schema: {exc!r}"
            ) from None
