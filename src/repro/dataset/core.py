"""The backend-independent half of the dataset layer.

A dataset is a PR 7 container whose sections are:

* ``repro/attrs`` — the reserved self-description (written by the
  container machinery);
* ``repro/dataset`` — a block section holding the canonical schema JSON
  (:meth:`~repro.dataset.model.DatasetSchema.to_json`);
* one ``var/<name>`` array section per variable, ``count`` elements of
  ``elem_size = dtype.itemsize`` bytes, row-major, little-endian.

:func:`dataset_decls` derives the section declarations, so layout
planning (and therefore every byte offset) is a pure function of the
schema — identical for the simulated and live backends. ``DatasetBase``
holds the arithmetic both backends share: slab validation, slab → byte
view compilation (through :func:`~repro.datatype.slab.slab_to_view` with
``base`` the variable's payload offset and ``scale`` its itemsize), and
the typed encode/decode between user arrays and the container's 1-byte
records.

It also holds the dataset bodies that move no bytes themselves: the
open-time section checks, dirty bookkeeping and the sans-I/O ``sync``
plan both backends run.

``content_fingerprint`` is the cross-backend identity check: sha256 of
the container bytes with the self-description section masked. The attrs
payload legitimately differs between backends (``layout: "host"`` vs a
striped layout) while every data byte must not.
"""

from __future__ import annotations

import hashlib
import threading

import numpy as np

from ..container.codec import (
    ATTRS_PAYLOAD_BYTES,
    FILE_HEADER_BYTES,
    SECTION_HEADER_BYTES,
    SectionDecl,
    array_section,
    block_section,
    encode_section_header,
    read_section,
    section_crc,
)
from ..core.errors import OrganizationError
from ..datatype.slab import slab_size, slab_to_view, validate_slab
from .model import DatasetSchema

__all__ = [
    "DATASET_SECTION_ID",
    "VAR_PREFIX",
    "var_section_id",
    "dataset_decls",
    "DatasetBase",
    "initial_payloads",
    "schema_plan",
    "content_fingerprint",
]

#: block section holding the canonical schema JSON
DATASET_SECTION_ID = "repro/dataset"
#: every variable's array section is VAR_PREFIX + variable name
VAR_PREFIX = "var/"


def var_section_id(name: str) -> str:
    """The container section id for variable ``name``."""
    return VAR_PREFIX + name


def dataset_decls(schema: DatasetSchema) -> list[SectionDecl]:
    """The user-section declarations of a dataset container (the writer
    prepends the reserved self-description itself)."""
    decls = [
        block_section(DATASET_SECTION_ID, len(schema.to_json().encode("utf-8")))
    ]
    for name, var in schema.variables.items():
        decls.append(
            array_section(var_section_id(name), schema.size(name), var.itemsize)
        )
    return decls


def initial_payloads(schema: DatasetSchema, data) -> dict[str, bytes]:
    """Media bytes of the variables ``data`` gives initial contents for
    (the rest start zero-filled); rejects names the schema lacks."""
    data = dict(data or {})
    unknown = set(data) - set(schema.variables)
    if unknown:
        raise OrganizationError(
            f"initial data for unknown variables {sorted(unknown)}"
        )
    return {
        name: np.ascontiguousarray(
            np.asarray(values).reshape(schema.shape(name)),
            dtype=schema.variables[name].np_dtype,
        ).tobytes()
        for name, values in data.items()
    }


def schema_plan(toc: dict, crcs: dict, name: str):
    """Generator plan: the checksum-verified schema of an opened
    container (see :func:`~repro.container.codec.read_section`); raises
    :class:`OrganizationError` if the container is not a dataset."""
    if DATASET_SECTION_ID not in toc:
        raise OrganizationError(
            f"container {name!r} has no {DATASET_SECTION_ID!r} section "
            "— not a dataset"
        )
    raw = yield from read_section(toc[DATASET_SECTION_ID], crcs[DATASET_SECTION_ID])
    return DatasetSchema.from_json(raw)


def content_fingerprint(buf: bytes | bytearray | np.ndarray) -> str:
    """sha256 of container bytes with the self-description masked.

    Masks ``[128, 704)`` — the reserved attrs section's 64-byte header
    plus its fixed 512-byte payload (the pad after it is deterministic
    and identical everywhere). Two datasets with equal fingerprints hold
    identical schema and data bytes regardless of which backend (or how
    many writers) produced them.
    """
    arr = bytearray(
        buf.tobytes() if isinstance(buf, np.ndarray) else bytes(buf)
    )
    lo = FILE_HEADER_BYTES
    hi = min(len(arr), lo + SECTION_HEADER_BYTES + ATTRS_PAYLOAD_BYTES)
    arr[lo:hi] = b"\0" * (hi - lo)
    return hashlib.sha256(bytes(arr)).hexdigest()


class DatasetBase:
    """One dataset body for both backends; subclasses add the byte
    movement (``read_slab``/``write_slab`` and the collective calls).

    ``toc`` maps section ids to
    :class:`~repro.container.codec.SectionExtent`, ``crcs`` to their
    stored checksums. Every variable's section is checked against the
    schema on construction.
    """

    def __init__(self, file, schema: DatasetSchema, toc: dict, crcs: dict):
        self.file = file
        self.schema = schema
        self.toc = toc
        self.crcs = crcs
        self._dirty: set[str] = set()
        self._dirty_lock = threading.Lock()
        for name in schema.variables:
            self._check_var_section(name)

    # -- introspection -----------------------------------------------------

    @property
    def variable_names(self) -> list[str]:
        return list(self.schema.variables)

    def describe(self) -> dict:
        """The dataset at a glance (the server's ``describe`` payload)."""
        return {
            "dimensions": dict(self.schema.dimensions),
            "variables": {
                name: {
                    "dtype": v.dtype,
                    "dims": list(v.dims),
                    "shape": list(self.schema.shape(name)),
                    "attrs": dict(v.attrs),
                }
                for name, v in self.schema.variables.items()
            },
            "attrs": dict(self.schema.attrs),
        }

    # -- slab arithmetic ---------------------------------------------------

    def _var_extent(self, name: str):
        sid = var_section_id(self.schema.variable(name).name)
        try:
            return self.toc[sid]
        except KeyError:
            raise OrganizationError(
                f"container is missing section {sid!r} for variable {name!r}"
            ) from None

    def _check_var_section(self, name: str) -> None:
        ext = self._var_extent(name)  # raises if the section is missing
        var = self.schema.variable(name)
        if ext.decl.count != self.schema.size(name) or (
            ext.decl.elem_size != var.itemsize
        ):
            raise OrganizationError(
                f"variable {name!r}: schema declares "
                f"{self.schema.size(name)} x {var.itemsize} bytes, section "
                f"holds {ext.decl.count} x {ext.decl.elem_size}"
            )

    def _slab(self, name: str, start, count):
        """``(byte_view, slab_shape, np_dtype)`` of a hyperslab.

        The view addresses the container's 1-byte records: element ``e``
        of the variable occupies ``itemsize`` records starting at
        ``payload_off + e * itemsize``.
        """
        var = self.schema.variable(name)
        shape = self.schema.shape(name)
        start, count = validate_slab(shape, start, count)
        ext = self._var_extent(name)
        view = slab_to_view(
            shape, start, count, base=ext.payload_off, scale=var.itemsize
        )
        return view, count, var.np_dtype

    def _slab_byte_indices(self, name: str, start, count) -> np.ndarray:
        """Absolute byte (1-byte-record) indices of a hyperslab, in slab
        order — the collective paths' explicit ``indices=`` form."""
        from ..datatype.slab import slab_indices

        var = self.schema.variable(name)
        shape = self.schema.shape(name)
        ext = self._var_extent(name)
        elems = slab_indices(shape, start, count)
        if not elems.size:
            return elems
        byte0 = ext.payload_off + elems * var.itemsize
        return (byte0[:, None] + np.arange(var.itemsize, dtype=np.int64)).reshape(-1)

    # -- typed payload codec -----------------------------------------------

    def _encode_slab(self, name: str, count, values) -> np.ndarray:
        """User array → ``(nbytes, 1)`` uint8 record rows, media order."""
        var = self.schema.variable(name)
        arr = np.asarray(values)
        n = slab_size(count)
        if arr.size != n:
            raise OrganizationError(
                f"slab selects {n} elements of {name!r}, values hold {arr.size}"
            )
        arr = np.ascontiguousarray(arr.reshape(tuple(count)), dtype=var.np_dtype)
        return np.frombuffer(arr.tobytes(), dtype=np.uint8).reshape(-1, 1)

    def _decode_slab(self, name: str, count, rows: np.ndarray) -> np.ndarray:
        """``(nbytes, 1)`` uint8 record rows → typed array of slab shape."""
        var = self.schema.variable(name)
        raw = np.ascontiguousarray(rows, dtype=np.uint8).tobytes()
        return np.frombuffer(raw, dtype=var.np_dtype).reshape(tuple(count)).copy()

    def _empty_slab(self, name: str, count) -> np.ndarray:
        var = self.schema.variable(name)
        return np.empty(tuple(count), dtype=var.np_dtype)

    # -- whole variables ---------------------------------------------------

    def read_variable(self, name: str, *, sieve: bool = False):
        """The whole variable, a full-extent :meth:`read_slab` (a generator
        on the simulated backend)."""
        shape = self.schema.shape(name)
        return self.read_slab(name, (0,) * len(shape), shape, sieve=sieve)

    # -- checksum maintenance ----------------------------------------------

    @property
    def dirty(self) -> list[str]:
        """Variables written since the last :meth:`sync` (their section
        checksums on media are stale until then)."""
        with self._dirty_lock:
            return sorted(self._dirty)

    def _mark_dirty(self, *names: str) -> None:
        with self._dirty_lock:
            self._dirty.update(names)

    def _sync_plan(self):
        """Generator plan behind ``sync``: re-read each dirty variable's
        payload and rewrite its section header with a fresh crc; returns
        the names synced. The dirty set is taken before any I/O, so a write
        landing meanwhile marks its variable again, and so does a failure
        before a variable's header was rewritten."""
        with self._dirty_lock:
            names = sorted(self._dirty)
            self._dirty.clear()
        done = 0
        try:
            for name in names:
                ext = self._var_extent(name)
                payload = (
                    (yield "read", ext.payload_off, ext.payload_len)
                    if ext.payload_len
                    else b""
                )
                crc = section_crc(payload, ext.decl.count, ext.decl.elem_size)
                yield "write", ext.header_off, encode_section_header(ext.decl, crc)
                self.crcs[ext.decl.section_id] = crc
                done += 1
        finally:
            self._mark_dirty(*names[done:])
        return names
