"""Records: the unit of program access.

§3 of the paper fixes the terminology this library uses throughout:

    "A *record* is the unit of access used by a program when it issues
    read or write requests. Each record contains one or more data items.
    In order to avoid complications, every record is assumed to be of the
    same size."

:class:`RecordSpec` captures that fixed size and provides the codec between
application values (numpy rows, Python bytes) and the flat byte stream a
file stores.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import RecordRangeError

__all__ = ["RecordSpec"]


@dataclass(frozen=True)
class RecordSpec:
    """Fixed-size record format.

    ``record_size`` is in bytes. An optional numpy ``dtype`` string lets
    applications move typed rows in and out without hand-packing; when set,
    ``record_size`` must be a multiple of the dtype's item size.
    """

    record_size: int
    dtype: str = "uint8"
    #: number of dtype items in one record (derived once, at construction)
    items_per_record: int = field(init=False, repr=False, compare=False)
    _np_dtype: np.dtype = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.record_size <= 0:
            raise ValueError("record_size must be positive")
        np_dtype = np.dtype(self.dtype)
        if self.record_size % np_dtype.itemsize != 0:
            raise ValueError(
                f"record_size {self.record_size} is not a multiple of "
                f"dtype {self.dtype!r} item size {np_dtype.itemsize}"
            )
        object.__setattr__(self, "_np_dtype", np_dtype)
        object.__setattr__(self, "items_per_record", self.record_size // np_dtype.itemsize)

    # -- codec -------------------------------------------------------------

    def encode(self, values: np.ndarray | bytes) -> np.ndarray:
        """Pack an ``(n, items_per_record)`` array into flat uint8 bytes
        (raw ``bytes`` pass through as whole records, as in :meth:`decode`)."""
        if isinstance(values, (bytes, bytearray)):
            if len(values) % self.record_size != 0:
                raise ValueError(
                    f"{len(values)} bytes is not a whole number of "
                    f"{self.record_size}-byte records"
                )
            return np.frombuffer(values, dtype=np.uint8)
        arr = np.ascontiguousarray(values, dtype=self._np_dtype)
        received = arr.shape
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2 or arr.shape[1] != self.items_per_record:
            raise ValueError(
                f"expected shape (n, {self.items_per_record}), got {received}"
            )
        return arr.view(np.uint8).reshape(-1)

    def decode(self, raw: np.ndarray | bytes) -> np.ndarray:
        """Unpack flat bytes into an ``(n, items_per_record)`` array."""
        buf = np.frombuffer(raw, dtype=np.uint8) if isinstance(raw, (bytes, bytearray)) else np.asarray(raw, dtype=np.uint8)
        if buf.size % self.record_size != 0:
            raise ValueError(
                f"{buf.size} bytes is not a whole number of "
                f"{self.record_size}-byte records"
            )
        n = buf.size // self.record_size
        return buf.reshape(n, self.record_size).view(self._np_dtype).reshape(
            n, self.items_per_record
        ).copy()

    # -- geometry ----------------------------------------------------------

    def byte_range(self, record: int, n_records: int | None = None) -> tuple[int, int]:
        """Byte ``(offset, length)`` of one record within the flat stream.

        If ``n_records`` is given, the index is bounds-checked against it.
        """
        if record < 0 or (n_records is not None and record >= n_records):
            raise RecordRangeError(f"record {record} outside file of {n_records}")
        return record * self.record_size, self.record_size

    def span(self, first: int, count: int) -> tuple[int, int]:
        """Byte ``(offset, length)`` of ``count`` consecutive records."""
        if first < 0 or count < 0:
            raise RecordRangeError(f"invalid span ({first}, {count})")
        return first * self.record_size, count * self.record_size
