"""Blocks: logical data partitions.

§3 of the paper:

    "Files contain one or more data partitions called *blocks*. Blocks as
    defined here are logical groupings of contiguous data rather than
    physical partitions on a hardware device. Each block is composed of
    one or more records. ... Blocks will ordinarily be equal in size as
    well, except that there may be short blocks at the end of a file."

:class:`BlockSpec` is the pure arithmetic of that model: record <-> block
coordinates, block sizes including the short final block, and byte spans.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import RecordRangeError
from .records import RecordSpec

__all__ = ["BlockSpec"]


@dataclass(frozen=True)
class BlockSpec:
    """Blocking of a file: ``records_per_block`` records per full block."""

    record: RecordSpec
    records_per_block: int

    def __post_init__(self) -> None:
        if self.records_per_block <= 0:
            raise ValueError("records_per_block must be positive")

    @property
    def block_bytes(self) -> int:
        """Bytes in a full block."""
        return self.records_per_block * self.record.record_size

    # -- counting -----------------------------------------------------------

    def n_blocks(self, n_records: int) -> int:
        """Number of blocks (including a short final block) in a file."""
        if n_records < 0:
            raise ValueError("n_records must be >= 0")
        return -(-n_records // self.records_per_block)

    def block_records(self, block: int, n_records: int) -> int:
        """Records in ``block`` — ``records_per_block`` except possibly last."""
        nb = self.n_blocks(n_records)
        if not 0 <= block < max(nb, 1):
            raise RecordRangeError(f"block {block} outside file of {nb} blocks")
        if n_records == 0:
            return 0
        if block < nb - 1:
            return self.records_per_block
        return n_records - block * self.records_per_block

    def is_short(self, block: int, n_records: int) -> bool:
        """True if ``block`` is a short final block."""
        return self.block_records(block, n_records) < self.records_per_block

    # -- coordinates ----------------------------------------------------------

    def block_of(self, record: int) -> int:
        """Block containing global ``record``."""
        if record < 0:
            raise RecordRangeError(f"negative record {record}")
        return record // self.records_per_block

    def slot_of(self, record: int) -> int:
        """Position of ``record`` within its block."""
        if record < 0:
            raise RecordRangeError(f"negative record {record}")
        return record % self.records_per_block

    def record_at(self, block: int, slot: int) -> int:
        """Global record index of ``(block, slot)``."""
        if block < 0 or slot < 0 or slot >= self.records_per_block:
            raise RecordRangeError(f"invalid coordinates ({block}, {slot})")
        return block * self.records_per_block + slot

    def pieces(self, start: int, count: int):
        """``(block, lo, hi)`` for each block the records ``[start, start +
        count)`` touch, ``[lo, hi)`` being the slots inside it."""
        rpb = self.records_per_block
        end = start + count
        for block in range(start // rpb, -(-end // rpb)):
            first = block * rpb
            yield block, max(start - first, 0), min(end - first, rpb)

    def first_record(self, block: int) -> int:
        """Global index of the first record in ``block``."""
        if block < 0:
            raise RecordRangeError(f"negative block {block}")
        return block * self.records_per_block

    # -- bytes ------------------------------------------------------------------

    def block_byte_range(self, block: int, n_records: int) -> tuple[int, int]:
        """Byte ``(offset, length)`` of ``block`` within the flat stream."""
        count = self.block_records(block, n_records)
        return (
            block * self.block_bytes,
            count * self.record.record_size,
        )
