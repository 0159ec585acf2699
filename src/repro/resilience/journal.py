"""Write journal for degraded-mode writes to a failed device.

While a device is down, writes addressed to it cannot land on media.
Instead of failing the client (the pre-resilience behaviour) or silently
dropping the bytes, the journal records each write — device index,
absolute device offset, payload — so that:

* degraded *reads* overlay journal entries on top of reconstructed data
  (read-your-writes while degraded), and
* the hot-spare rebuild replays the journal onto the spare before the
  swap, making the rebuilt device byte-identical to the logical state.

Replay is idempotent: entries carry absolute offsets and full payloads,
so applying an entry twice (e.g. once folded into a rebuild chunk and
once in the final drain) writes the same bytes to the same place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["JournalEntry", "WriteJournal"]


@dataclass(frozen=True)
class JournalEntry:
    """One journaled write: ``data`` at absolute ``offset`` on ``device``.

    ``covered`` says whether the group's check data already holds it (a
    row or read-modify-write whose parity landed), or still matches the
    dead drive's media there.
    """

    device: int
    offset: int
    data: np.ndarray
    time: float
    covered: bool = False

    @property
    def end(self) -> int:
        return self.offset + len(self.data)


class WriteJournal:
    """Per-device ordered log of writes made while the device was down."""

    def __init__(self):
        self._entries: dict[int, list[JournalEntry]] = {}
        self.recorded = 0
        self.replayed = 0

    def record(
        self, device: int, offset: int, data: np.ndarray, time: float, covered: bool = False
    ) -> JournalEntry:
        """Append one write (payload copied — callers may reuse buffers)."""
        entry = JournalEntry(
            device, offset, np.array(data, dtype=np.uint8, copy=True), time, covered
        )
        self._entries.setdefault(device, []).append(entry)
        self.recorded += 1
        return entry

    def pending(self, device: int) -> int:
        """Entries recorded for ``device`` and not yet cleared."""
        return len(self._entries.get(device, ()))

    @property
    def total_pending(self) -> int:
        return sum(len(v) for v in self._entries.values())

    def entries_for(self, device: int) -> list[JournalEntry]:
        """Snapshot of the device's entries in record order."""
        return list(self._entries.get(device, ()))

    def clear(self, device: int) -> int:
        """Drop the device's entries (after a completed rebuild + replay)."""
        dropped = self.pending(device)
        self._entries.pop(device, None)
        return dropped

    def note_replayed(self, count: int) -> None:
        """Record that ``count`` entries were replayed onto a spare."""
        self.replayed += count

    def overlay(self, device: int, offset: int, nbytes: int, out: np.ndarray) -> int:
        """Apply overlapping entries (oldest first) onto ``out``.

        ``out`` holds the bytes of ``[offset, offset+nbytes)``; returns
        the number of entries that touched the range.
        """
        applied = 0
        for e in self._entries.get(device, ()):
            lo = max(offset, e.offset)
            hi = min(offset + nbytes, e.end)
            if lo < hi:
                out[lo - offset : hi - offset] = e.data[lo - e.offset : hi - e.offset]
                applied += 1
        return applied
