"""Live backend: parallel files on the host file system, with real threads.

The simulator (`repro.fs`) measures *performance* in simulated time; this
backend demonstrates *functional* fidelity: the same organization maps
(`repro.core.mapping`) interpreted over real files with concurrently
running threads. Python's GIL means wall-clock speedups are not claimed
here (see DESIGN.md §2) — correctness under concurrency is.

Each parallel file is one host file (preallocated to its full size) plus a
JSON metadata sidecar, so files genuinely persist across program runs and
the "global view" of any sequential organization is — exactly as §2
requires — a plain flat file any conventional tool can read.

Positioned I/O uses ``os.pread``/``os.preadv``/``os.pwrite``, which are
thread-safe without shared seek pointers.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path

import numpy as np

from ..core.errors import OrganizationError
from ..core.handles import RecordFile
from ..core.mapping import OrganizationMap
from ..core.organizations import FileCategory, FileOrganization
from ..fs.metadata import FileAttributes
from ..ionode.aggregator import DEFAULT_SIEVE_FACTOR, DEFAULT_SIEVE_WINDOW
from .handles import HANDLE_KINDS, LiveGlobalView, LiveSSSession

__all__ = ["LiveParallelFileSystem", "LiveParallelFile"]

_META_SUFFIX = ".pmeta.json"


class LiveParallelFile(RecordFile):
    """An open parallel file backed by a host file."""

    handle_kinds = HANDLE_KINDS

    def __init__(self, attrs: FileAttributes, org_map: OrganizationMap, path: Path):
        # The fd is acquired *last*, after every validation that can
        # raise, so a failed constructor never leaks a descriptor.
        self._fd = None
        self.attrs = attrs
        self.map = org_map
        self.path = path
        self._sieve_lock = threading.Lock()
        if org_map.n_records != attrs.n_records:
            raise OrganizationError(
                f"organization map covers {org_map.n_records} records; "
                f"attributes declare {attrs.n_records}"
            )
        try:
            size = os.stat(path).st_size
        except OSError as exc:
            raise OrganizationError(
                f"data file {path} unreadable: {exc}"
            ) from exc
        if size < attrs.file_bytes:
            raise OrganizationError(
                f"data file {path} holds {size} bytes; attributes declare "
                f"{attrs.file_bytes}"
            )
        self._fd = os.open(path, os.O_RDWR)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release the OS file descriptor (idempotent)."""
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "LiveParallelFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def fd(self) -> int:
        if self._fd is None:
            raise ValueError(f"file {self.attrs.name!r} is closed")
        return self._fd

    # -- views ----------------------------------------------------------------

    def global_view(self) -> LiveGlobalView:
        """The conventional (§2 global) view of the file."""
        return LiveGlobalView(self)

    def ss_session(self) -> LiveSSSession:
        """A shared self-scheduling session for this SS file."""
        return LiveSSSession(self)

    # -- positioned record I/O -------------------------------------------------

    def read_records(self, start: int, count: int) -> np.ndarray:
        """``count`` decoded records at ``start`` (thread-safe pread)."""
        self._check_span(start, count)
        spec = self.attrs.record_spec
        offset, nbytes = spec.span(start, count)
        raw = os.pread(self.fd, nbytes, offset)
        if len(raw) != nbytes:
            raise IOError(
                f"short read: wanted {nbytes} bytes at {offset}, got {len(raw)}"
            )
        return spec.decode(raw)

    def write_records(self, start: int, values: np.ndarray) -> int:
        """Write records at ``start`` (thread-safe pwrite); record count."""
        spec = self.attrs.record_spec
        raw = spec.encode(values)
        count = raw.size // spec.record_size
        self._check_span(start, count)
        written = os.pwrite(self.fd, raw.tobytes(), start * spec.record_size)
        if written != raw.size:
            raise IOError(f"short write: {written} of {raw.size} bytes")
        return count

    # -- file views (shared planner with the simulator) ------------------------

    def read_view(
        self,
        view,
        *,
        sieve: bool = False,
        sieve_factor: float = DEFAULT_SIEVE_FACTOR,
        sieve_window: int = DEFAULT_SIEVE_WINDOW,
    ) -> np.ndarray:
        """Read the records a view selects; decoded rows in view order.

        The access plan — list I/O vs covering-extent sieving — comes
        from the same :mod:`repro.datatype.planner` the simulator's
        :meth:`~repro.fs.pfs.ParallelFile.read_view` consumes; only the
        byte movement differs (one ``os.preadv`` per run into one buffer
        here, device processes there).
        """
        from ..datatype.planner import prepare_view_read, sieved_read

        plan = prepare_view_read(
            view, self.n_records, self.attrs.record_spec.record_size,
            sieve=sieve, sieve_factor=sieve_factor, sieve_window=sieve_window,
        )
        if plan.mode == "sieved":
            return self.run_plan(sieved_read(plan))
        # list I/O: each run lands in its slice of one buffer, decoded once
        spec = self.attrs.record_spec
        size = spec.record_size
        buf = bytearray(plan.n_view_records * size)
        dest = memoryview(buf)
        fd, pos = self.fd, 0
        for start, count in plan.runs:
            offset, nbytes = start * size, count * size
            got = os.preadv(fd, [dest[pos : pos + nbytes]], offset)
            if got != nbytes:
                raise IOError(
                    f"short read: wanted {nbytes} bytes at {offset}, got {got}"
                )
            pos += nbytes
        return spec.decode(buf)

    def write_view(
        self,
        values: np.ndarray,
        view,
        *,
        sieve: bool = False,
        sieve_factor: float = DEFAULT_SIEVE_FACTOR,
        sieve_window: int = DEFAULT_SIEVE_WINDOW,
    ) -> int:
        """Write ``values`` (rows in view order) to the view's records;
        sieved RMW windows serialize on the sieve lock (:meth:`run_plan`)."""
        from ..datatype.planner import prepare_view_write, sieved_write

        plan, decoded = prepare_view_write(
            view, self.n_records, self.attrs.record_spec, values,
            sieve=sieve, sieve_factor=sieve_factor, sieve_window=sieve_window,
        )
        if plan.mode == "sieved":
            return self.run_plan(sieved_write(plan, decoded))
        # list I/O: each run is written from its slice of the rows' bytes
        size = self.attrs.record_spec.record_size
        src = memoryview(decoded.reshape(-1).view(np.uint8))
        fd, pos = self.fd, 0
        for start, count in plan.runs:
            nbytes = count * size
            written = os.pwrite(fd, src[pos : pos + nbytes], start * size)
            if written != nbytes:
                raise IOError(f"short write: {written} of {nbytes} bytes")
            pos += nbytes
        return plan.n_view_records

    # -- the plan driver --------------------------------------------------------

    def run_plan(self, plan):
        """Carry out a sans-I/O plan with plain calls; returns its value.

        The live twin of :meth:`repro.fs.pfs.ParallelFile.run_plan`. An
        ``rmw`` holds this open file's sieve lock, so threads sharing it
        never tear each other's hole bytes (separate opens of one host file
        are separate lock domains, like separate client processes).
        """
        reply = None
        try:
            while True:
                match plan.send(reply):
                    case ("read", start, count):
                        reply = self.read_records(start, count)
                    case ("gather", runs):
                        reply = np.concatenate([self.read_records(*r) for r in runs])
                    case ("write", start, rows):
                        reply = self.write_records(start, rows)
                    case ("rmw", start, count, patch):
                        with self._sieve_lock:
                            buf = self.read_records(start, count)
                            reply = self.write_records(start, patch(buf))
                    case intent:
                        raise ValueError(f"unknown plan intent {intent!r}")
        except StopIteration as done:
            return done.value
        finally:
            plan.close()


class LiveParallelFileSystem:
    """Create/open/delete parallel files in a host directory."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _data_path(self, name: str) -> Path:
        if "/" in name or name.startswith("."):
            raise ValueError(f"invalid file name {name!r}")
        return self.root / name

    def _meta_path(self, name: str) -> Path:
        return self.root / f"{name}{_META_SUFFIX}"

    # -- lifecycle ------------------------------------------------------------

    def create(
        self,
        name: str,
        organization: FileOrganization | str,
        *,
        n_records: int,
        record_size: int,
        records_per_block: int = 1,
        n_processes: int = 1,
        dtype: str = "uint8",
        category: FileCategory | None = None,
        **org_params,
    ) -> LiveParallelFile:
        """Create a parallel file: preallocated data file + metadata sidecar."""
        data_path = self._data_path(name)
        meta_path = self._meta_path(name)
        if data_path.exists() or meta_path.exists():
            raise FileExistsError(name)
        attrs = FileAttributes.new(
            name, organization, category=category, layout="host",
            org_params=org_params, record_size=record_size,
            records_per_block=records_per_block, n_records=n_records,
            n_processes=n_processes, dtype=dtype,
        )
        org_map = attrs.org_map()
        # Create-or-undo: a failure after the data file exists must not
        # strand a half-created pair, or the name becomes unusable.
        try:
            # Preallocate the data file to its full logical size.
            with open(data_path, "wb") as fh:
                if attrs.file_bytes:
                    fh.truncate(attrs.file_bytes)
            meta_path.write_text(json.dumps(attrs.to_dict(), indent=2))
            return LiveParallelFile(attrs, org_map, data_path)
        except BaseException:
            meta_path.unlink(missing_ok=True)
            data_path.unlink(missing_ok=True)
            raise

    def open(self, name: str, n_processes: int | None = None) -> LiveParallelFile:
        """Open an existing file, optionally remapping the process count."""
        meta_path = self._meta_path(name)
        if not meta_path.exists():
            raise FileNotFoundError(name)
        attrs = FileAttributes.from_dict(json.loads(meta_path.read_text()))
        return LiveParallelFile(attrs, attrs.org_map(n_processes), self._data_path(name))

    def delete(self, name: str) -> None:
        """Remove a file's data and metadata."""
        data, meta = self._data_path(name), self._meta_path(name)
        if not meta.exists():
            raise FileNotFoundError(name)
        meta.unlink()
        if data.exists():
            data.unlink()

    def exists(self, name: str) -> bool:
        """True iff a parallel file of that name exists in this directory."""
        return self._meta_path(name).exists()

    def names(self) -> list[str]:
        """All parallel file names in this directory, sorted."""
        return sorted(
            p.name[: -len(_META_SUFFIX)]
            for p in self.root.glob(f"*{_META_SUFFIX}")
        )
