"""The parallel file system: create/open/delete and the file object.

This is the operating-system layer §2 calls for: parallel files that
support "concurrent access by multiple processes" through *internal views*
while remaining usable "conventionally by sequential programs" through the
*global view*.

A :class:`ParallelFile` binds together:

* the catalog attributes (organization, record/block shape),
* the organization map (`repro.core.mapping`) — who accesses what,
* the data layout (`repro.storage.layout`) — where bytes live, and
* the volume (`repro.storage.volume`) — the devices themselves.

Handles are obtained with :meth:`ParallelFile.global_view` and
:meth:`ParallelFile.internal_view`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from ..core.errors import OrganizationError
from ..core.handles import RecordFile
from ..core.mapping import OrganizationMap
from ..core.organizations import FileCategory, FileOrganization
from ..ionode.aggregator import DEFAULT_SIEVE_FACTOR, DEFAULT_SIEVE_WINDOW
from ..sim.engine import Environment, Event
from ..sim.sync import SimLock
from ..storage.layout import (
    ClusteredLayout,
    DataLayout,
    InterleavedLayout,
    StripedLayout,
)
from ..storage.volume import Volume
from ..trace.events import TraceRecorder
from .catalog import Catalog, CatalogEntry
from .global_io import GlobalViewHandle
from .internal_io import HANDLE_KINDS
from .metadata import FileAttributes

if TYPE_CHECKING:  # pragma: no cover
    from ..datatype.views import FileView
    from ..ionode.routing import IONodeCluster, MediatedVolume
    from ..qos import QoSManager
    from ..resilience import ResilientVolume
    from ..sanitize.access import AccessConflictDetector

__all__ = ["ParallelFileSystem", "ParallelFile"]

DEFAULT_STRIPE_UNIT = 4096


class ParallelFile(RecordFile):
    """An open parallel file."""

    handle_kinds = HANDLE_KINDS

    def __init__(
        self,
        pfs: "ParallelFileSystem",
        entry: CatalogEntry,
        org_map: OrganizationMap,
    ):
        self.pfs = pfs
        self.entry = entry
        self.map = org_map
        #: default noncontiguous view for read_view/write_view (see set_view)
        self._view: "FileView | None" = None

    # -- convenient aliases -------------------------------------------------

    @property
    def env(self) -> Environment:
        return self.pfs.env

    @property
    def volume(self) -> Volume:
        return self.pfs.volume

    @property
    def attrs(self) -> FileAttributes:
        return self.entry.attrs

    @property
    def layout(self) -> DataLayout:
        return self.entry.layout

    # -- views ---------------------------------------------------------------

    def global_view(self) -> GlobalViewHandle:
        """The file as a conventional (sequential/direct) file (§2)."""
        return GlobalViewHandle(self)

    # -- record-level byte I/O (the layer every handle sits on) ---------------

    def read_records(self, start: int, count: int) -> Event:
        """Read ``count`` records from global index ``start`` (decoded array)."""
        spec = self.attrs.record_spec
        self._check_span(start, count)
        offset, nbytes = spec.span(start, count)
        return self._io(
            "read", nbytes, spec.decode,
            lambda: self.pfs.data_plane.read(self.entry.extent, self.layout, [(offset, nbytes)]),
        )

    def write_records(self, start: int, values: np.ndarray) -> Event:
        """Write decoded record ``values`` at global index ``start``."""
        spec = self.attrs.record_spec
        raw = spec.encode(values)
        count = raw.size // spec.record_size
        self._check_span(start, count)
        offset = start * spec.record_size
        return self._io(
            "write", raw.size, None,
            lambda: self.pfs.data_plane.write(
                self.entry.extent, self.layout, [(offset, raw.size)], raw
            ),
        )

    def read_block(self, block: int) -> Event:
        """Read one logical block (decoded records)."""
        bs = self.attrs.block_spec
        offset, nbytes = bs.block_byte_range(block, self.n_records)
        return self._io(
            "readblk", nbytes, self.attrs.record_spec.decode,
            lambda: self.pfs.data_plane.read(self.entry.extent, self.layout, [(offset, nbytes)]),
        )

    def write_block(self, block: int, values: np.ndarray) -> Event:
        """Write one logical block from decoded records."""
        bs = self.attrs.block_spec
        expect = bs.block_records(block, self.n_records)
        raw = self.attrs.record_spec.encode(values)
        if raw.size != expect * self.attrs.record_size:
            raise ValueError(
                f"block {block} holds {expect} records, got "
                f"{raw.size // self.attrs.record_size}"
            )
        offset, _ = bs.block_byte_range(block, self.n_records)
        return self._io(
            "writeblk", raw.size, None,
            lambda: self.pfs.data_plane.write(
                self.entry.extent, self.layout, [(offset, raw.size)], raw
            ),
        )

    def _io(self, name: str, nbytes: int, decode, submit) -> Event:
        """Run the data-plane op ``submit()``, then ``decode`` its value if given.

        With QoS on, the op is only *created* once the tenant's token bucket
        covers ``nbytes`` (a list-I/O batch is one ``nbytes`` operation), so
        throttled traffic never holds queue slots; the wait is billed to the
        tenant as blocked time.
        """
        if self.pfs.qos is not None:
            return self.env.process(
                self._admit_then(nbytes, decode, submit), name=f"{self.name}.{name}"
            )
        op = submit()
        return op if decode is None else self.env.then(op, decode)

    def _admit_then(self, nbytes: int, decode, submit):
        yield from self.pfs.qos.admit_active(nbytes)
        result = yield submit()
        return result if decode is None else decode(result)

    # -- list I/O (extent-batched submission) -----------------------------------

    def read_gather(self, runs: list[tuple[int, int]]) -> Event:
        """Read several ``(start, count)`` record runs as one submission.

        The per-run byte ranges go down the data plane together (one
        ``read`` of the whole list): one submission op, one join, one QoS
        admission for the batch's total bytes, and — when batching is on —
        device-contiguous segments merged across run boundaries. The value
        is the decoded records of all runs concatenated in list order,
        exactly what per-run reads would have concatenated to.
        """
        spec = self.attrs.record_spec
        ranges = []
        total = 0
        for start, count in runs:
            self._check_span(start, count)
            ranges.append(spec.span(start, count))
            total += ranges[-1][1]
        return self._io(
            "gather", total, spec.decode,
            lambda: self.pfs.data_plane.read(self.entry.extent, self.layout, ranges),
        )

    def write_gather(self, runs: list[tuple[int, int]], values: np.ndarray) -> Event:
        """Write several record runs as one submission (see :meth:`read_gather`).

        ``values`` holds the records of all runs concatenated in list
        order.
        """
        spec = self.attrs.record_spec
        raw = spec.encode(values)
        ranges = []
        total = 0
        for start, count in runs:
            self._check_span(start, count)
            ranges.append(spec.span(start, count))
            total += ranges[-1][1]
        if raw.size != total:
            raise ValueError(
                f"runs cover {total} bytes, values encode to {raw.size}"
            )
        return self._io(
            "scatter", total, None,
            lambda: self.pfs.data_plane.write(self.entry.extent, self.layout, ranges, raw),
        )

    # -- file views and data sieving --------------------------------------------

    def set_view(self, view: "FileView | None") -> "FileView | None":
        """Install ``view`` as this file's default noncontiguous view.

        Subsequent :meth:`read_view` / :meth:`write_view` calls without an
        explicit view use it. Pass ``None`` to clear. Returns the view
        that was previously installed.
        """
        if view is not None:
            from ..datatype.planner import check_view_runs

            check_view_runs(view, self.n_records)
        prev, self._view = self._view, view
        return prev

    @property
    def view(self) -> "FileView | None":
        """The default view installed by :meth:`set_view`, if any."""
        return self._view

    def _view_or_default(self, view: "FileView | None") -> "FileView":
        v = view if view is not None else self._view
        if v is None:
            raise ValueError(
                "no view given: pass view=... or install one with set_view()"
            )
        return v

    def read_view(
        self,
        view: "FileView | None" = None,
        *,
        sieve: bool = False,
        sieve_factor: float = DEFAULT_SIEVE_FACTOR,
        sieve_window: int = DEFAULT_SIEVE_WINDOW,
    ) -> Event:
        """Read the records a view selects; decoded rows in view order.

        Without ``sieve`` this is list I/O: the view's runs go down the
        data plane as one :meth:`read_gather` submission (merged into
        multi-block device requests when ``batch_io`` is on). With
        ``sieve=True`` the runs are first planned into covering extents
        (:mod:`repro.datatype.planner`): fewer, larger transfers that also
        fetch the holes, bounded by ``sieve_factor`` (span at most that
        multiple of the wanted payload) and ``sieve_window`` (span at most
        that many bytes).
        """
        from ..datatype.planner import prepare_view_read, sieved_read

        plan = prepare_view_read(
            self._view_or_default(view), self.n_records,
            self.attrs.record_spec.record_size,
            sieve=sieve, sieve_factor=sieve_factor, sieve_window=sieve_window,
        )
        runs = plan.runs
        if plan.mode == "empty":
            return self.env.join(list, lambda _: self.attrs.record_spec.decode(b""))
        if plan.mode == "sieved":
            return self.env.process(
                self.run_plan(sieved_read(plan)), name=f"{self.name}.sieveread"
            )
        if plan.mode == "contiguous":
            return self.read_records(*runs[0])
        return self.read_gather(runs)

    def write_view(
        self,
        values: np.ndarray,
        view: "FileView | None" = None,
        *,
        sieve: bool = False,
        sieve_factor: float = DEFAULT_SIEVE_FACTOR,
        sieve_window: int = DEFAULT_SIEVE_WINDOW,
    ) -> Event:
        """Write ``values`` (rows in view order) to the view's records.

        Without ``sieve`` this is list I/O via :meth:`write_gather`. With
        ``sieve=True`` the runs are packed into read-modify-write windows:
        each window is read, overlaid with the wanted rows, and written
        back as one transfer. Windows are serialized through a per-file
        sieve lock, so concurrent *sieved* writers never tear each other's
        hole bytes; a sieved writer racing a non-sieved writer to the same
        window is an application conflict exactly like any overlapping
        write (the access sanitizer's territory).
        """
        from ..datatype.planner import prepare_view_write, sieved_write

        plan, decoded = prepare_view_write(
            self._view_or_default(view), self.n_records, self.attrs.record_spec,
            values, sieve=sieve, sieve_factor=sieve_factor, sieve_window=sieve_window,
        )
        runs, total = plan.runs, plan.n_view_records
        if plan.mode == "empty":
            return self.env.join(list, lambda _: 0)
        if plan.mode == "sieved":
            return self.env.process(
                self.run_plan(sieved_write(plan, decoded)),
                name=f"{self.name}.sievewrite",
            )
        if plan.mode == "contiguous":
            op = self.write_records(runs[0][0], decoded)
        else:
            op = self.write_gather(runs, decoded)
        return self.env.then(op, lambda _: total)

    # -- the plan driver --------------------------------------------------------

    def run_plan(self, plan):
        """Generator: carry out a sans-I/O plan (a sieved view read or
        write, a container or dataset plan; intents in
        :mod:`repro.datatype.planner`) in simulated time; returns its value.

        An ``rmw`` holds the catalog entry's sieve lock, which every open of
        the file shares. A failed I/O closes the plan before it propagates.
        """
        reply = None
        try:
            while True:
                match plan.send(reply):
                    case ("read", start, count):
                        reply = yield self.read_records(start, count)
                    case ("gather", runs):
                        reply = yield self.read_gather(runs)
                    case ("write", start, rows):
                        nbytes = yield self.write_records(start, rows)
                        reply = nbytes // self.attrs.record_size
                    case ("rmw", start, count, patch):
                        lock = self.entry.sieve_lock
                        yield lock.acquire()
                        try:
                            buf = yield self.read_records(start, count)
                            yield self.write_records(start, patch(buf))
                        finally:
                            lock.release()
                        reply = count
                    case intent:
                        raise ValueError(f"unknown plan intent {intent!r}")
        except StopIteration as done:
            return done.value
        finally:
            plan.close()

    # -- tracing ----------------------------------------------------------------

    def trace(
        self,
        process: int,
        op: str,
        block: int,
        records: int,
        start: int | None = None,
    ) -> None:
        """Record one access in the trace recorder and conflict sanitizer.

        ``start`` is the first global record of the access when the caller
        knows it (record-granular ops); block-granular ops omit it and the
        sanitizer uses the block's whole record range.
        """
        if not self.pfs._tracing:
            return
        rec = self.pfs.recorder
        if rec is not None:
            rec.record(
                self.env.now,
                process,
                op,
                self.name,
                block,
                records,
                records * self.attrs.record_size,
            )
        sanitizer = self.pfs.sanitizer
        if sanitizer is not None:
            sanitizer.note_access(self, process, op, block, records, start)


class ParallelFileSystem:
    """Create, open, and delete parallel files on a volume."""

    def __init__(
        self,
        env: Environment,
        volume: Volume,
        recorder: TraceRecorder | None = None,
        sanitizer: "AccessConflictDetector | None" = None,
        *,
        io_cluster: "IONodeCluster | None" = None,
        resilience: "ResilientVolume | None" = None,
        qos: "QoSManager | None" = None,
    ):
        """Wrap an assembled stack; :func:`~repro.fs.stack.build_parallel_fs`
        builds the layers, in their one order, and passes them here."""
        self.env = env
        self.volume = volume
        self.catalog = Catalog()
        self._recorder = recorder
        self._sanitizer = sanitizer
        #: False when per-access tracing can be skipped entirely (no
        #: collecting recorder, no conflict sanitizer) — the fs layer's
        #: hot paths test this one flag instead of walking the hooks
        self._tracing = False
        self._update_tracing()
        #: the cluster serving this file system, when server-mediated
        self.io_cluster = io_cluster
        #: the resilience layer, when the stack has one
        self.resilience = resilience
        #: the QoS manager, when the stack has one
        self.qos = qos
        #: the sharded metadata service, when attached
        #: (see :meth:`attach_metastore`)
        self.metastore = None
        #: where file data traffic goes: the volume, the I/O nodes, or the
        #: resilience layer stacked over either
        self.data_plane: "Volume | MediatedVolume | ResilientVolume" = volume
        if resilience is not None:
            self.data_plane = resilience
        elif io_cluster is not None:
            self.data_plane = io_cluster.mediate(volume)

    # -- tracing hooks ---------------------------------------------------------

    @property
    def recorder(self) -> TraceRecorder | None:
        """The access-trace recorder fed by every file access, if any."""
        return self._recorder

    @recorder.setter
    def recorder(self, rec: TraceRecorder | None) -> None:
        self._recorder = rec
        self._update_tracing()

    @property
    def sanitizer(self) -> "AccessConflictDetector | None":
        """The conflict sanitizer fed by every file access, if any."""
        return self._sanitizer

    @sanitizer.setter
    def sanitizer(self, san: "AccessConflictDetector | None") -> None:
        self._sanitizer = san
        self._update_tracing()

    def _update_tracing(self) -> None:
        rec = self._recorder
        self._tracing = (
            rec is not None and not getattr(rec, "is_noop", False)
        ) or self._sanitizer is not None

    # -- sharded metadata opt-in -------------------------------------------------

    def attach_metastore(self, shards: int = 4, injector: Any = None) -> Any:
        """Swap the namespace onto the sharded, journaled metadata service.

        Every existing catalog entry is migrated (as journaled creates)
        into a :class:`~repro.metastore.MetadataService` partitioned
        across ``shards`` hash slices, and ``self.catalog`` becomes the
        drop-in :class:`~repro.metastore.ShardedCatalog` facade — so
        ``create``/``open``/``delete``/``rename`` gain write-ahead
        intent journaling, crash recovery, and lease epochs without any
        caller changing. When the stack has a node-failover manager
        (I/O nodes under a resilience layer), the service binds to it, so
        shards are re-homed on node death. ``injector`` is the crash-point
        hook used by the robustness harness. Returns the service (also at
        ``self.metastore``).
        """
        from ..metastore import MetadataService, ShardedCatalog

        service = MetadataService(n_shards=shards, injector=injector)
        old = self.catalog
        for name in old.names():
            entry = old.get(name)
            service.create(name, entry)
        self.metastore = service
        self.catalog = ShardedCatalog(
            service,
            creates=getattr(old, "creates", 0),
            deletes=getattr(old, "deletes", 0),
        )
        if self._sanitizer is not None:
            service.sanitizer = self._sanitizer
        if self.io_cluster is not None and self.io_cluster.failover is not None:
            service.bind_failover(self.io_cluster.failover)
        return service

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
        layout: str | None = None,
        stripe_unit: int = DEFAULT_STRIPE_UNIT,
        n_devices: int | None = None,
        **org_params: Any,
    ) -> ParallelFile:
        """Create a parallel file.

        ``layout`` defaults to the organization's §4 implementation
        strategy (striped for S/SS/GDA, clustered for PS, interleaved for
        IS/PDA). ``n_devices`` defaults to the whole volume.
        """
        attrs = FileAttributes.new(
            name, organization, category=category, layout=layout,
            org_params=org_params, record_size=record_size,
            records_per_block=records_per_block, n_records=n_records,
            n_processes=n_processes, dtype=dtype,
        )
        n_dev = n_devices or self.volume.n_devices
        if n_dev > self.volume.n_devices:
            raise ValueError(
                f"n_devices={n_dev} exceeds volume width {self.volume.n_devices}"
            )
        org_map = attrs.org_map()
        data_layout = self._build_layout(attrs.layout, n_dev, attrs, org_map, stripe_unit)
        attrs.layout_params = self._layout_params(data_layout)
        extent = self.volume.allocate(data_layout, attrs.file_bytes)
        entry = CatalogEntry(attrs, extent, data_layout, sieve_lock=SimLock(self.env))
        self.catalog.add(entry)
        return ParallelFile(self, entry, org_map)

    def open(self, name: str, n_processes: int | None = None) -> ParallelFile:
        """Open an existing file, optionally with a different process count.

        Reopening with a different ``n_processes`` re-derives the internal
        view (legal: the physical layout is unchanged; only the access
        mapping moves). The §5 mismatch scenarios come from opening with a
        different *organization* — see ``repro.fs.convert``.
        """
        entry = self.catalog.get(name)
        return ParallelFile(self, entry, entry.attrs.org_map(n_processes))

    def delete(self, name: str) -> None:
        """Remove a file and free its device extents."""
        entry = self.catalog.remove(name)
        self.volume.free(entry.extent)

    def exists(self, name: str) -> bool:
        """True iff a file of that name is in the catalog."""
        return name in self.catalog

    # -- layout construction -----------------------------------------------------

    def _build_layout(
        self,
        layout_name: str,
        n_devices: int,
        attrs: FileAttributes,
        org_map: OrganizationMap,
        stripe_unit: int,
    ) -> DataLayout:
        if layout_name == "striped":
            return StripedLayout(n_devices, stripe_unit)
        if layout_name == "interleaved":
            return InterleavedLayout(n_devices, attrs.block_spec.block_bytes)
        if layout_name == "clustered":
            # one contiguous partition per process (PS placement);
            # partition byte sizes follow the organization map
            if not org_map.is_static:
                raise OrganizationError(
                    "clustered layout requires a statically partitioned "
                    "organization"
                )
            sizes = [
                org_map.n_local_records(p) * attrs.record_size
                for p in range(org_map.n_processes)
            ]
            return ClusteredLayout(n_devices, sizes)
        raise ValueError(f"unknown layout {layout_name!r}")

    @staticmethod
    def _layout_params(layout: DataLayout) -> dict[str, Any]:
        if isinstance(layout, InterleavedLayout):
            return {"block_bytes": layout.block_bytes, "n_devices": layout.n_devices}
        if isinstance(layout, StripedLayout):
            return {"stripe_unit": layout.stripe_unit, "n_devices": layout.n_devices}
        if isinstance(layout, ClusteredLayout):
            return {
                "partition_bytes": list(layout.partition_bytes),
                "n_devices": layout.n_devices,
            }
        return {}
