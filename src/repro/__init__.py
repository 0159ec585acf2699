"""repro — reproduction of Crockett (1989), "File Concepts for Parallel I/O".

A library of parallel file organizations (S, PS, IS, SS, GDA, PDA) over a
multi-device storage substrate, with two backends:

* ``repro.fs`` — a discrete-event-simulated file system (performance
  studies in simulated time; drives every benchmark);
* ``repro.live`` — the same organizations on real host files with real
  threads (functional use).

Quickstart (simulated)::

    from repro import Environment, build_parallel_fs

    env = Environment()
    pfs = build_parallel_fs(env, n_devices=4)
    f = pfs.create("data", "PS", n_records=1000, record_size=64,
                   records_per_block=10, n_processes=4)

    def worker(p):
        handle = f.internal_view(p)
        data = yield from handle.read_next(handle.n_local_records)

    for p in range(4):
        env.process(worker(p))
    env.run()

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record.
"""

from .baselines import FilePerProcessDataset
from .collective import CollectiveIO, balanced_indices
from .container import (
    ContainerReader,
    ContainerWriter,
    SectionDecl,
    array_section,
    block_section,
    fsck,
    inline_section,
    migrate_container,
    scan_container,
)
from .core import (
    BlockSpec,
    FileCategory,
    FileOrganization,
    OrganizationMap,
    RecordSpec,
    make_map,
)
from .datatype import (
    ContiguousView,
    FileView,
    IndexedView,
    NestedStridedView,
    StridedView,
    view_of_map,
)
from .fs import (
    BackupManager,
    ParallelFile,
    ParallelFileSystem,
    SSSession,
    alternate_view,
    build_parallel_fs,
    convert_file,
    protection_overview,
    verify_file,
)
from .ionode import (
    Interconnect,
    IONode,
    IONodeCluster,
    IONodeConfig,
    MediatedVolume,
    ServerCache,
)
from .live import LiveParallelFileSystem
from .metastore import (
    MetadataClient,
    MetadataService,
    MetaServer,
    ShardedCatalog,
)
from .qos import (
    QoSClass,
    QoSConfig,
    QoSManager,
    Tenant,
    TokenBucket,
    WeightedFairQueue,
)
from .resilience import (
    FailoverManager,
    HotSpareRebuilder,
    ResilienceConfig,
    ResilientVolume,
    RetryPolicy,
)
from .sanitize import AccessConflictDetector, EngineSanitizer
from .sim import Environment, RngStreams
from .storage import Volume
from .trace import NullTraceRecorder, TraceRecorder

__version__ = "1.0.0"

__all__ = [
    "FilePerProcessDataset",
    "build_parallel_fs",
    "CollectiveIO",
    "balanced_indices",
    "ContainerReader",
    "ContainerWriter",
    "SectionDecl",
    "array_section",
    "block_section",
    "fsck",
    "inline_section",
    "migrate_container",
    "scan_container",
    "FileView",
    "ContiguousView",
    "StridedView",
    "NestedStridedView",
    "IndexedView",
    "view_of_map",
    "BlockSpec",
    "FileCategory",
    "FileOrganization",
    "OrganizationMap",
    "RecordSpec",
    "make_map",
    "BackupManager",
    "ParallelFile",
    "ParallelFileSystem",
    "SSSession",
    "alternate_view",
    "convert_file",
    "protection_overview",
    "verify_file",
    "Interconnect",
    "IONode",
    "IONodeCluster",
    "IONodeConfig",
    "MediatedVolume",
    "ServerCache",
    "LiveParallelFileSystem",
    "MetadataClient",
    "MetadataService",
    "MetaServer",
    "ShardedCatalog",
    "QoSClass",
    "QoSConfig",
    "QoSManager",
    "Tenant",
    "TokenBucket",
    "WeightedFairQueue",
    "FailoverManager",
    "HotSpareRebuilder",
    "ResilienceConfig",
    "ResilientVolume",
    "RetryPolicy",
    "AccessConflictDetector",
    "EngineSanitizer",
    "Environment",
    "RngStreams",
    "Volume",
    "TraceRecorder",
    "NullTraceRecorder",
]
