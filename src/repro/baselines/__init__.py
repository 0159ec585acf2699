"""Baselines: file-per-process (FEM) and conventional single-device files."""

from .conventional import build_parallel_fs, single_device_fs
from .file_per_process import FilePerProcessDataset

__all__ = [
    "build_parallel_fs",
    "single_device_fs",
    "FilePerProcessDataset",
]
