"""Baselines: file-per-process (FEM)."""

from .file_per_process import FilePerProcessDataset

__all__ = ["FilePerProcessDataset"]
