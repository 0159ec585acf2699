"""Writer for the ``benchmarks/results/BENCH_*.json`` records."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

__all__ = ["write_bench_json"]


def write_bench_json(path: str | Path, record: dict[str, Any]) -> None:
    """Write the record to ``path`` (pretty, trailing newline)."""
    Path(path).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
