"""Tracing, reporting, and figure rendering."""

from .events import AccessEvent, NullTraceRecorder, TraceRecorder
from .gantt import render_device_gantt, render_gantt
from .figures import render_block_map, render_figure1_panel
from .report import (
    RunReport,
    conflict_report,
    device_table,
    invariant_report,
    ionode_report,
    qos_report,
    resilience_report,
    throughput_mb_s,
)

__all__ = [
    "AccessEvent",
    "TraceRecorder",
    "NullTraceRecorder",
    "render_device_gantt",
    "render_gantt",
    "render_block_map",
    "render_figure1_panel",
    "RunReport",
    "conflict_report",
    "device_table",
    "invariant_report",
    "ionode_report",
    "qos_report",
    "resilience_report",
    "throughput_mb_s",
]
