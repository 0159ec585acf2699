"""Unit tests for tracing, reporting, and figure rendering."""

import pytest

from repro.trace import (
    RunReport,
    TraceRecorder,
    render_block_map,
    render_figure1_panel,
    throughput_mb_s,
)


class TestRecorder:
    def test_record_and_filter(self):
        rec = TraceRecorder()
        rec.record(0.0, 0, "read", "f", 0, 4, 64)
        rec.record(1.0, 1, "write", "g", 2, 4, 64)
        assert len(rec) == 2
        assert len(rec.for_file("f")) == 1
        assert rec.total_bytes() == 128
        assert rec.total_bytes("read") == 64

    def test_blocks_by_process(self):
        rec = TraceRecorder()
        rec.record(0.0, 0, "read", "f", 0, 1, 8)
        rec.record(0.1, 1, "read", "f", 1, 1, 8)
        rec.record(0.2, 0, "read", "f", 3, 1, 8)
        rec.record(0.3, 0, "read", "g", 9, 1, 8)
        assert rec.blocks_by_process("f") == {0: [0, 3], 1: [1]}
        assert rec.blocks_by_process() == {0: [0, 3, 9], 1: [1]}

    def test_clear(self):
        rec = TraceRecorder()
        rec.record(0.0, 0, "read", "f", 0, 1, 8)
        rec.clear()
        assert len(rec) == 0


class TestFigures:
    def test_block_map_labels(self):
        art = render_block_map([0, 1, 2, 0])
        assert "P1" in art and "P2" in art and "P3" in art
        assert art.count("|") > 0

    def test_block_map_unowned(self):
        art = render_block_map([None, 0])
        assert "--" in art

    def test_panel_from_trace_shape(self):
        # the IS panel of Figure 1: 6 blocks, 3 processes, round robin
        panel = render_figure1_panel(
            "c", "Interleaved.", {0: [0, 3], 1: [1, 4], 2: [2, 5]}, 6
        )
        lines = panel.splitlines()
        assert lines[0].startswith("(c)")
        assert "P1" in panel and "P3" in panel
        # row order: P1 P2 P3 P1 P2 P3
        row = [c.strip() for c in lines[2].strip("|").split("|")]
        assert row == ["P1", "P2", "P3", "P1", "P2", "P3"]


class TestReport:
    def test_throughput(self):
        assert throughput_mb_s(2_000_000, 2.0) == pytest.approx(1.0)
        assert throughput_mb_s(0, 0) == 0.0
        assert throughput_mb_s(5, 0) == float("inf")

    def test_run_report_row(self):
        r = RunReport("test", elapsed=0.5, nbytes=1_000_000)
        assert r.throughput == pytest.approx(2.0)
        assert "test" in r.row() and "MB/s" in r.row()

    def test_device_table_smoke(self):
        from repro.devices import WREN_1989, DeviceController, DiskGeometry, DiskModel
        from repro.sim import Environment
        from repro.trace import device_table

        env = Environment()
        dev = DeviceController(
            env, DiskModel(DiskGeometry(cylinders=8), WREN_1989), name="d0"
        )

        def proc():
            yield dev.read(0, 512)

        env.run(env.process(proc()))
        header, row = device_table(env, [dev])
        assert header.split()[:3] == ["device", "reqs", "seeks"]
        assert row.split()[:3] == ["d0", "1", str(dev.disk.total_seeks)]
