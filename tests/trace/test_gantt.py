"""Unit tests for device activity Gantt rendering."""

import numpy as np
import pytest

from repro.devices import WREN_1989, DeviceController, DiskGeometry, DiskModel
from repro.sim import Environment
from repro.storage import StripedLayout, Volume
from repro.trace import render_device_gantt, render_gantt


class TestRenderGantt:
    def test_empty(self):
        assert render_gantt({}) == "(no activity)"
        assert render_gantt({"d0": []}) == "(no activity)"

    def test_single_lane_full_width(self):
        out = render_gantt({"d0": [(0.0, 1.0)]}, width=20)
        line = out.splitlines()[0]
        assert line.startswith("d0 |")
        assert line.count("#") == 20

    def test_half_busy(self):
        out = render_gantt({"d0": [(0.0, 0.5)]}, t0=0.0, t1=1.0, width=20)
        line = out.splitlines()[0]
        assert line.count("#") == 10
        assert line.count(".") == 10

    def test_two_lanes_aligned(self):
        out = render_gantt(
            {"a": [(0.0, 0.5)], "b": [(0.5, 1.0)]}, width=20
        )
        a, b = out.splitlines()[:2]
        # a busy first half, b busy second half
        assert a.index("#") < b.index("#")

    def test_axis_labels_present(self):
        out = render_gantt({"d": [(0.0, 2.0)]}, width=30)
        assert "ms" in out.splitlines()[-1]

    def test_zero_length_interval_still_visible(self):
        out = render_gantt({"d": [(1.0, 1.0)]}, t0=0.0, t1=2.0, width=20)
        assert "#" in out  # minimum one cell


class TestDeviceGantt:
    def test_requires_service_log(self):
        env = Environment()
        dev = DeviceController(
            env, DiskModel(DiskGeometry(cylinders=8), WREN_1989), name="d0"
        )
        with pytest.raises(ValueError, match="keep_service_log"):
            render_device_gantt([dev])

    def test_striped_write_lights_all_lanes(self):
        """The E1 visual: a striped transfer is busy on every device."""
        env = Environment()
        geo = DiskGeometry(block_size=512, blocks_per_cylinder=8, cylinders=64)
        devices = [
            DeviceController(
                env, DiskModel(geo, WREN_1989), name=f"d{i}",
                keep_service_log=True,
            )
            for i in range(3)
        ]
        vol = Volume(env, devices)
        lay = StripedLayout(3, 512)
        ext = vol.allocate(lay, 3 * 512)

        def proc():
            yield vol.write(ext, lay, [(0, 3 * 512)], np.zeros(3 * 512, dtype=np.uint8))

        env.run(env.process(proc()))
        out = render_device_gantt(devices, width=24)
        lanes = out.splitlines()[:3]
        assert all("#" in lane for lane in lanes)
        # parallel service: all three intervals overlap in time
        starts = [d.service_log[0].start for d in devices]
        ends = [d.service_log[0].end for d in devices]
        assert max(starts) < min(ends)
