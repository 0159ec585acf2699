"""DatasetServer tests: protocol correctness, 64-way concurrency, QoS
tenant admission, and resilience to misbehaving clients."""

import asyncio
import json

import numpy as np
import pytest

from repro.dataset import DatasetSchema, LiveDataset
from repro.live import LiveParallelFileSystem
from repro.live.server import (
    MAX_HEADER_BYTES,
    MAX_PAYLOAD_BYTES,
    DatasetClient,
    DatasetServer,
)


@pytest.fixture
def lfs(tmp_path):
    return LiveParallelFileSystem(tmp_path / "pfs")


@pytest.fixture
def schema():
    return DatasetSchema.build(
        {"row": 64, "col": 16},
        {"grid": ("<f8", ("row", "col"))},
    )


@pytest.fixture
def populated(lfs, schema):
    data = {"grid": np.arange(64 * 16, dtype="<f8").reshape(64, 16)}
    LiveDataset.create(lfs, "grid_ds", schema, data=data).close()
    return data


def run_async(coro):
    return asyncio.run(coro)


class TestProtocol:
    def test_list_describe_read_write_sync(self, lfs, schema, populated):
        async def go():
            async with DatasetServer(lfs) as srv:
                c = await DatasetClient.connect("127.0.0.1", srv.port)
                assert await c.list_datasets() == ["grid_ds"]
                desc = await c.describe("grid_ds")
                assert desc["dimensions"] == {"row": 64, "col": 16}

                got = await c.read("grid_ds", "grid", (2, 0), (2, 16))
                assert np.array_equal(got, populated["grid"][2:4])

                patch = np.full((1, 4), -1.0)
                n = await c.write("grid_ds", "grid", (0, 4), (1, 4), patch)
                assert n == 4
                back = await c.read("grid_ds", "grid", (0, 0), (1, 16))
                assert np.array_equal(back[0, 4:8], patch[0])

                assert await c.sync("grid_ds") == ["grid"]
                await c.close()

        run_async(go())

    def test_errors_are_reported_not_fatal(self, lfs, schema, populated):
        async def go():
            async with DatasetServer(lfs) as srv:
                c = await DatasetClient.connect("127.0.0.1", srv.port)
                with pytest.raises(RuntimeError, match="outside extent"):
                    await c.read("grid_ds", "grid", (0, 0), (65, 16))
                with pytest.raises(RuntimeError):
                    await c.read("grid_ds", "nope", (0,), (1,))
                with pytest.raises(RuntimeError):
                    await c.describe("missing_ds")
                # the connection is still usable afterwards
                got = await c.read("grid_ds", "grid", (0, 0), (1, 1))
                assert got[0, 0] == 0.0
                await c.close()

        run_async(go())

    def test_garbage_line_counted_and_survivable(self, lfs, populated):
        async def go():
            async with DatasetServer(lfs) as srv:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", srv.port
                )
                writer.write(b"this is not json\n")
                await writer.drain()
                resp = json.loads(await reader.readline())
                assert not resp["ok"]
                # same connection recovers
                writer.write(json.dumps({"op": "list"}).encode() + b"\n")
                await writer.drain()
                resp = json.loads(await reader.readline())
                assert resp["datasets"] == ["grid_ds"]
                writer.close()
                await writer.wait_closed()
                assert srv.stats()["protocol_errors"] >= 1

        run_async(go())

    def test_mid_payload_disconnect_does_not_wedge(self, lfs, populated):
        async def go():
            async with DatasetServer(lfs) as srv:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", srv.port
                )
                req = {"op": "write", "dataset": "grid_ds", "var": "grid",
                       "start": [0, 0], "count": [1, 16], "nbytes": 128}
                writer.write(json.dumps(req).encode() + b"\n")
                writer.write(b"\x00" * 10)  # then vanish mid-payload
                await writer.drain()
                writer.close()
                await writer.wait_closed()
                # server still serves new clients
                c = await DatasetClient.connect("127.0.0.1", srv.port)
                assert await c.list_datasets() == ["grid_ds"]
                await c.close()

        run_async(go())


async def _closed_after(reader) -> bytes:
    """Everything the server sends until it closes the connection."""
    return await asyncio.wait_for(reader.read(), timeout=10)


class TestHostileInput:
    @pytest.mark.parametrize(
        "line",
        [
            b"x" * (MAX_HEADER_BYTES + 4096) + b"\n",    # longer than the bound
            b"[" * 60_000 + b"\n",                       # nested past the parser
        ],
        ids=["oversized", "deeply_nested"],
    )
    def test_bad_header_closes_and_is_counted(self, lfs, populated, line):
        async def go():
            async with DatasetServer(lfs) as srv:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", srv.port
                )
                writer.write(line + json.dumps({"op": "list"}).encode() + b"\n")
                await writer.drain()
                assert await _closed_after(reader) == b""
                writer.close()
                await writer.wait_closed()
                assert srv.stats()["protocol_errors"] == 1
                # the server still serves new clients
                c = await DatasetClient.connect("127.0.0.1", srv.port)
                assert await c.list_datasets() == ["grid_ds"]
                await c.close()

        run_async(go())

    def test_header_bound_is_exact(self, lfs, populated):
        """A header line of MAX_HEADER_BYTES (newline included) is served;
        one byte more ends the connection."""
        def padded(size):
            body = json.dumps({"op": "list"}).encode()
            return body + b" " * (size - len(body) - 1) + b"\n"

        async def go():
            async with DatasetServer(lfs) as srv:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", srv.port
                )
                writer.write(padded(MAX_HEADER_BYTES))
                await writer.drain()
                assert json.loads(await reader.readline())["ok"]
                writer.write(padded(MAX_HEADER_BYTES + 1))
                await writer.drain()
                assert await _closed_after(reader) == b""
                writer.close()
                await writer.wait_closed()
                assert srv.stats()["protocol_errors"] == 1

        run_async(go())

    @pytest.mark.parametrize(
        "nbytes", [-1, MAX_PAYLOAD_BYTES + 1, "14", 1.5],
        ids=["negative", "over_max", "string", "float"],
    )
    def test_refused_payload_is_not_run_as_requests(self, lfs, populated, nbytes):
        """A refused write leaves its payload unread: the server replies
        with the error and closes instead of parsing those bytes."""
        async def go():
            async with DatasetServer(lfs) as srv:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", srv.port
                )
                req = {"op": "write", "dataset": "grid_ds", "var": "grid",
                       "start": [0, 0], "count": [1, 16], "nbytes": nbytes}
                smuggled = json.dumps({"op": "list"}).encode() + b"\n"
                writer.write(json.dumps(req).encode() + b"\n" + smuggled)
                await writer.drain()
                resp = json.loads(await reader.readline())
                assert not resp["ok"]
                assert "invalid payload size" in resp["error"]
                assert await _closed_after(reader) == b""
                writer.close()
                await writer.wait_closed()
                stats = srv.stats()
                assert stats["protocol_errors"] == 1
                assert stats["requests_total"] == 1

        run_async(go())


class TestStop:
    def test_stop_ends_open_connections(self, lfs, populated):
        async def go():
            srv = await DatasetServer(lfs).start()
            c = await DatasetClient.connect("127.0.0.1", srv.port)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", srv.port
            )
            await c.read("grid_ds", "grid", (0, 0), (1, 16))
            assert srv.stats()["datasets_open"] == ["grid_ds"]
            await srv.stop()
            # both connections see EOF, and neither is served any more
            assert await _closed_after(reader) == b""
            writer.close()
            await writer.wait_closed()
            with pytest.raises(ConnectionError):
                await c.read("grid_ds", "grid", (0, 0), (1, 16))
            await c.close()
            assert srv.stats()["datasets_open"] == []

        run_async(go())


class TestConcurrency:
    def test_64_concurrent_clients(self, lfs, schema, populated):
        """64 clients, each with a disjoint row: write, read back, and
        verify nobody saw anybody else's row."""
        async def client(port, i):
            c = await DatasetClient.connect("127.0.0.1", port,
                                            tenant=f"t{i % 4}")
            row = np.full((1, 16), float(i), dtype="<f8")
            n = await c.write("grid_ds", "grid", (i, 0), (1, 16), row)
            assert n == 16
            got = await c.read("grid_ds", "grid", (i, 0), (1, 16))
            await c.close()
            return i if np.array_equal(got, row) else None

        async def go():
            async with DatasetServer(lfs) as srv:
                out = await asyncio.gather(
                    *(client(srv.port, i) for i in range(64))
                )
                stats = srv.stats()
            assert sorted(out) == list(range(64))
            assert stats["requests_total"] >= 64 * 3
            assert set(stats["tenants"]) >= {"t0", "t1", "t2", "t3"}

        run_async(go())
        # and the media agrees after the fact
        with LiveDataset.open(lfs, "grid_ds") as lds:
            got = lds.read_variable("grid")
        want = np.repeat(np.arange(64, dtype="<f8"), 16).reshape(64, 16)
        assert np.array_equal(got, want)


class TestAdmission:
    def test_tenant_throttling_and_accounting(self, lfs, schema, populated):
        """A tight bucket (small burst, slow rate) must throttle a noisy
        tenant while an unlimited tenant flows freely; accounting must
        stay conformant: granted <= burst + rate * elapsed."""
        async def go():
            async with DatasetServer(
                lfs, tenants={"bronze": (256 * 1024, 4096)}
            ) as srv:
                bronze = await DatasetClient.connect(
                    "127.0.0.1", srv.port, tenant="bronze"
                )
                gold = await DatasetClient.connect(
                    "127.0.0.1", srv.port, tenant="gold"
                )
                # 16 KB per read, 8 reads = 128 KB >> 4 KB burst
                for _ in range(8):
                    await bronze.read("grid_ds", "grid", (0, 0), (64, 16))
                    await gold.read("grid_ds", "grid", (0, 0), (64, 16))
                stats = await gold.server_stats()
                await bronze.close()
                await gold.close()
            b = stats["tenants"]["bronze"]
            g = stats["tenants"]["gold"]
            assert b["throttled_grants"] > 0
            assert b["admission_wait_s"] > 0
            assert g.get("throttled_grants", 0) == 0
            assert b["bytes_read"] == 8 * 64 * 16 * 8
            elapsed = stats["uptime_s"]
            assert b["granted_total"] <= 4096 + 256 * 1024 * elapsed + 1e-6

        run_async(go())
