"""Asyncio dataset serving: ViPIOS-style client/server over the live backend.

A :class:`DatasetServer` owns a directory of live datasets
(:class:`~repro.dataset.live.LiveDataset`) and serves concurrent
hyperslab requests over TCP — the first wall-clock, heavy-traffic
demonstration of the stack, as opposed to simulated time.

**Protocol.** Newline-delimited JSON request headers; a request that
carries payload (``write``) declares ``nbytes`` and sends that many raw
bytes immediately after its header line. Responses mirror it: one JSON
line (``ok``, result fields, and ``nbytes`` when data follows), then the
raw little-endian payload, each message sent as one write. Ops: ``hello``
(bind the connection to a tenant), ``list``, ``describe``, ``read``,
``write``, ``sync``, ``stats``. A header line over
:data:`MAX_HEADER_BYTES`, one nested too deep to parse, or a ``write``
whose ``nbytes`` is refused (so its payload cannot be skipped) counts as
a protocol error and ends the connection.

**Slab I/O on the loop.** ``read`` and ``write`` call the live backend
directly on the event loop, as ``describe``, ``sync`` and dataset open
do: there is one I/O path. A slab is a few positioned syscalls into one
buffer, and the hop to a worker thread cost more than the I/O it moved.
On a 2-core x86-64 host (Python 3.11), bare ``pread`` calls moving one
8x128 ``<f8`` slab took 7–15 µs and one ``asyncio.to_thread`` hop
100–220 µs; serving on the loop cut the ledger's ``live_serve`` round
trip from 490–960 µs to 150–240 µs. A request holds the loop for its
syscalls, so a slow file system stalls every connection for that time.

**QoS.** Tenants are genuinely the :mod:`repro.qos` primitives: every
tenant with a configured ``(rate, burst)`` holds a real
:class:`~repro.qos.bucket.TokenBucket` driven by :class:`WallClock` — a
clock shim whose ``now`` is ``time.monotonic()`` and whose ``sleep``
*returns* the delay for the asyncio loop to await. Admission covers the
data bytes of each request (response bytes for reads, payload bytes for
writes) before any I/O happens, so an over-rate tenant queues at the
bucket exactly as a simulated tenant queues at a device. Per-tenant
:class:`TenantAccount` counters record requests, bytes, errors, and
total admission wait.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..core.errors import ReproError
from ..qos.bucket import TokenBucket
from .backend import LiveParallelFileSystem

__all__ = ["WallClock", "TenantAccount", "DatasetServer", "DatasetClient"]

#: a request header line (with its newline) above this size closes the
#: connection unparsed
MAX_HEADER_BYTES = 1 << 16
#: write payloads above this size are rejected (64 MiB)
MAX_PAYLOAD_BYTES = 1 << 26


def _frame(header: dict, payload=b"") -> bytes:
    """One message: the JSON header line, then the payload (any buffer)."""
    return b"".join((json.dumps(header).encode("utf-8"), b"\n", payload))


class _Desync(ValueError):
    """A refused request whose payload bytes were never read: the rest of
    the stream cannot be parsed as requests, so the connection ends."""


class WallClock:
    """A wall-clock stand-in for the simulator's environment.

    Exposes exactly what :class:`~repro.qos.bucket.TokenBucket` consumes:
    ``now`` (``time.monotonic()`` seconds) and ``sleep(delay)``, which
    simply returns the delay — the bucket's ``acquire`` generator then
    yields plain floats for an async driver to ``await asyncio.sleep``
    on. One shim makes the sim-time QoS primitives genuinely reusable
    under real time.
    """

    @property
    def now(self) -> float:
        return time.monotonic()

    def sleep(self, delay: float) -> float:
        """Return ``delay`` unchanged — the caller awaits it for real."""
        return delay


@dataclass
class TenantAccount:
    """Per-tenant admission state and accounting."""

    name: str
    bucket: TokenBucket | None = None
    connections: int = 0
    requests: int = 0
    errors: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    admission_wait_s: float = 0.0

    async def admit(self, nbytes: int) -> None:
        """Wait until the tenant's bucket covers ``nbytes``."""
        if self.bucket is None or nbytes <= 0:
            return
        t0 = time.monotonic()
        for delay in self.bucket.acquire(float(nbytes)):
            await asyncio.sleep(delay)
        self.admission_wait_s += time.monotonic() - t0

    def stats(self) -> dict:
        """Accounting snapshot for this tenant (plus bucket state if capped)."""
        out = {
            "connections": self.connections,
            "requests": self.requests,
            "errors": self.errors,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "admission_wait_s": round(self.admission_wait_s, 6),
        }
        if self.bucket is not None:
            out["rate"] = self.bucket.rate
            out["burst"] = self.bucket.burst
            out["throttled_grants"] = self.bucket.throttled_grants
            out["granted_total"] = self.bucket.granted_total
        return out


@dataclass
class _ServerCounters:
    connections_total: int = 0
    requests_total: int = 0
    errors_total: int = 0
    protocol_errors: int = 0
    started_at: float = field(default_factory=time.monotonic)


class DatasetServer:
    """Serve the datasets of one live directory to asyncio clients.

    ``tenants`` maps tenant name to ``(rate, burst)`` in bytes/second and
    bytes; ``default_rate``/``default_burst`` (both or neither) apply to
    tenants not named — leave them ``None`` for unlimited. A connection
    is anonymous (tenant ``"default"``) until its ``hello``.
    """

    def __init__(
        self,
        root: str | Path | LiveParallelFileSystem,
        *,
        tenants: dict[str, tuple[float, float]] | None = None,
        default_rate: float | None = None,
        default_burst: float | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.lfs = (
            root
            if isinstance(root, LiveParallelFileSystem)
            else LiveParallelFileSystem(root)
        )
        if (default_rate is None) != (default_burst is None):
            raise ValueError("default_rate and default_burst go together")
        self._tenant_caps = dict(tenants or {})
        self._default_cap = (
            (default_rate, default_burst) if default_rate is not None else None
        )
        self.host = host
        self._port = port
        self.clock = WallClock()
        self.tenants: dict[str, TenantAccount] = {}
        self.counters = _ServerCounters()
        self._datasets: dict[str, "object"] = {}
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.Task] = set()

    # -- tenants -----------------------------------------------------------

    def tenant(self, name: str) -> TenantAccount:
        """The account for ``name``, created (with its bucket) on first use."""
        acct = self.tenants.get(name)
        if acct is None:
            cap = self._tenant_caps.get(name, self._default_cap)
            bucket = (
                TokenBucket(self.clock, cap[0], cap[1]) if cap else None
            )
            acct = self.tenants[name] = TenantAccount(name, bucket)
        return acct

    # -- datasets ----------------------------------------------------------

    def dataset(self, name: str):
        """The open :class:`LiveDataset` for ``name`` (cached)."""
        from ..dataset.live import LiveDataset

        ds = self._datasets.get(name)
        if ds is None:
            ds = self._datasets[name] = LiveDataset.open(self.lfs, name)
        return ds

    # -- lifecycle ---------------------------------------------------------

    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("server not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> "DatasetServer":
        """Bind the listening socket and start serving."""
        # the stream's own limit is the header bound: ``readline`` refuses
        # a longer line before it is buffered whole
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self._port,
            limit=MAX_HEADER_BYTES + 1,
        )
        return self

    async def stop(self) -> None:
        """Stop serving: close the socket, end every open connection (its
        handler runs no further request), then close every open dataset."""
        if self._server is not None:
            self._server.close()
            handlers = list(self._connections)
            for task in handlers:
                task.cancel()
            await asyncio.gather(*handlers, return_exceptions=True)
            await self._server.wait_closed()
            self._server = None
        for ds in self._datasets.values():
            ds.close()
        self._datasets.clear()

    async def __aenter__(self) -> "DatasetServer":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    def stats(self) -> dict:
        """Server-wide and per-tenant accounting (the ``stats`` op)."""
        return {
            "uptime_s": round(time.monotonic() - self.counters.started_at, 6),
            "connections_total": self.counters.connections_total,
            "requests_total": self.counters.requests_total,
            "errors_total": self.counters.errors_total,
            "protocol_errors": self.counters.protocol_errors,
            "datasets_open": sorted(self._datasets),
            "tenants": {
                name: acct.stats() for name, acct in sorted(self.tenants.items())
            },
        }

    # -- the connection loop -----------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        self.counters.connections_total += 1
        acct = self.tenant("default")
        acct.connections += 1
        try:
            while True:
                try:
                    line = await reader.readline()
                except ConnectionError:
                    break
                except ValueError:
                    # over the stream limit: the line was dropped unread
                    self.counters.protocol_errors += 1
                    break
                if not line:
                    break
                if len(line) > MAX_HEADER_BYTES:
                    self.counters.protocol_errors += 1
                    break
                try:
                    req = json.loads(line)
                    if not isinstance(req, dict):
                        raise ValueError("request must be a JSON object")
                except RecursionError:
                    # nested deeper than the parser goes
                    self.counters.protocol_errors += 1
                    break
                except ValueError as exc:
                    self.counters.protocol_errors += 1
                    await self._send(writer, {"ok": False, "error": str(exc)})
                    continue
                try:
                    acct, done = await self._serve_request(
                        req, acct, reader, writer
                    )
                except (EOFError, ConnectionError):
                    # client vanished mid-payload or mid-response
                    self.counters.protocol_errors += 1
                    break
                if done:
                    break
        except asyncio.CancelledError:
            # only stop() (or loop shutdown) cancels a handler, and nothing
            # but stop() awaits it. It returns instead of re-raising because
            # the stream protocol's done-callback calls task.exception(),
            # which on Python 3.11 raises for a cancelled task and is logged
            pass
        finally:
            self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass

    async def _serve_request(self, req, acct, reader, writer):
        """Dispatch one request; returns ``(account, connection_done)``."""
        op = req.get("op")
        self.counters.requests_total += 1
        acct.requests += 1
        payload = b""
        done = False
        try:
            if op == "hello":
                acct.connections -= 1
                acct = self.tenant(str(req.get("tenant", "default")))
                acct.connections += 1
                resp = {"ok": True, "tenant": acct.name}
            elif op == "list":
                resp = {"ok": True, "datasets": self.lfs.names()}
            elif op == "describe":
                ds = self.dataset(str(req["dataset"]))
                resp = {"ok": True, "describe": ds.describe()}
            elif op == "read":
                resp, payload = await self._op_read(req, acct)
            elif op == "write":
                resp = await self._op_write(req, acct, reader)
            elif op == "sync":
                ds = self.dataset(str(req["dataset"]))
                resp = {"ok": True, "synced": ds.sync()}
            elif op == "stats":
                resp = {"ok": True, "stats": self.stats()}
            elif op == "bye":
                await self._send(writer, {"ok": True})
                return acct, True
            else:
                raise ValueError(f"unknown op {op!r}")
        except (ReproError, KeyError, ValueError, TypeError, OSError) as exc:
            acct.errors += 1
            self.counters.errors_total += 1
            resp, payload = {"ok": False, "error": str(exc)}, b""
            if isinstance(exc, _Desync):
                self.counters.protocol_errors += 1
                done = True
        await self._send(writer, resp, payload)
        return acct, done

    async def _op_read(self, req, acct: TenantAccount):
        ds = self.dataset(str(req["dataset"]))
        var, start, count = req["var"], req["start"], req["count"]
        # admission first: the tenant pays for the bytes it is about to
        # move, before the server does any work on its behalf
        var_obj = ds.schema.variable(var)
        from ..datatype.slab import slab_size, validate_slab

        _, cnt = validate_slab(ds.schema.shape(var), start, count)
        nbytes = slab_size(cnt) * var_obj.itemsize
        await acct.admit(nbytes)
        arr = ds.read_slab(var, start, count, sieve=bool(req.get("sieve", False)))
        payload = np.ascontiguousarray(arr, dtype=var_obj.np_dtype)
        acct.bytes_read += payload.nbytes
        resp = {
            "ok": True,
            "dtype": var_obj.dtype,
            "shape": list(arr.shape),
            "nbytes": payload.nbytes,
        }
        return resp, payload

    async def _op_write(self, req, acct: TenantAccount, reader):
        nbytes = req.get("nbytes", 0)
        if type(nbytes) is not int or not 0 <= nbytes <= MAX_PAYLOAD_BYTES:
            raise _Desync(f"invalid payload size {nbytes!r}")
        raw = await reader.readexactly(nbytes) if nbytes else b""
        ds = self.dataset(str(req["dataset"]))
        var, start, count = req["var"], req["start"], req["count"]
        var_obj = ds.schema.variable(var)
        from ..datatype.slab import slab_size, validate_slab

        _, cnt = validate_slab(ds.schema.shape(var), start, count)
        want = slab_size(cnt) * var_obj.itemsize
        if want != nbytes:
            raise ValueError(
                f"slab needs {want} payload bytes, request carries {nbytes}"
            )
        await acct.admit(nbytes)
        values = np.frombuffer(raw, dtype=var_obj.np_dtype).reshape(cnt)
        written = ds.write_slab(
            var, start, count, values, sieve=bool(req.get("sieve", False))
        )
        acct.bytes_written += nbytes
        return {"ok": True, "elements": int(written)}

    @staticmethod
    async def _send(writer, resp: dict, payload=b"") -> None:
        writer.write(_frame(resp, payload))
        await writer.drain()


class DatasetClient:
    """Minimal asyncio client speaking the :class:`DatasetServer` protocol."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer

    @classmethod
    async def connect(
        cls, host: str, port: int, *, tenant: str | None = None
    ) -> "DatasetClient":
        reader, writer = await asyncio.open_connection(host, port)
        client = cls(reader, writer)
        if tenant is not None:
            await client.hello(tenant)
        return client

    async def _call(self, req: dict, payload=b"") -> dict:
        self._writer.write(_frame(req, payload))
        await self._writer.drain()
        line = await self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    async def hello(self, tenant: str) -> dict:
        """Bind this connection to ``tenant`` for admission/accounting."""
        return await self._call({"op": "hello", "tenant": tenant})

    async def list_datasets(self) -> list[str]:
        """Names of the datasets in the served directory."""
        return (await self._call({"op": "list"}))["datasets"]

    async def describe(self, dataset: str) -> dict:
        """Dimensions/variables/attributes of ``dataset``."""
        resp = await self._call({"op": "describe", "dataset": dataset})
        if not resp.get("ok"):
            raise RuntimeError(resp.get("error", "describe failed"))
        return resp["describe"]

    async def read(
        self, dataset: str, var: str, start, count, *, sieve: bool = False
    ) -> np.ndarray:
        """Read a hyperslab; returns the typed array."""
        resp = await self._call({
            "op": "read", "dataset": dataset, "var": var,
            "start": list(start), "count": list(count), "sieve": sieve,
        })
        if not resp.get("ok"):
            raise RuntimeError(resp.get("error", "read failed"))
        raw = await self._reader.readexactly(resp["nbytes"])
        return np.frombuffer(raw, dtype=resp["dtype"]).reshape(resp["shape"])

    async def write(
        self, dataset: str, var: str, start, count, values, *, sieve: bool = False
    ) -> int:
        """Write ``values`` into a hyperslab; returns elements written."""
        arr = np.ascontiguousarray(values)
        resp = await self._call(
            {
                "op": "write", "dataset": dataset, "var": var,
                "start": list(start), "count": list(count),
                "nbytes": arr.nbytes, "sieve": sieve,
            },
            arr,
        )
        if not resp.get("ok"):
            raise RuntimeError(resp.get("error", "write failed"))
        return resp["elements"]

    async def sync(self, dataset: str) -> list[str]:
        """Refresh stale variable checksums of ``dataset``."""
        resp = await self._call({"op": "sync", "dataset": dataset})
        if not resp.get("ok"):
            raise RuntimeError(resp.get("error", "sync failed"))
        return resp["synced"]

    async def server_stats(self) -> dict:
        """Server-wide and per-tenant accounting."""
        return (await self._call({"op": "stats"}))["stats"]

    async def close(self) -> None:
        """Say goodbye and close the connection."""
        try:
            await self._call({"op": "bye"})
        except (ConnectionError, OSError):
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - teardown race
            pass
