"""Minimal asyncio HTTP front end for the serve engine (stdlib only).

The container this repo targets has no HTTP framework, and the service
needs very little of one: four routes, small JSON bodies, one response
per connection.  :class:`ServeServer` implements exactly that on
``asyncio.start_server`` — request line + headers + Content-Length body
in, ``Connection: close`` response out — and leaves every interesting
decision to :class:`~repro.serve.engine.ServeEngine`:

* ``POST /jobs`` — submit a job (body per :func:`repro.serve.jobs.parse_job`);
  an ``X-Deadline-S`` header lowers the per-request deadline;
* ``GET /healthz`` — liveness (200 while the process can serve at all);
* ``GET /readyz`` — readiness (503 while draining or breaker-open, the
  signal a load balancer uses to stop routing here);
* ``GET /metrics`` — Prometheus text exposition of the engine registry;
* ``GET /statusz`` — operator snapshot: breaker state, pool generation,
  queue depth, in-flight count, latency quantiles and the last N
  structured events from the engine's ring buffer.

When the engine runs with ``trace_requests``, an ``X-Trace-Id`` request
header adopts the client's trace id (loadgen mints deterministic ones)
and every ``POST /jobs`` response carries ``X-Trace-Id`` back; at
shutdown the server flushes the causally-ordered ``serve-events`` JSONL
to ``events_path``.

``SIGTERM``/``SIGINT`` trigger the graceful ladder: stop admitting
(readyz goes red, new jobs 503 ``draining``), wait for in-flight
requests, shut the pool down orphan-free, flush ``metrics.prom``.

:func:`http_request` is the matching client — loadgen, CI smoke and the
tests use it so the whole stack stays dependency-free.
"""

from __future__ import annotations

import asyncio
import json
import signal
from typing import Any, Dict, Optional, Tuple

from .engine import ServeConfig, ServeEngine, ServeResponse

__all__ = ["ServeServer", "http_request", "run_server"]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    503: "Service Unavailable",
}

#: Request bodies past this are refused unread (413) — admission control
#: for bytes, before the job parser's caps see them.
MAX_BODY = 4 * 1024 * 1024


class ServeServer:
    """One engine behind one listening socket."""

    def __init__(
        self,
        engine: ServeEngine,
        host: str = "127.0.0.1",
        port: int = 8750,
        *,
        metrics_path: Optional[str] = None,
        events_path: Optional[str] = None,
    ):
        self.engine = engine
        self.host = host
        self.port = port
        self.metrics_path = metrics_path
        self.events_path = events_path
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop = asyncio.Event()

    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        # Port 0 means "pick one"; record what the kernel chose.
        self.port = self._server.sockets[0].getsockname()[1]

    async def run(self, install_signals: bool = True) -> None:
        """Serve until SIGTERM/SIGINT, then drain gracefully."""
        if self._server is None:
            await self.start()
        if install_signals:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(sig, self._stop.set)
                except (NotImplementedError, RuntimeError):  # pragma: no cover
                    pass  # non-POSIX loop: Ctrl-C still lands as KeyboardInterrupt
        await self._stop.wait()
        await self.shutdown()

    async def shutdown(self) -> None:
        """The SIGTERM ladder: stop admitting, drain, flush, close."""
        self.engine.draining = True  # readyz red + 503s before the drain wait
        if self._server is not None:
            self._server.close()
        await self.engine.drain()
        if self._server is not None:
            await self._server.wait_closed()
        if self.metrics_path:
            with open(self.metrics_path, "w") as fh:
                fh.write(self.engine.metrics.to_prometheus())
        if self.events_path:
            self.engine.flush_events(self.events_path)

    # ------------------------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            response = await self._respond(reader)
        except Exception as exc:  # a broken request must not kill the server
            response = ServeResponse(400, {"status": "invalid", "error": str(exc)})
        try:
            await self._write(writer, response)
        except (ConnectionError, BrokenPipeError):
            pass  # client went away mid-response; its problem
        finally:
            writer.close()

    async def _respond(self, reader: asyncio.StreamReader) -> ServeResponse:
        request_line = (await reader.readline()).decode("latin-1").strip()
        parts = request_line.split()
        if len(parts) < 2:
            return ServeResponse(400, {"status": "invalid", "error": "bad request line"})
        method, path = parts[0].upper(), parts[1].split("?", 1)[0]
        headers: Dict[str, str] = {}
        while True:
            line = (await reader.readline()).decode("latin-1").strip()
            if not line:
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()

        if method == "GET":
            if path == "/healthz":
                ok = self.engine.healthy()
                return ServeResponse(200 if ok else 503, {"status": "ok" if ok else "down"})
            if path == "/readyz":
                ready = self.engine.ready()
                body = {"status": "ready" if ready else "not-ready"}
                if not ready:
                    body["reason"] = (
                        "draining" if self.engine.draining else "breaker-open"
                    )
                return ServeResponse(200 if ready else 503, body)
            if path == "/metrics":
                return ServeResponse(200, {"_raw": self.engine.metrics.to_prometheus()})
            if path == "/statusz":
                return ServeResponse(200, self.engine.statusz())
            return ServeResponse(404, {"status": "invalid", "error": f"no route {path}"})
        if method == "POST" and path == "/jobs":
            length = int(headers.get("content-length", "0") or "0")
            if length > MAX_BODY:
                return ServeResponse(
                    413, {"status": "invalid", "error": f"body {length} > {MAX_BODY}"}
                )
            raw = await reader.readexactly(length) if length else b""
            try:
                payload = json.loads(raw.decode() or "null")
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                return ServeResponse(400, {"status": "invalid", "error": f"bad JSON: {exc}"})
            deadline_s = None
            if "x-deadline-s" in headers:
                try:
                    deadline_s = float(headers["x-deadline-s"])
                except ValueError:
                    return ServeResponse(
                        400, {"status": "invalid", "error": "bad X-Deadline-S"}
                    )
            trace_id = headers.get("x-trace-id") or None
            return await self.engine.submit(
                payload, deadline_s=deadline_s, trace_id=trace_id
            )
        return ServeResponse(405, {"status": "invalid", "error": f"{method} {path}"})

    @staticmethod
    async def _write(writer: asyncio.StreamWriter, response: ServeResponse) -> None:
        if "_raw" in response.body:  # /metrics: text exposition, not JSON
            payload = response.body["_raw"].encode()
            ctype = "text/plain; version=0.0.4"
        else:
            payload = json.dumps(response.body).encode()
            ctype = "application/json"
        reason = _REASONS.get(response.code, "Unknown")
        head = [
            f"HTTP/1.1 {response.code} {reason}",
            f"Content-Type: {ctype}",
            f"Content-Length: {len(payload)}",
            "Connection: close",
        ]
        head.extend(f"{k}: {v}" for k, v in response.headers.items())
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + payload)
        await writer.drain()


async def http_request(
    host: str,
    port: int,
    method: str,
    path: str,
    body: Any = None,
    *,
    headers: Optional[Dict[str, str]] = None,
    timeout_s: float = 60.0,
) -> Tuple[int, Dict[str, str], bytes]:
    """One HTTP exchange against a :class:`ServeServer` (or anything
    speaking close-delimited HTTP/1.1); returns (code, headers, body)."""
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout_s
    )
    try:
        payload = b"" if body is None else json.dumps(body).encode()
        head = [
            f"{method} {path} HTTP/1.1",
            f"Host: {host}:{port}",
            f"Content-Length: {len(payload)}",
            "Connection: close",
        ]
        head.extend(f"{k}: {v}" for k, v in (headers or {}).items())
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + payload)
        await writer.drain()
        # Read to the framed length, never to EOF: the server's worker
        # processes fork while connections are open and inherit the fds,
        # so EOF can lag the parent's close() by a worker lifetime.
        head_blob = await asyncio.wait_for(
            reader.readuntil(b"\r\n\r\n"), timeout_s
        )
        lines = head_blob.decode("latin-1").strip().split("\r\n")
        code = int(lines[0].split()[1])
        resp_headers: Dict[str, str] = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            resp_headers[name.strip().lower()] = value.strip()
        length = int(resp_headers.get("content-length", "0") or "0")
        body_blob = (
            await asyncio.wait_for(reader.readexactly(length), timeout_s)
            if length
            else b""
        )
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError):  # pragma: no cover
            pass
    return code, resp_headers, body_blob


async def run_server(
    config: ServeConfig,
    host: str = "127.0.0.1",
    port: int = 8750,
    *,
    metrics_path: Optional[str] = None,
    events_path: Optional[str] = None,
    announce=print,
) -> None:
    """CLI entry: build engine + server, announce the bound port, serve
    until a stop signal, drain."""
    engine = ServeEngine(config)
    server = ServeServer(
        engine, host, port, metrics_path=metrics_path, events_path=events_path
    )
    await server.start()
    announce(f"repro serve listening on http://{server.host}:{server.port}")
    await server.run()
