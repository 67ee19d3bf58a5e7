"""``repro serve`` — the asyncio RNG-as-a-service daemon.

A deliberately small HTTP/1.1 server over raw asyncio streams (no web
framework: the container bakes in the scientific stack only), fronting
one :class:`~repro.serve.engine.ServeEngine` and one
:class:`~repro.serve.leases.LeaseManager`:

``GET /v1/bytes?n=N[&format=hex]``
    Lease the next N stream bytes and return them (raw octets, or hex
    with a trailing newline).  The granted range is announced in
    ``X-Repro-Lease-Id`` / ``X-Repro-Lease-Offset`` /
    ``X-Repro-Lease-Length`` response headers, so the client can verify
    the payload against an offline :class:`~repro.core.generator.BSRNG`.
``GET /v1/stream?n=N&chunk=C``
    Chunked-transfer stream.  With ``n`` the whole window is one lease
    (contiguous bytes); without it the stream is open-ended and leases
    chunk by chunk until the client disconnects or the daemon drains.
``GET /healthz``
    200 while the SP 800-90B screen is clean and the daemon accepts
    work; 503 once the RCT/APT verdict latched unhealthy or a drain
    began (load balancers shift traffic before shutdown completes).
``GET /metrics``
    Prometheus text exposition of the live registry
    (:mod:`repro.obs.export`; linted by :mod:`repro.obs.promlint`).
``GET /v1/status``
    JSON snapshot: stream config, lease ledger, chunk dispatch counters,
    health events, uptime — the service twin of
    :class:`~repro.gpu.multigpu.GenerationReport`.

**Backpressure.**  ``/v1/bytes`` and ``/v1/stream`` share one ordered
chunk pipeline: up to ``queue_depth`` chunks of a response are in flight
in the worker pool while this process verifies, screens and writes
earlier ones, strictly in stream order, and each chunk is written
through ``writer.drain()`` (socket watermarks) before the next is
collected.  A slow reader therefore stalls its own pipeline at most
``queue_depth × chunk`` bytes ahead of what the socket accepted; it
never grows daemon memory and never slows other clients, whose
pipelines run independently.  A chunk that still fails after the head
went out (retries exhausted, no degradation) cancels the rest and closes
the connection: the client sees a truncated body, never a second status
line.

**Drain.**  SIGTERM/SIGINT stop the listener, flip ``/healthz`` to 503,
let in-flight requests finish (open-ended streams end at the next chunk
boundary with a clean chunked terminator), and only cancel stragglers
after ``drain_grace`` seconds.  Exit is 0 and the worker pool is torn
down with ``terminate()`` — no orphans.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import json
import logging
import signal
import threading
import time
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from urllib.parse import parse_qsl, urlsplit

from repro import obs
from repro.errors import DeviceFailureError, SpecificationError
from repro.obs import context as trace_context
from repro.obs import flight
from repro.obs.context import TraceContext
from repro.obs.export import render_prometheus
from repro.obs.tracing import span
from repro.serve.engine import ServeEngine
from repro.serve.leases import LeaseManager

logger = logging.getLogger(__name__)

__all__ = ["DaemonConfig", "ServeDaemon"]

_SERVER_NAME = "repro-serve"

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def _raw_frame(data: bytes) -> bytes:
    return data


def _hex_frame(data: bytes) -> bytes:
    return data.hex().encode()


def _chunked_frame(data: bytes) -> bytes:
    """One HTTP/1.1 chunked-transfer frame."""
    return b"%x\r\n" % len(data) + data + b"\r\n"


@dataclass(frozen=True)
class DaemonConfig:
    """Service-level knobs (the stream itself lives in StreamConfig)."""

    host: str = "127.0.0.1"
    port: int = 8797
    chunk_bytes: int = 1 << 16  # generation + streaming granularity
    queue_depth: int = 4  # per-stream buffered chunks (backpressure bound)
    drain_grace: float = 10.0  # seconds in-flight requests get after SIGTERM
    idle_timeout: float = 30.0  # keep-alive connections idle longer are closed
    max_lease_bytes: int = 1 << 30
    journal_path: str | None = None

    def __post_init__(self) -> None:
        if self.chunk_bytes <= 0 or self.queue_depth <= 0:
            raise SpecificationError("chunk_bytes and queue_depth must be positive")
        if self.drain_grace < 0 or self.idle_timeout <= 0:
            raise SpecificationError("need drain_grace >= 0 and idle_timeout > 0")


class _Request:
    """One parsed HTTP request (method, path, query, headers, trace)."""

    __slots__ = ("method", "path", "query", "headers", "trace")

    def __init__(self, method: str, target: str, headers: dict[str, str]) -> None:
        self.method = method
        parts = urlsplit(target)
        self.path = parts.path
        self.query = dict(parse_qsl(parts.query))
        self.headers = headers
        # the TraceContext this request runs under (set by _dispatch:
        # adopted from X-Repro-Trace-* headers or minted fresh)
        self.trace: TraceContext | None = None


class ServeDaemon:
    """The long-lived service: listener, router, lease ledger, drain logic."""

    def __init__(
        self,
        engine: ServeEngine | None = None,
        config: DaemonConfig | None = None,
    ) -> None:
        self.engine = engine or ServeEngine()
        self.config = config or DaemonConfig()
        self.leases = LeaseManager(
            journal_path=self.config.journal_path,
            max_lease_bytes=self.config.max_lease_bytes,
        )
        self.bound_port: int | None = None
        self.started = threading.Event()  # set once the socket is listening
        self._t0 = time.monotonic()
        self._chunk_seq = itertools.count()  # FaultPlan partition key space
        self._conn_tasks: set[asyncio.Task] = set()
        self._draining = False
        self._requests_total = 0
        self._bytes_served = 0
        self._active_streams = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None

    # -- lifecycle ---------------------------------------------------------------
    def request_shutdown(self) -> None:
        """Begin a graceful drain (signal handlers land here)."""
        if self._stop_event is not None and not self._stop_event.is_set():
            logger.info("shutdown requested; draining")
            flight.record(
                "shutdown",
                requests_total=self._requests_total,
                bytes_served=self._bytes_served,
                active_streams=self._active_streams,
            )
            flight.dump("sigterm")
            self._stop_event.set()

    def shutdown_threadsafe(self) -> None:
        """Drain from another thread (benchmarks, embedding tests)."""
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self.request_shutdown)

    async def run(
        self,
        install_signal_handlers: bool = False,
        on_started=None,
    ) -> None:
        """Serve until a shutdown is requested, then drain and exit.

        ``on_started`` is called once the socket is listening (after
        ``bound_port`` is known) — the CLI uses it to print a parseable
        readiness line for supervisors and smoke tests.
        """
        # the pool (and its ring, slots of one chunk) forks before any
        # request thread exists
        self.engine.start(chunk_bytes=self.config.chunk_bytes)
        obs.enable_metrics()
        flight.set_role("daemon")
        tracer = obs.active_tracer()
        if tracer is not None:
            tracer.set_process_name("repro-serve daemon")
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        if install_signal_handlers:
            for sig in (signal.SIGTERM, signal.SIGINT):
                self._loop.add_signal_handler(sig, self.request_shutdown)
        server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.bound_port = server.sockets[0].getsockname()[1]
        logger.info(
            "%s listening on %s:%d (algorithm=%s, workers=%d)",
            _SERVER_NAME,
            self.config.host,
            self.bound_port,
            self.engine.config.algorithm,
            self.engine.workers,
        )
        self.started.set()
        if on_started is not None:
            on_started()
        try:
            await self._stop_event.wait()
            self._draining = True
            server.close()
            await server.wait_closed()
            if self._conn_tasks:
                done, pending = await asyncio.wait(
                    self._conn_tasks, timeout=self.config.drain_grace
                )
                for task in pending:
                    task.cancel()
                if pending:
                    await asyncio.gather(*pending, return_exceptions=True)
                logger.info(
                    "drained %d in-flight connections (%d cancelled)",
                    len(done),
                    len(pending),
                )
        finally:
            self.engine.close()
            self.leases.close()
            self.started.clear()

    # -- connection handling -----------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        try:
            while not self._draining:
                request = await self._read_request(reader)
                if request is None:
                    break
                self._requests_total += 1
                keep_alive = await self._dispatch(request, writer)
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass  # client went away mid-response
        except asyncio.CancelledError:
            raise  # drain-grace expiry: let the task die
        except Exception:
            logger.exception("connection handler failed")
        finally:
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader) -> _Request | None:
        """Parse one request head; ``None`` on EOF or idle timeout."""
        try:
            line = await asyncio.wait_for(
                reader.readline(), timeout=self.config.idle_timeout
            )
        except asyncio.TimeoutError:
            return None
        if not line or not line.strip():
            return None
        try:
            method, target, _version = line.decode("latin-1").split(None, 2)
        except ValueError:
            return None
        headers: dict[str, str] = {}
        while True:
            hline = await reader.readline()
            if not hline or hline in (b"\r\n", b"\n"):
                break
            name, _, value = hline.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        return _Request(method.upper(), target, headers)

    # -- response plumbing -------------------------------------------------------
    @staticmethod
    def _head(
        status: int,
        content_type: str,
        extra: dict[str, str] | None = None,
        content_length: int | None = None,
        chunked: bool = False,
        keep_alive: bool = True,
    ) -> bytes:
        lines = [
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
            f"Server: {_SERVER_NAME}",
            f"Content-Type: {content_type}",
        ]
        if chunked:
            lines.append("Transfer-Encoding: chunked")
        elif content_length is not None:
            lines.append(f"Content-Length: {content_length}")
        lines.append(f"Connection: {'keep-alive' if keep_alive else 'close'}")
        for name, value in (extra or {}).items():
            lines.append(f"{name}: {value}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")

    async def _send_simple(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        content_type: str = "application/json",
        extra: dict[str, str] | None = None,
        keep_alive: bool = True,
    ) -> bool:
        writer.write(
            self._head(
                status,
                content_type,
                extra,
                content_length=len(body),
                keep_alive=keep_alive,
            )
            + body
        )
        await writer.drain()
        obs.inc("repro_serve_requests_total", 1, status=status)
        return keep_alive

    @staticmethod
    def _json(payload: dict) -> bytes:
        return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()

    # -- routing -----------------------------------------------------------------
    async def _dispatch(self, request: _Request, writer: asyncio.StreamWriter) -> bool:
        t0 = time.perf_counter()
        endpoint = request.path
        try:
            ctx_in = TraceContext.from_headers(request.headers)
            if obs.active_tracer() is None:
                # no recording, but still mint/adopt an identity so the
                # response headers let clients correlate across services
                request.trace = ctx_in.child() if ctx_in is not None else TraceContext.mint()
                return await self._route(request, writer)
            with trace_context.activate(ctx_in):
                with span(
                    "serve.request", endpoint=endpoint, method=request.method
                ) as request_span:
                    request.trace = request_span.context
                    return await self._route(request, writer)
        except SpecificationError as exc:
            return await self._send_simple(writer, 400, self._json({"error": str(exc)}))
        except DeviceFailureError as exc:
            return await self._send_simple(writer, 503, self._json({"error": str(exc)}))
        except (ConnectionResetError, BrokenPipeError):
            raise
        except Exception as exc:
            logger.exception("request %s failed", request.path)
            return await self._send_simple(
                writer, 500, self._json({"error": f"{type(exc).__name__}: {exc}"}),
                keep_alive=False,
            )
        finally:
            obs.observe(
                "repro_serve_request_seconds",
                time.perf_counter() - t0,
                endpoint=endpoint,
            )

    async def _route(self, request: _Request, writer: asyncio.StreamWriter) -> bool:
        if request.method != "GET":
            return await self._send_simple(
                writer, 405, self._json({"error": "GET only"})
            )
        if request.path == "/v1/bytes":
            return await self._serve_bytes(request, writer)
        if request.path == "/v1/stream":
            return await self._serve_stream(request, writer)
        if request.path == "/healthz":
            return await self._serve_healthz(writer)
        if request.path == "/metrics":
            return await self._serve_metrics(writer)
        if request.path == "/v1/status":
            return await self._send_simple(writer, 200, self._json(self.status()))
        return await self._send_simple(
            writer, 404, self._json({"error": f"no route {request.path}"})
        )

    @staticmethod
    def _trace_headers(request: _Request) -> dict[str, str]:
        """Response headers echoing the request's trace identity."""
        if request.trace is None:
            return {}
        return {
            trace_context.TRACE_ID_HEADER: request.trace.trace_id,
            "X-Repro-Span-Id": request.trace.span_id,
        }

    # -- data endpoints ----------------------------------------------------------
    async def _pipeline(self, ranges: Iterator[tuple[int, int, int | None]]):
        """Yield the chunks named by *ranges*, in stream order.

        *ranges* yields ``(offset, n, lease_id)``; a non-``None``
        ``lease_id`` is a one-chunk lease released once its chunk is
        collected or cancelled.  Up to ``queue_depth`` chunks are in
        flight in the pool; each is collected — CRC-checked, screened,
        QA-observed, retried in place — on an executor thread, strictly
        in order.  The consumer's ``writer.drain()`` between yields is the
        backpressure: a stalled reader stops the pipeline at most
        ``queue_depth`` chunks ahead of what it handed the socket.  When
        the consumer stops (finished, failed, disconnected), chunks still
        in flight are cancelled.

        The trace context is captured *here*, on the loop, and passed as
        an explicit argument: contextvars do not propagate into
        ``run_in_executor`` threads.
        """
        wire = trace_context.current_wire()
        window: deque = deque()  # (ticket, lease_id), in stream order
        try:
            while True:
                while len(window) < self.config.queue_depth:
                    item = next(ranges, None)
                    if item is None:
                        break
                    offset, n, lease_id = item
                    ticket = self.engine.submit(offset, n, next(self._chunk_seq), wire)
                    window.append((ticket, lease_id))
                if not window:
                    return
                ticket, lease_id = window.popleft()
                try:
                    data = await self._loop.run_in_executor(None, self.engine.collect, ticket)
                finally:
                    if lease_id is not None:
                        self.leases.release(lease_id)
                yield data
        finally:
            for ticket, lease_id in window:
                self.engine.cancel(ticket)
                if lease_id is not None:
                    self.leases.release(lease_id)

    @staticmethod
    def _split(offset: int, n: int, chunk: int) -> Iterator[tuple[int, int, None]]:
        """``(offset, length, None)`` pieces of at most *chunk* bytes."""
        end = offset + n
        for start in range(offset, end, chunk):
            yield start, min(chunk, end - start), None

    async def _send_body(self, writer: asyncio.StreamWriter, head: bytes, chunks, frame) -> bool:
        """Write *head*, then each chunk of *chunks* through *frame*.

        The head waits for the first chunk, so a request whose first
        chunk fails still gets a clean error status (the exception
        propagates to :meth:`_dispatch`).  Once the head is out a failure
        cannot change the status line: the pipeline's in-flight chunks
        are cancelled and ``False`` tells the caller to close the
        connection, which the client sees as a truncated body.
        """
        sent = 0  # body bytes handed to the socket
        high_water = writer.transport.get_write_buffer_limits()[1]
        async with contextlib.aclosing(chunks):
            try:
                async for data in chunks:
                    writer.write(frame(data) if sent else head + frame(data))
                    sent += len(data)
                    if writer.transport.get_write_buffer_size() > high_water:
                        obs.inc("repro_serve_backpressure_waits_total")  # drain will wait
                    await writer.drain()
                    self._bytes_served += len(data)
                    obs.inc("repro_serve_bytes_total", len(data))
            except (ConnectionResetError, BrokenPipeError):
                raise
            except Exception as exc:
                if not sent:
                    raise
                logger.warning(
                    "aborting response after %d body bytes: %s", sent, exc, exc_info=True
                )
                obs.inc("repro_serve_aborted_responses_total", 1, error=type(exc).__name__)
                flight.record("response-aborted", sent=sent, error=str(exc))
                flight.dump("aborted")
                return False
        if not sent:
            writer.write(head)
        return True

    async def _serve_bytes(self, request: _Request, writer: asyncio.StreamWriter) -> bool:
        try:
            n = int(request.query.get("n", ""))
        except ValueError:
            raise SpecificationError("query parameter n must be an integer") from None
        fmt = request.query.get("format", "raw")
        if fmt not in ("raw", "hex"):
            raise SpecificationError("format must be 'raw' or 'hex'")
        peer = writer.get_extra_info("peername")
        lease = self.leases.acquire(n, client=str(peer))
        try:
            extra = {
                "X-Repro-Lease-Id": str(lease.lease_id),
                "X-Repro-Lease-Offset": str(lease.offset),
                "X-Repro-Lease-Length": str(lease.length),
                "X-Repro-Algorithm": self.engine.config.algorithm,
                **self._trace_headers(request),
            }
            content_length = 2 * n + 1 if fmt == "hex" else n
            content_type = "text/plain" if fmt == "hex" else "application/octet-stream"
            head = self._head(200, content_type, extra, content_length=content_length)
            # hex chunks concatenate to the hex of the whole payload
            frame = _hex_frame if fmt == "hex" else _raw_frame
            chunks = self._pipeline(self._split(lease.offset, n, self.config.chunk_bytes))
            if not await self._send_body(writer, head, chunks, frame):
                return False
            if fmt == "hex":
                writer.write(b"\n")
                await writer.drain()
        finally:
            self.leases.release(lease.lease_id)
        obs.inc("repro_serve_requests_total", 1, status=200)
        return True

    async def _serve_stream(self, request: _Request, writer: asyncio.StreamWriter) -> bool:
        try:
            chunk = int(request.query.get("chunk", self.config.chunk_bytes))
            total = int(request.query["n"]) if "n" in request.query else None
        except ValueError:
            raise SpecificationError("chunk and n must be integers") from None
        if chunk <= 0:
            raise SpecificationError("chunk must be positive")
        peer = str(writer.get_extra_info("peername"))
        extra = {
            "X-Repro-Algorithm": self.engine.config.algorithm,
            **self._trace_headers(request),
        }
        lease = None
        if total is not None:
            lease = self.leases.acquire(total, client=peer)
            extra["X-Repro-Lease-Id"] = str(lease.lease_id)
            extra["X-Repro-Lease-Offset"] = str(lease.offset)
            extra["X-Repro-Lease-Length"] = str(lease.length)
            ranges = self._split(lease.offset, total, chunk)
        else:
            ranges = self._open_ended(chunk, peer)
        head = self._head(200, "application/octet-stream", extra, chunked=True)
        self._active_streams += 1
        obs.set_gauge("repro_serve_active_streams", self._active_streams)
        try:
            if await self._send_body(writer, head, self._pipeline(ranges), _chunked_frame):
                writer.write(b"0\r\n\r\n")
                await writer.drain()
                obs.inc("repro_serve_requests_total", 1, status=200)
        finally:
            if lease is not None:
                self.leases.release(lease.lease_id)
            self._active_streams -= 1
            obs.set_gauge("repro_serve_active_streams", self._active_streams)
        return False  # one stream per connection

    def _open_ended(self, chunk: int, peer: str) -> Iterator[tuple[int, int, int]]:
        """One-chunk leases, granted as the pipeline asks, until drain."""
        while not self._draining:
            piece = self.leases.acquire(chunk, client=peer)
            yield piece.offset, chunk, piece.lease_id

    # -- operational endpoints ---------------------------------------------------
    async def _serve_healthz(self, writer: asyncio.StreamWriter) -> bool:
        health = self.engine.health.to_dict()
        health["draining"] = self._draining
        ok = health["healthy"] and not self._draining
        return await self._send_simple(writer, 200 if ok else 503, self._json(health))

    async def _serve_metrics(self, writer: asyncio.StreamWriter) -> bool:
        obs.set_gauge("repro_serve_uptime_seconds", round(time.monotonic() - self._t0, 3))
        text = render_prometheus(obs.registry().snapshot())
        return await self._send_simple(
            writer,
            200,
            text.encode(),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )

    def status(self) -> dict:
        """The ``/v1/status`` document (also usable in-process)."""
        return {
            "server": {
                "uptime_s": round(time.monotonic() - self._t0, 3),
                "draining": self._draining,
                "requests_total": self._requests_total,
                "bytes_served": self._bytes_served,
                "active_streams": self._active_streams,
                "chunk_bytes": self.config.chunk_bytes,
                "queue_depth": self.config.queue_depth,
            },
            "engine": self.engine.status(),
            "leases": self.leases.stats(),
        }

