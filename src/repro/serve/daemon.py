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
    Chunked-transfer stream of ``C``-byte frames (default: the grid
    chunk, ``chunk_bytes``, but at most :data:`STREAM_FRAME_BYTES`,
    64 KiB).  With ``n`` the whole window is one lease (contiguous
    bytes); without it the stream is open-ended and leases frame by frame
    until the client disconnects or the daemon drains.
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

**Grid chunks.**  Every response is served from *grid chunks*: the
stream cut at multiples of ``chunk_bytes`` from offset 0.  Each grid
chunk is one :meth:`~repro.serve.engine.ServeEngine.submit`, accepted
once (the fleet's CRC receipt, then the RCT/APT screen and QA), and a
response writes slices of the chunks its lease overlaps.  A chunk a
lease covers whole is private to that response's pipeline.  Only a
lease's first and last chunk can hold a neighbour's bytes too; those
*edge* chunks sit in a small shared table while any lease holds them,
and the chunk the next lease will start in stays there once accepted.
So consecutive small leases read one chunk — 64 4 KiB requests per
256 KiB fleet job — and a lease reuses bytes in flight or already
accepted instead of starting a member round trip of its own.  A shared
chunk is accepted by a task of its own, started by whichever holder
first waits for it: a stalled or disconnected neighbour neither delays
it nor cancels it while another lease still holds it.

**Backpressure.**  ``/v1/bytes`` and ``/v1/stream`` share one ordered
chunk pipeline: up to ``queue_depth`` grid chunks of a response (and
no more than ``queue_depth`` of its pieces — ``/v1/stream`` frames, or
``/v1/bytes`` slices of one chunk each) are in flight in the worker
fleet while this process verifies, screens and writes earlier ones,
strictly in stream order, and each piece is written through
``writer.drain()`` (socket watermarks) before the next is collected.  A
slow reader therefore stalls its own pipeline at most ``queue_depth ×
chunk`` bytes ahead of what the socket accepted (or two ``/v1/stream``
frames, where a frame spans more grid chunks than that) and never slows
other clients, whose pipelines run independently.  That bound is per
connection, and the daemon caps no connection count: at the defaults
(4 × 256 KiB) an unread ``/v1/bytes`` response may hold 1 MiB, an unread
``/v1/stream`` of default 64 KiB frames the one or two grid chunks its
four queued frames span.  All of it runs on the event loop, which
also reads member results as they land
(:meth:`~repro.serve.engine.ServeEngine.acollect`): a chunk crosses no
other thread on its way out.  A response yields the loop once every
``queue_depth`` pieces written, so a stream whose pieces never wait
(tiny frames cut from chunks already accepted, into a socket with room)
cannot hold the loop from its neighbours.  A chunk that still
fails after the head went out (fleet exhausted, no degradation) cancels
the rest and closes the connection: the client sees a truncated body,
never a second status line.

**Request heads.**  A request head is read whole, up to its blank line,
under one deadline: a connection whose head has not fully arrived
``idle_timeout`` after the daemon began to read it is aborted, whether
it sent nothing (an idle keep-alive) or stopped mid-head.  A head must
end in CRLF CRLF: one whose lines end in bare LF never completes and is
closed at that deadline, and one longer than the stream limit (64 KiB)
is closed at once.

**Metrics.**  The fixed-label series a request updates (``requests_total``
for status 200, ``bytes_total``, ``leases_total`` and each endpoint's
``request_seconds``) are bound once, so a request does not look them up
in the registry.  ``request_seconds`` is labelled by route: any path
that is not one of the five routes is ``endpoint="other"``, so unknown
paths cannot grow the series.  The lease and stream gauges are not kept
per request: they are computed when ``/metrics`` is rendered, and once
more when the daemon stops.

**Drain.**  SIGTERM/SIGINT stop the listener, flip ``/healthz`` to 503,
close keep-alive connections idle between requests (a connection whose
next request head has not fully arrived counts as idle), let in-flight
requests finish (open-ended streams end at the next chunk boundary with
a clean chunked terminator), and only cancel stragglers after
``drain_grace`` seconds.  Exit is 0 and the fleet's members are
torn down with ``terminate()`` — no orphans.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import itertools
import json
import logging
import signal
import threading
import time
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from urllib.parse import parse_qsl

from repro import obs
from repro.errors import DeviceFailureError, SpecificationError
from repro.obs import context as trace_context
from repro.obs import flight
from repro.obs.context import TraceContext
from repro.obs.export import render_prometheus
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.tracing import span
from repro.serve.engine import GRID_CHUNK_BYTES, ChunkTicket, ServeEngine
from repro.serve.leases import Lease, LeaseManager

logger = logging.getLogger(__name__)

__all__ = ["DaemonConfig", "ServeDaemon"]

_SERVER_NAME = "repro-serve"

#: The routed paths: the ``endpoint`` label values besides ``"other"``.
_ROUTES = frozenset({"/v1/bytes", "/v1/stream", "/healthz", "/metrics", "/v1/status"})

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@functools.lru_cache(maxsize=64)
def _head_prefix(status: int, content_type: str) -> str:
    """The constant first lines of a response head."""
    return (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
        f"Server: {_SERVER_NAME}\r\n"
        f"Content-Type: {content_type}\r\n"
    )


#: ``/v1/stream``'s widest default frame.  A grid chunk wider than this
#: does not widen the frames, so an unread stream holds the one or two
#: grid chunks its ``queue_depth`` queued frames span, not
#: ``queue_depth`` whole grid chunks.
STREAM_FRAME_BYTES = 1 << 16


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
    chunk_bytes: int = GRID_CHUNK_BYTES  # generation granularity (one fleet job each)
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


class _GridChunk:
    """Grid chunk ``index``: the stream bytes ``[index·C, (index+1)·C)``.

    Submitted once (``ticket``) and accepted once (``data``).  A shared
    chunk (an edge chunk of some lease) is accepted by a ``task`` of its
    own and read by every lease in ``holders``.
    """

    __slots__ = ("index", "shared", "ticket", "task", "data", "holders")

    def __init__(self, index: int, shared: bool) -> None:
        self.index = index
        self.shared = shared
        self.ticket: ChunkTicket | None = None  # submitted, acceptance not begun
        self.task: asyncio.Task | None = None  # a shared chunk's acceptance
        self.data: bytes | None = None  # the accepted bytes
        self.holders: set[int] = set()  # ids of the leases that may read it


class _Request:
    """One parsed HTTP request (method, path, query, headers, peer, trace)."""

    __slots__ = ("method", "path", "query", "headers", "peer", "trace")

    def __init__(self, method: str, target: str, headers: dict[str, str], peer: str) -> None:
        self.method = method
        self.path, _, query = target.partition("?")
        self.query = dict(parse_qsl(query)) if query else {}
        self.headers = headers
        self.peer = peer  # the client's address, for the lease ledger
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
        self._chunk_seq = itertools.count()  # serve.chunk span numbering
        self._shared: dict[int, _GridChunk] = {}  # edge chunks, by grid index
        self._conn_tasks: set[asyncio.Task] = set()
        self._idle: set[asyncio.StreamWriter] = set()  # awaiting a whole request head
        self._draining = False
        self._requests_total = 0
        self._bytes_served = 0
        self._active_streams = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        # a daemon driven without run() (as tests do) counts into a
        # registry of its own; run() binds the live one
        self._bind_metrics(MetricsRegistry())

    def _bind_metrics(self, registry: MetricsRegistry) -> None:
        """Bind the series every request updates once, so a request does
        not look them up; ``request_seconds`` is bound per endpoint on the
        endpoint's first request."""
        self._metrics = registry
        self._ok_total = registry.counter("repro_serve_requests_total", status=200)
        self._bytes_total = registry.counter("repro_serve_bytes_total")
        self._leases_total = registry.counter("repro_serve_leases_total")
        self._request_seconds: dict[str, Histogram] = {}

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
        # the fleet (and its ring, slots of one chunk) forks before any
        # request is accepted; from here on this loop pumps it
        self._loop = asyncio.get_running_loop()
        self.engine.start(chunk_bytes=self.config.chunk_bytes, loop=self._loop)
        obs.enable_metrics()
        self._bind_metrics(obs.registry())
        flight.set_role("daemon")
        tracer = obs.active_tracer()
        if tracer is not None:
            tracer.set_process_name("repro-serve daemon")
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
            for writer in self._idle:  # idle keep-alives: EOF ends their read
                writer.close()
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
            self._set_gauges()  # a --metrics-out snapshot carries them too
            self.engine.close()
            self.leases.close()
            self.started.clear()

    # -- connection handling -----------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        peer = str(writer.get_extra_info("peername"))
        try:
            while not self._draining:
                request = await self._read_request(reader, writer, peer)
                if request is None:
                    break
                self._requests_total += 1
                keep_alive = await self._dispatch(request, writer)
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass  # client went away mid-response
        except asyncio.CancelledError:
            # drain-grace expiry: end quietly, or asyncio logs the
            # cancelled handler as an "Exception in callback" (3.10/3.11)
            pass
        except Exception:
            logger.exception("connection handler failed")
        finally:
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter, peer: str
    ) -> _Request | None:
        """Parse one request head; ``None`` on EOF, a malformed or oversize
        head, or its deadline.

        The whole head must arrive within ``idle_timeout``: one timer per
        head aborts the transport when it fires, which ends the read with
        EOF.  Until the head is in, the connection is idle, and a drain
        closes *writer* at once instead of waiting it out."""
        timer = self._loop.call_later(self.config.idle_timeout, writer.transport.abort)
        self._idle.add(writer)
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            return None
        finally:
            timer.cancel()
            self._idle.discard(writer)
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, target, _version = lines[0].split(None, 2)
        except ValueError:
            return None
        headers: dict[str, str] = {}
        for line in lines[1:-2]:  # the head ends in two empty strings
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        return _Request(method.upper(), target, headers, peer)

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
        parts = [_head_prefix(status, content_type)]
        if chunked:
            parts.append("Transfer-Encoding: chunked\r\n")
        elif content_length is not None:
            parts.append(f"Content-Length: {content_length}\r\n")
        parts.append("Connection: keep-alive\r\n" if keep_alive else "Connection: close\r\n")
        for name, value in (extra or {}).items():
            parts.append(f"{name}: {value}\r\n")
        parts.append("\r\n")
        return "".join(parts).encode("latin-1")

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
        if status == 200:
            self._ok_total.inc()
        else:  # error statuses are rare: they look their series up
            obs.inc("repro_serve_requests_total", 1, status=status)
        return keep_alive

    @staticmethod
    def _json(payload: dict) -> bytes:
        return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()

    # -- routing -----------------------------------------------------------------
    async def _dispatch(self, request: _Request, writer: asyncio.StreamWriter) -> bool:
        t0 = time.perf_counter()
        endpoint = request.path if request.path in _ROUTES else "other"
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
            seconds = self._request_seconds.get(endpoint)
            if seconds is None:
                seconds = self._request_seconds[endpoint] = self._metrics.histogram(
                    "repro_serve_request_seconds", endpoint=endpoint
                )
            seconds.observe(time.perf_counter() - t0)

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

    # -- grid chunks -------------------------------------------------------------
    def _shares(self, lease: Lease, g: int) -> bool:
        """Whether grid chunk *g* holds bytes outside *lease*, so that a
        neighbouring lease may read it too (only a first or last chunk)."""
        size = self.config.chunk_bytes
        return g * size < lease.offset or (g + 1) * size > lease.end

    def _edges(self, lease: Lease) -> list[int]:
        """The grid chunks *lease* shares with its neighbours."""
        size = self.config.chunk_bytes
        ends = {lease.offset // size, (lease.end - 1) // size}
        return [g for g in ends if self._shares(lease, g)]

    def _shared_chunk(self, g: int, lease: Lease) -> _GridChunk:
        """The table's grid chunk *g*, held by *lease* from now on."""
        chunk = self._shared.get(g)
        if chunk is None:
            chunk = self._shared[g] = _GridChunk(g, shared=True)
        chunk.holders.add(lease.lease_id)
        return chunk

    def _lease(self, n: int, client: str) -> Lease:
        """Grant the next *n* stream bytes; the lease holds its edge chunks
        at once, so a neighbour that reads one first cannot forget it."""
        lease = self.leases.acquire(n, client=client)
        self._leases_total.inc()
        for g in self._edges(lease):
            self._shared_chunk(g, lease)
        return lease

    def _release(self, lease: Lease) -> None:
        """Release *lease* and its holds (idempotent).  An edge chunk no
        lease holds is forgotten, and cancelled if not yet accepted —
        unless it is accepted and the next lease will start in it."""
        self.leases.release(lease.lease_id)
        size = self.config.chunk_bytes
        high_water = self.leases.high_water
        for g in self._edges(lease):
            chunk = self._shared.get(g)
            if chunk is None:
                continue
            chunk.holders.discard(lease.lease_id)
            frontier = high_water % size and high_water // size == g
            if chunk.holders or (frontier and chunk.data is not None):
                continue
            del self._shared[g]
            self._abandon(chunk)

    def _open(self, g: int, lease: Lease) -> _GridChunk:
        """Grid chunk *g* for a piece of *lease*: a private chunk when the
        lease covers it whole, else the shared one; submitted unless it
        already was."""
        if self._shares(lease, g):
            chunk = self._shared_chunk(g, lease)
        else:
            chunk = _GridChunk(g, shared=False)
        if chunk.data is None and chunk.ticket is None and chunk.task is None:
            size = self.config.chunk_bytes
            chunk.ticket = self.engine.submit(g * size, size, next(self._chunk_seq))
        return chunk

    async def _accepted(self, chunk: _GridChunk) -> bytes:
        """*chunk*'s bytes once accepted.  A private chunk is accepted
        here; a shared one by its own task, started by the first holder
        to wait, so no holder that stalls or leaves holds it up or
        cancels it for the others."""
        if chunk.data is None:
            if chunk.shared:
                if chunk.task is None:
                    chunk.task = asyncio.get_running_loop().create_task(self._accept(chunk))
                    chunk.task.add_done_callback(functools.partial(self._settled, chunk))
                await asyncio.shield(chunk.task)
            else:
                await self._accept(chunk)
        return chunk.data

    async def _accept(self, chunk: _GridChunk) -> None:
        ticket, chunk.ticket = chunk.ticket, None  # acollect cleans up from here
        chunk.data = await self.engine.acollect(ticket)

    def _settled(self, chunk: _GridChunk, task: asyncio.Task) -> None:
        """A shared chunk that failed or was cancelled is forgotten: a
        later lease submits it again."""
        if (task.cancelled() or task.exception() is not None) and (
            self._shared.get(chunk.index) is chunk
        ):
            del self._shared[chunk.index]

    def _abandon(self, chunk: _GridChunk) -> None:
        """Cancel whatever fleet work *chunk* still has outstanding."""
        if chunk.task is not None:
            chunk.task.cancel()  # a no-op once accepted
        if chunk.ticket is not None:
            self.engine.cancel(chunk.ticket)
            chunk.ticket = None

    # -- data endpoints ----------------------------------------------------------
    async def _pipeline(self, pieces: Iterator[tuple[int, int, Lease, bool]]):
        """Yield the bytes of the pieces named by *pieces*, in stream order.

        *pieces* yields ``(offset, n, lease, own)``: ``n`` bytes at
        *offset* inside *lease*.  An *own* lease is the piece's alone,
        released once its piece is cut or abandoned.  Each piece is cut
        from the grid chunks it overlaps, opened (see :meth:`_open`) as
        the piece is queued; pieces are queued while fewer than
        ``queue_depth`` pieces are queued and ``queue_depth`` grid chunks
        open, and in any case until the head has a successor (so an
        open-ended stream of tiny frames holds at most ``queue_depth``
        leases, and a frame wider than the window still generates while
        the one before it is written).  Each chunk is awaited on the loop
        — its receipt checked and any requeue done by the fleet as the
        loop pumps it, then screened and QA-observed — strictly in order.
        The consumer's ``writer.drain()`` between yields is the
        backpressure: a stalled reader stops the pipeline at most
        ``queue_depth`` grid chunks (or two frames, where ``/v1/stream``
        frames are wider) ahead of what it handed the socket.
        When the consumer stops (finished, failed, disconnected), private
        chunks still in flight are cancelled; shared ones are left to the
        leases that hold them.
        """
        size, depth = self.config.chunk_bytes, self.config.queue_depth
        ahead = min(2, depth)  # pieces always queued: the head and the next
        window: deque[_GridChunk] = deque()  # open grid chunks, in stream order
        queued: deque = deque()  # pieces whose chunks are all open
        try:
            while True:
                while (len(window) < depth and len(queued) < depth) or len(queued) < ahead:
                    piece = next(pieces, None)
                    if piece is None:
                        break
                    offset, n, lease, _ = piece
                    for g in range(offset // size, (offset + n - 1) // size + 1):
                        if not window or window[-1].index < g:
                            window.append(self._open(g, lease))
                    queued.append(piece)
                if not queued:
                    return
                offset, n, lease, own = queued[0]
                end = offset + n
                parts = []
                for chunk in window:
                    base = chunk.index * size
                    if base >= end:
                        break
                    if base + size <= offset:
                        continue  # left over from an earlier, non-adjacent piece
                    data = await self._accepted(chunk)
                    if offset <= base and base + size <= end:
                        parts.append(data)
                    else:
                        parts.append(data[max(offset - base, 0):end - base])
                while window and (window[0].index + 1) * size <= end:
                    window.popleft()
                queued.popleft()
                if own:
                    self._release(lease)
                yield parts[0] if len(parts) == 1 else b"".join(parts)
        finally:
            for chunk in window:
                if not chunk.shared:
                    self._abandon(chunk)
            for _, _, lease, own in queued:
                if own:
                    self._release(lease)

    def _pieces(self, lease: Lease, frame: int = 0) -> Iterator[tuple[int, int, Lease, bool]]:
        """*lease* as pipeline pieces: ``/v1/stream`` frames of *frame*
        bytes, or (``0``) one piece per grid chunk it overlaps."""
        size = self.config.chunk_bytes
        start = lease.offset
        while start < lease.end:
            stop = min(start + frame if frame else start - start % size + size, lease.end)
            yield start, stop - start, lease, False
            start = stop

    async def _send_body(self, writer: asyncio.StreamWriter, head: bytes, chunks, frame) -> bool:
        """Write *head*, then each chunk of *chunks* through *frame*.

        The head waits for the first chunk, so a request whose first
        chunk fails still gets a clean error status (the exception
        propagates to :meth:`_dispatch`).  Once the head is out a failure
        cannot change the status line: the pipeline's in-flight chunks
        are cancelled and ``False`` tells the caller to close the
        connection, which the client sees as a truncated body.
        """
        sent = pieces = 0  # body bytes and pieces handed to the socket
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
                    self._bytes_total.inc(len(data))
                    pieces += 1
                    if pieces % self.config.queue_depth == 0:
                        # drain() returns at once below the high-water
                        # mark: let the neighbours have a turn
                        await asyncio.sleep(0)
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
        lease = self._lease(n, request.peer)
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
            chunks = self._pipeline(self._pieces(lease))
            if not await self._send_body(writer, head, chunks, frame):
                return False
            if fmt == "hex":
                writer.write(b"\n")
                await writer.drain()
        finally:
            self._release(lease)
        self._ok_total.inc()
        return True

    async def _serve_stream(self, request: _Request, writer: asyncio.StreamWriter) -> bool:
        try:
            chunk = int(
                request.query.get("chunk", min(self.config.chunk_bytes, STREAM_FRAME_BYTES))
            )
            total = int(request.query["n"]) if "n" in request.query else None
        except ValueError:
            raise SpecificationError("chunk and n must be integers") from None
        if chunk <= 0:
            raise SpecificationError("chunk must be positive")
        extra = {
            "X-Repro-Algorithm": self.engine.config.algorithm,
            **self._trace_headers(request),
        }
        lease = None
        if total is not None:
            lease = self._lease(total, request.peer)
            extra["X-Repro-Lease-Id"] = str(lease.lease_id)
            extra["X-Repro-Lease-Offset"] = str(lease.offset)
            extra["X-Repro-Lease-Length"] = str(lease.length)
            ranges = self._pieces(lease, chunk)
        else:
            ranges = self._open_ended(chunk, request.peer)
        head = self._head(200, "application/octet-stream", extra, chunked=True)
        self._active_streams += 1
        try:
            if await self._send_body(writer, head, self._pipeline(ranges), _chunked_frame):
                writer.write(b"0\r\n\r\n")
                await writer.drain()
                self._ok_total.inc()
        finally:
            if lease is not None:
                self._release(lease)
            self._active_streams -= 1
        return False  # one stream per connection

    def _open_ended(self, chunk: int, peer: str) -> Iterator[tuple[int, int, Lease, bool]]:
        """One-frame leases, granted as the pipeline asks, until drain."""
        while not self._draining:
            lease = self._lease(chunk, peer)
            yield lease.offset, chunk, lease, True

    # -- operational endpoints ---------------------------------------------------
    async def _serve_healthz(self, writer: asyncio.StreamWriter) -> bool:
        health = self.engine.health.to_dict()
        health["draining"] = self._draining
        ok = health["healthy"] and not self._draining
        return await self._send_simple(writer, 200 if ok else 503, self._json(health))

    def _set_gauges(self) -> None:
        """Compute the daemon's gauges from its state now (at scrape time,
        as Prometheus collectors do), not on every request."""
        gauge = self._metrics.gauge
        gauge("repro_serve_uptime_seconds").set(round(time.monotonic() - self._t0, 3))
        gauge("repro_serve_lease_high_water_bytes").set(self.leases.high_water)
        gauge("repro_serve_active_leases").set(len(self.leases.active_leases()))
        gauge("repro_serve_active_streams").set(self._active_streams)

    async def _serve_metrics(self, writer: asyncio.StreamWriter) -> bool:
        self._set_gauges()
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

