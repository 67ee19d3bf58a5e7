"""Trace-context propagation across threads, tasks, and processes.

A :class:`TraceContext` is the pair ``(trace_id, span_id)`` — *which*
request this work belongs to and *which* span is its parent.  The serve
daemon mints one per HTTP request (or adopts the caller's from
``X-Repro-Trace-Id`` / ``X-Repro-Parent-Span`` headers), and the context
then travels two ways:

* **within a process** via a :class:`contextvars.ContextVar`, which is
  what makes it safe under asyncio — each task sees the context that was
  current when it was created, and interleaved requests cannot clobber
  each other the way a ``threading.local`` would;
* **across processes** explicitly, as a plain ``(trace_id, span_id)``
  wire tuple riding in worker job tuples and fleet
  :class:`~repro.fleet.transport.ChunkJob` fields.  ``contextvars`` do
  *not* cross ``multiprocessing`` boundaries, so a member re-activates
  the context from the wire form on the far side.  The daemon itself
  never hands a request's work to another thread — it submits and
  collects every chunk on its event loop, inside the request task's
  context — so no wire form is needed in-process.

Identifier scheme: trace ids are 32 hex chars from ``os.urandom`` (one
per root span — cheap enough); span ids are 16 hex chars built from the
pid and a process-local counter, so they are unique across the fleet
without any randomness on the per-span hot path.
"""

from __future__ import annotations

import itertools
import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

__all__ = [
    "TraceContext",
    "TRACE_ID_HEADER",
    "PARENT_SPAN_HEADER",
    "new_span_id",
    "current",
    "current_wire",
    "activate",
]

#: Request/response header carrying the 32-hex trace id.
TRACE_ID_HEADER = "X-Repro-Trace-Id"
#: Request header naming the caller's span (the server span's parent).
PARENT_SPAN_HEADER = "X-Repro-Parent-Span"

_counter = itertools.count(1)


def new_span_id() -> str:
    """A 16-hex span id unique across processes (pid + local counter)."""
    return f"{os.getpid() & 0xFFFFFFFF:08x}{next(_counter) & 0xFFFFFFFF:08x}"


def _is_hex(value: str, length: int) -> bool:
    if len(value) != length:
        return False
    try:
        int(value, 16)
    except ValueError:
        return False
    return True


@dataclass(frozen=True)
class TraceContext:
    """One point on a trace: the trace it belongs to and the current span."""

    trace_id: str
    span_id: str

    @staticmethod
    def mint() -> "TraceContext":
        """A fresh root context (new trace id, new span id)."""
        return TraceContext(os.urandom(16).hex(), new_span_id())

    def child(self) -> "TraceContext":
        """Same trace, fresh span id — the context a child span runs under."""
        return TraceContext(self.trace_id, new_span_id())

    # -- wire form (job tuples, ChunkJob.trace) -----------------------------------
    def to_wire(self) -> tuple[str, str]:
        """Picklable ``(trace_id, span_id)`` pair for cross-process hops."""
        return (self.trace_id, self.span_id)

    @staticmethod
    def from_wire(wire) -> "TraceContext | None":
        """Rebuild from :meth:`to_wire` output; ``None`` passes through."""
        if wire is None:
            return None
        trace_id, span_id = wire
        return TraceContext(str(trace_id), str(span_id))

    # -- HTTP header form ----------------------------------------------------------
    def to_headers(self) -> dict[str, str]:
        """Outgoing propagation headers for an HTTP hop."""
        return {TRACE_ID_HEADER: self.trace_id, PARENT_SPAN_HEADER: self.span_id}

    @staticmethod
    def from_headers(headers) -> "TraceContext | None":
        """Parse propagation headers (case-insensitive mapping).

        Returns ``None`` when the trace-id header is absent or malformed
        — a bad caller must never break request handling.  A missing or
        malformed parent span degrades to a fresh span id (the trace is
        still joined, just without the cross-service parent link).
        """
        trace_id = headers.get(TRACE_ID_HEADER.lower()) or headers.get(TRACE_ID_HEADER)
        if not trace_id or not _is_hex(trace_id, 32):
            return None
        parent = headers.get(PARENT_SPAN_HEADER.lower()) or headers.get(
            PARENT_SPAN_HEADER
        )
        if not parent or not _is_hex(parent, 16):
            parent = new_span_id()
        return TraceContext(trace_id, parent)


_current: ContextVar[TraceContext | None] = ContextVar("repro_trace", default=None)


def current() -> TraceContext | None:
    """The trace context of the running task/thread, or ``None``."""
    return _current.get()


def current_wire() -> tuple[str, str] | None:
    """Wire form of :func:`current` — what job builders stamp on tuples."""
    ctx = _current.get()
    return None if ctx is None else ctx.to_wire()


@contextmanager
def activate(ctx: TraceContext | None):
    """Make *ctx* current for the duration of the block."""
    token = _current.set(ctx)
    try:
        yield ctx
    finally:
        _current.reset(token)


# internal: token-based set/reset used by the live span context manager,
# where a generator-based contextmanager per span would be pure overhead
def _set(ctx: TraceContext | None):
    return _current.set(ctx)


def _reset(token) -> None:
    _current.reset(token)
