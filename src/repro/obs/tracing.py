"""Span tracing with a Chrome-trace-event exporter.

A *span* is one timed region of the generation pipeline — a refill, a
partition round, a health screen.  Spans nest (a ``gen`` span contains
many ``refill`` spans), carry arbitrary key/value attributes, and record
both wall time and CPU time, so a span that waited on a worker pool is
distinguishable from one that burned the local core.

Every live span also carries distributed-tracing identity from
:mod:`repro.obs.context`: a ``trace_id`` naming the request/battery/job
it belongs to, its own ``span_id``, and the ``parent_id`` of the
enclosing span — in this process or, via the wire tuples the serve and
fleet layers propagate, in another one.  Worker processes record into a
local tracer, :meth:`Tracer.snapshot` the result (timestamps carry a
wall-clock epoch so they can be rebased), ship the plain dict home with
the metrics tuple, and the parent :meth:`Tracer.merge` s it — one
Chrome-trace JSON then shows daemon → controller → worker → kernel
refill on a single timeline.

The exporter writes the Chrome trace-event JSON format (``ph: "X"``
complete events, microsecond timestamps), which loads directly in
Perfetto (https://ui.perfetto.dev) or ``chrome://tracing`` — drop the
``--trace-out`` file onto the UI and read the pipeline's time structure
off the flame chart.

Tracing is off by default.  The disabled path allocates nothing: a
single shared no-op context manager is returned, so instrumenting a hot
loop with ``with span("refill"):`` costs one attribute check when
tracing is off.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field

from repro.obs import context as trace_context
from repro.obs.context import TraceContext

__all__ = ["SpanRecord", "Tracer", "SpanCollector", "DetachedSpan", "span", "detached_span"]

#: Snapshot schema version (bump on breaking layout changes).
TRACE_SNAPSHOT_VERSION = 1

# A flight recorder (repro.obs.flight) installs its span sink here so the
# tracer can feed it without a circular import; ``None`` costs one check.
_span_sink = None


@dataclass(frozen=True)
class SpanRecord:
    """One completed span."""

    name: str
    ts_us: float  # start, microseconds since the tracer's epoch
    dur_us: float  # wall duration, microseconds
    cpu_us: float  # CPU (process) time consumed, microseconds
    pid: int
    tid: int
    depth: int  # nesting depth within its thread (0 = outermost)
    args: dict = field(default_factory=dict)
    # distributed identity; None on spans recorded before PR 8 snapshots
    trace_id: str | None = None
    span_id: str | None = None
    parent_id: str | None = None


class _ThreadState(threading.local):
    depth = 0


class Tracer:
    """Collects :class:`SpanRecord` s and exports Chrome trace JSON."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: list[SpanRecord] = []
        self._epoch = time.perf_counter()
        # wall-clock twin of the perf_counter epoch: lets a parent rebase
        # a child process's timestamps onto its own timeline on merge
        self._epoch_unix = time.time()
        self._tls = _ThreadState()
        self._process_names: dict[int, str] = {}

    # -- recording ---------------------------------------------------------------
    def now_us(self) -> float:
        """Microseconds since this tracer's epoch."""
        return (time.perf_counter() - self._epoch) * 1e6

    def add(self, record: SpanRecord) -> None:
        """Append one completed span."""
        with self._lock:
            self._records.append(record)
        if _span_sink is not None:
            _span_sink(record)

    def set_process_name(self, name: str, pid: int | None = None) -> None:
        """Label a pid's lane in the trace viewer (``process_name`` metadata)."""
        with self._lock:
            self._process_names[pid if pid is not None else os.getpid()] = name

    @property
    def records(self) -> list[SpanRecord]:
        """Copy of the recorded spans (chronological by completion)."""
        with self._lock:
            return list(self._records)

    def clear(self) -> None:
        """Drop all records and restart the epoch."""
        with self._lock:
            self._records.clear()
            self._epoch = time.perf_counter()
            self._epoch_unix = time.time()

    # -- cross-process merge -----------------------------------------------------
    def snapshot(self) -> dict:
        """Picklable dump of this tracer for shipping to a parent process.

        Timestamps stay in this tracer's epoch; ``epoch_unix`` lets the
        receiving :meth:`merge` rebase them onto its own timeline.
        """
        with self._lock:
            records = list(self._records)
            names = dict(self._process_names)
            epoch_unix = self._epoch_unix
        return {
            "version": TRACE_SNAPSHOT_VERSION,
            "epoch_unix": epoch_unix,
            "pid": os.getpid(),
            "process_names": {str(pid): name for pid, name in names.items()},
            "spans": [
                {
                    "name": r.name,
                    "ts_us": r.ts_us,
                    "dur_us": r.dur_us,
                    "cpu_us": r.cpu_us,
                    "pid": r.pid,
                    "tid": r.tid,
                    "depth": r.depth,
                    "args": dict(r.args),
                    "trace_id": r.trace_id,
                    "span_id": r.span_id,
                    "parent_id": r.parent_id,
                }
                for r in records
            ],
        }

    def merge(self, snap: dict | None, extra_args: dict | None = None) -> int:
        """Fold a :meth:`snapshot` from another process into this tracer.

        Child timestamps are rebased via the wall-clock epoch delta so
        the merged spans land at the right place on this tracer's
        timeline (wall clocks across local processes agree to far better
        than span granularity).  Returns the number of spans merged.
        """
        if not snap:
            return 0
        version = snap.get("version")
        if version != TRACE_SNAPSHOT_VERSION:
            raise ValueError(f"unsupported trace snapshot version: {version!r}")
        shift_us = (snap["epoch_unix"] - self._epoch_unix) * 1e6
        merged = 0
        for entry in snap.get("spans", ()):
            args = dict(entry.get("args") or {})
            if extra_args:
                args.update(extra_args)
            self.add(
                SpanRecord(
                    name=entry["name"],
                    ts_us=entry["ts_us"] + shift_us,
                    dur_us=entry["dur_us"],
                    cpu_us=entry["cpu_us"],
                    pid=entry["pid"],
                    tid=entry["tid"],
                    depth=entry["depth"],
                    args=args,
                    trace_id=entry.get("trace_id"),
                    span_id=entry.get("span_id"),
                    parent_id=entry.get("parent_id"),
                )
            )
            merged += 1
        for pid, name in (snap.get("process_names") or {}).items():
            self.set_process_name(name, pid=int(pid))
        return merged

    # -- export ------------------------------------------------------------------
    def to_chrome_trace(self) -> dict:
        """Chrome trace-event JSON object (Perfetto-loadable).

        Each span becomes one complete event (``ph: "X"``); CPU time,
        nesting depth and the distributed-trace ids ride along in
        ``args`` where the trace viewer shows them in the selection
        panel.  Named processes get ``process_name`` metadata events so
        the daemon/controller/worker lanes are labelled.
        """
        events = []
        with self._lock:
            process_names = dict(self._process_names)
        for pid, name in sorted(process_names.items()):
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": name},
                }
            )
        for r in self.records:
            args = dict(r.args)
            args["cpu_us"] = round(r.cpu_us, 1)
            args["depth"] = r.depth
            if r.trace_id is not None:
                args["trace_id"] = r.trace_id
            if r.span_id is not None:
                args["span_id"] = r.span_id
            if r.parent_id is not None:
                args["parent_id"] = r.parent_id
            events.append(
                {
                    "name": r.name,
                    "cat": "repro",
                    "ph": "X",
                    "ts": round(r.ts_us, 1),
                    "dur": round(r.dur_us, 1),
                    "pid": r.pid,
                    "tid": r.tid,
                    "args": args,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write(self, path: str) -> None:
        """Write :meth:`to_chrome_trace` as JSON to *path*."""
        with open(path, "w") as fh:
            json.dump(self.to_chrome_trace(), fh, indent=1)
            fh.write("\n")


class _Span:
    """Live span context manager (only constructed when tracing is on)."""

    __slots__ = (
        "_tracer",
        "_name",
        "_args",
        "_t0",
        "_c0",
        "_ts",
        "_depth",
        "_ctx",
        "_parent_id",
        "_token",
    )

    def __init__(self, tracer: Tracer, name: str, args: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._args = args

    def __enter__(self) -> "_Span":
        tls = self._tracer._tls
        self._depth = tls.depth
        tls.depth += 1
        parent = trace_context.current()
        if parent is None:
            self._parent_id = None
            self._ctx = TraceContext.mint()
        else:
            self._parent_id = parent.span_id
            self._ctx = parent.child()
        self._token = trace_context._set(self._ctx)
        self._ts = self._tracer.now_us()
        self._t0 = time.perf_counter()
        self._c0 = time.process_time()
        return self

    @property
    def context(self) -> TraceContext:
        """This span's trace context (propagate it to children/headers)."""
        return self._ctx

    def __exit__(self, *exc) -> None:
        dur = (time.perf_counter() - self._t0) * 1e6
        cpu = (time.process_time() - self._c0) * 1e6
        self._tracer._tls.depth -= 1
        trace_context._reset(self._token)
        self._tracer.add(
            SpanRecord(
                name=self._name,
                ts_us=self._ts,
                dur_us=dur,
                cpu_us=cpu,
                pid=os.getpid(),
                tid=threading.get_ident(),
                depth=self._depth,
                args=self._args,
                trace_id=self._ctx.trace_id,
                span_id=self._ctx.span_id,
                parent_id=self._parent_id,
            )
        )


class _NoopSpan:
    """Shared do-nothing context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NOOP = _NoopSpan()


def span(name: str, **args):
    """Time one region: ``with span("refill", algo="mickey2"): ...``.

    Returns the shared no-op context manager when tracing is disabled —
    the instrumentation never allocates on the disabled path.
    """
    from repro import obs

    tracer = obs.active_tracer()
    if tracer is None:
        return _NOOP
    return _Span(tracer, name, args)


class DetachedSpan:
    """A span opened in one place and finished in another.

    ``with span(...)`` binds a span to one block of one thread.  A
    pipelined serve chunk is dispatched on the event loop and accepted
    later, after other requests' work ran in between, so its span is
    opened and closed by hand: the context is minted at creation (a
    child of the caller's current context), work started meanwhile — a
    fleet job carrying ``span.context.to_wire()`` — links to it before
    it ends, and :meth:`finish` records it.  Overlapping detached spans are normal.
    """

    __slots__ = ("_tracer", "_name", "_args", "_parent_id", "_ts", "_t0", "_c0", "context")

    def __init__(self, tracer: Tracer, name: str, args: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._args = args
        parent = trace_context.current()
        self._parent_id = parent.span_id if parent is not None else None
        self.context = parent.child() if parent is not None else TraceContext.mint()
        self._ts = tracer.now_us()
        self._t0 = time.perf_counter()
        self._c0 = time.process_time()

    def finish(self, **args) -> None:
        """Record the span, ending now; *args* are added to its own."""
        self._tracer.add(
            SpanRecord(
                name=self._name,
                ts_us=self._ts,
                dur_us=(time.perf_counter() - self._t0) * 1e6,
                cpu_us=(time.process_time() - self._c0) * 1e6,
                pid=os.getpid(),
                tid=threading.get_ident(),
                depth=0,
                args={**self._args, **args},
                trace_id=self.context.trace_id,
                span_id=self.context.span_id,
                parent_id=self._parent_id,
            )
        )


def detached_span(name: str, **args) -> DetachedSpan | None:
    """Open a :class:`DetachedSpan`, or ``None`` while tracing is off."""
    from repro import obs

    tracer = obs.active_tracer()
    return None if tracer is None else DetachedSpan(tracer, name, args)


class SpanCollector:
    """Record a worker's spans under a propagated trace context.

    The worker-side half of cross-process tracing: wrap the unit of work
    in ``with SpanCollector(wire, "worker.job", worker=3) as col:`` and
    every ``span(...)`` inside lands under the caller's trace.  Three
    modes, decided at entry:

    * ``wire is None`` (tracing off at the call site) — pure no-op,
      ``snapshot`` stays ``None``;
    * a tracer is already active in *this* process (inline/degraded
      execution inside the parent) — record straight into it under the
      activated context and ship nothing (``snapshot`` is ``None``; the
      spans are already home);
    * otherwise (a real worker process) — install a fresh local
      :class:`Tracer`, record into it, and expose its :meth:`Tracer
      .snapshot` as ``.snapshot`` after exit for shipping with the
      result tuple.
    """

    __slots__ = (
        "_wire",
        "_name",
        "_args",
        "_mode",
        "_tracer",
        "_cm",
        "_exits",
        "snapshot",
        "_process_name",
    )

    def __init__(self, wire, name: str, process_name: str | None = None, **args):
        self._wire = wire
        self._name = name
        self._args = args
        self.snapshot = None
        self._mode = "off" if wire is None else "pending"
        self._process_name = process_name

    def __enter__(self) -> "SpanCollector":
        self._exits = []
        if self._mode == "off":
            return self
        from repro import obs

        existing = obs.active_tracer()
        if existing is not None:
            self._mode = "inline"
            self._tracer = existing
        else:
            self._mode = "ship"
            self._tracer = Tracer()
            if self._process_name:
                self._tracer.set_process_name(self._process_name)
            obs.enable_tracing(self._tracer)
            self._exits.append(obs.disable_tracing)
        ctx = TraceContext.from_wire(self._wire)
        token = trace_context._set(ctx)
        self._exits.append(lambda: trace_context._reset(token))
        self._cm = _Span(self._tracer, self._name, self._args)
        self._cm.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        if self._mode == "off":
            return
        self._cm.__exit__(*exc)
        for undo in reversed(self._exits):
            undo()
        if self._mode == "ship":
            self.snapshot = self._tracer.snapshot()
