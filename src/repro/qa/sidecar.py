"""The serving sidecar: continuous QA off the hot path.

:class:`QASidecar` runs a :class:`~repro.qa.streaming.StreamingEvaluator`
on its own daemon thread behind a bounded queue.  The serving engine
calls :meth:`observe` with every accepted chunk — a non-blocking
enqueue, so QA adds nanoseconds to the request path no matter how
expensive the plugin set is.  When the generator outpaces the
evaluator the queue fills and chunks are *dropped from QA* (never from
clients), with the loss counted in ``repro_qa_dropped_chunks_total`` —
sampled QA that says so beats complete QA that throttles serving.

Verdicts propagate through :meth:`bind`: a plugin latch calls
``latch("qa:<plugin>", ...)`` on the engine's health latch
(:class:`~repro.robust.health.HealthState`), so ``/healthz`` flips 503
with the plugin name and triggering window in its event list — the
same sticky error state as an SP 800-90B screen failure, one layer up.

A plugin that *raises* on the sidecar thread (a real bug — skips are
first-class results, not exceptions) must not take serving down: the
exception is swallowed, counted in ``repro_qa_sidecar_errors_total``
and the offending window abandoned.
"""

from __future__ import annotations

import queue
import threading

from repro import obs
from repro.errors import SpecificationError
from repro.qa.streaming import StreamingEvaluator

__all__ = ["QASidecar"]

_CLOSE = object()


class QASidecar:
    """Feed an evaluator from a serving hot path without blocking it."""

    def __init__(
        self,
        evaluator: StreamingEvaluator,
        *,
        queue_chunks: int = 64,
    ) -> None:
        if queue_chunks < 1:
            raise SpecificationError("queue_chunks must be positive")
        self.evaluator = evaluator
        self._queue: queue.Queue = queue.Queue(maxsize=queue_chunks)
        self._thread: threading.Thread | None = None
        self._closed = False
        self.dropped_chunks = 0
        self.errors = 0

    # -- lifecycle ---------------------------------------------------------------
    def start(self) -> None:
        """Start the worker thread (idempotent)."""
        if self._thread is not None:
            return
        self._closed = False
        self._thread = threading.Thread(
            target=self._run, name="repro-qa-sidecar", daemon=True
        )
        self._thread.start()

    def close(self, timeout: float = 10.0) -> None:
        """Drain the queue, stop the thread (idempotent)."""
        if self._thread is None:
            return
        self._closed = True
        self._queue.put(_CLOSE)
        self._thread.join(timeout)
        self._thread = None

    # -- hot path ----------------------------------------------------------------
    def observe(self, data: bytes) -> None:
        """Enqueue one accepted chunk for evaluation; never blocks.

        A full queue drops the chunk from QA and counts the loss.
        """
        if self._closed:
            return
        try:
            self._queue.put_nowait(bytes(data))
        except queue.Full:
            self.dropped_chunks += 1
            obs.inc("repro_qa_dropped_chunks_total")

    # -- verdict wiring ----------------------------------------------------------
    def bind(self, health) -> None:
        """Latch *health* (a :class:`~repro.robust.health.HealthState`)
        when any plugin latches."""

        def _latch(plugin: str, info: dict) -> None:
            health.latch(f"qa:{plugin}", info)

        self.evaluator.add_latch_listener(_latch)

    # -- worker ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            item = self._queue.get()
            if item is _CLOSE:
                return
            try:
                self.evaluator.feed(item)
            except Exception as exc:  # a plugin bug must not kill serving
                self.errors += 1
                obs.inc(
                    "repro_qa_sidecar_errors_total", exception=type(exc).__name__
                )

    # -- introspection -----------------------------------------------------------
    @property
    def healthy(self) -> bool:
        return self.evaluator.healthy

    def status(self) -> dict:
        """JSON snapshot (``/v1/status``'s ``qa`` block)."""
        out = self.evaluator.status()
        out["dropped_chunks"] = self.dropped_chunks
        out["sidecar_errors"] = self.errors
        out["queue_depth"] = self._queue.qsize()
        return out
