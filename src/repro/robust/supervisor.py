"""Partition supervision: retry, timeout, backoff and verified receipt.

The paper's §5.4 scale-out is a straight ``pool.map`` — split the
counter space, run every partition, concatenate.  That works only while
every device always answers.  This supervisor wraps the same fan-out
with the failure handling a production deployment needs:

* a **per-partition timeout** — a hung device does not hang the job;
* **retry with exponential backoff** — failed or timed-out partitions
  are resubmitted on a fresh pool.  Each partition is a pure function of
  ``(seed, start_block, n_blocks)``, so a retried partition regenerates
  *byte-identical* data and the reconstructed stream is unaffected;
* **CRC verification** — workers checksum their payload before
  returning it (:func:`repro.crc.table_crc_bytes`); the supervisor
  recomputes on receipt and treats a mismatch as a failed attempt;
* **graceful degradation** — when the worker pool has exhausted its
  retries, remaining partitions run in-process sequentially rather than
  failing the job (disable with ``degrade_sequential=False`` to get a
  :class:`~repro.errors.DeviceFailureError` instead).

Pool hygiene: every round builds its pool with ``maxtasksperchild=1`` so
a worker process never serves two partitions — state corrupted by one
attempt cannot leak into a retry — and tears the pool down with
``terminate()`` in a ``finally`` block, so a ``KeyboardInterrupt``
mid-round leaves no orphaned workers behind.
"""

from __future__ import annotations

import functools
import logging
import multiprocessing as mp
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro import obs
from repro.core.ring import resolve_start_method
from repro.crc import CRC32_IEEE, table_crc_bytes
from repro.errors import DeviceFailureError, PartitionCorruptionError, SpecificationError
from repro.obs import flight
from repro.obs.tracing import SpanCollector, span

if TYPE_CHECKING:
    from repro.robust.faults import FaultPlan

logger = logging.getLogger(__name__)

__all__ = [
    "SupervisorConfig",
    "PartitionEvent",
    "SupervisorReport",
    "PartitionSupervisor",
    "payload_crc",
    "attempt_shell",
    "worker_attempt",
]


def payload_crc(payload: bytes | np.ndarray) -> int:
    """CRC-32 over a partition payload's canonical byte form.

    Workers call this before returning; the supervisor calls it again on
    receipt — both sides must agree on the byte serialisation, hence one
    shared helper.
    """
    data = payload.tobytes() if isinstance(payload, np.ndarray) else payload
    return table_crc_bytes(CRC32_IEEE, data)


def attempt_shell(
    partition: int,
    attempt: int,
    plan: FaultPlan | None,
    produce: Callable[[], Any],
    trace=None,
    span_name: str = "worker.attempt",
    process_name: str | None = None,
    **span_args,
) -> tuple[Any, int, dict | None]:
    """One worker attempt → ``(result, crc, spans)``: the one fault/CRC/span shell.

    Every process-level worker body runs in here, keyed by ``(partition,
    attempt)``: *plan*'s pre-generation faults (crash, delay); then
    ``produce()`` under a :class:`~repro.obs.tracing.SpanCollector`
    (when *trace* carries a wire pair, the spans ship home as the third
    element); then the CRC receipt, taken *before* the post-generation
    faults so injected corruption looks like a damaged transfer; then
    those faults, which keep an ndarray payload's dtype and shape.

    ``produce`` returns ``bytes`` or an ndarray; the receipt is always
    one cold :func:`payload_crc` pass over it.  No metrics scope: the
    serve pool calls this directly and ships none; every other worker
    goes through :func:`worker_attempt`.
    """
    if plan is not None:
        plan.pre_generate(partition, attempt)
    with SpanCollector(
        trace,
        span_name,
        process_name=process_name,
        partition=partition,
        attempt=attempt,
        **span_args,
    ) as collector:
        payload = produce()
    crc = payload_crc(payload)
    if plan is not None:
        data = payload.tobytes() if isinstance(payload, np.ndarray) else payload
        mutated = plan.post_generate(partition, attempt, data)
        if mutated is not data:
            payload = (
                np.frombuffer(mutated, dtype=payload.dtype).reshape(payload.shape)
                if isinstance(payload, np.ndarray)
                else mutated
            )
    return payload, crc, collector.snapshot


def worker_attempt(
    partition: int,
    attempt: int,
    plan: FaultPlan | None,
    produce: Callable[[], Any],
    **shell_args,
) -> tuple[Any, int, dict, dict | None]:
    """:func:`attempt_shell` in a fresh :func:`repro.obs.scoped` registry
    (spawn-safe: made here, never inherited) → ``(result, crc, metrics,
    spans)``, the one result shape :class:`PartitionSupervisor` and the
    fleet controller consume."""
    with obs.scoped() as reg:
        payload, crc, spans = attempt_shell(partition, attempt, plan, produce, **shell_args)
        metrics = reg.snapshot()
    return payload, crc, metrics, spans


@dataclass(frozen=True)
class SupervisorConfig:
    """Retry/timeout/degrade policy for one generation job (the CRC
    receipt of every result is always checked)."""

    timeout: float | None = None  # seconds per partition round; None = wait forever
    max_retries: int = 2  # pool rounds after the first (attempts = 1 + max_retries)
    backoff_base: float = 0.05  # sleep before retry round r: base * factor**(r-1)
    backoff_factor: float = 2.0
    degrade_sequential: bool = True
    maxtasksperchild: int | None = 1
    #: Pool size cap.  ``None`` (the historical behaviour) sizes each
    #: round's pool to the number of pending partitions — right when a
    #: partition models a physical device.  Shard-style jobs (many more
    #: work units than cores, e.g. the parallel NIST battery) set an
    #: explicit worker count; queued shards then share the capped pool
    #: and the round deadline scales by the resulting number of waves.
    processes: int | None = None

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise SpecificationError("timeout must be positive (or None)")
        if self.max_retries < 0:
            raise SpecificationError("max_retries must be non-negative")
        if self.backoff_base < 0 or self.backoff_factor < 1.0:
            raise SpecificationError("need backoff_base >= 0 and backoff_factor >= 1")
        if self.processes is not None and self.processes <= 0:
            raise SpecificationError("processes must be positive (or None)")

    def backoff(self, round_index: int) -> float:
        """Sleep before retry round *round_index* (1-based)."""
        return self.backoff_base * self.backoff_factor ** (round_index - 1)


@dataclass
class PartitionEvent:
    """One observed partition failure or recovery action."""

    partition: int
    attempt: int
    kind: str  # "error" | "timeout" | "corrupt" | "degraded"
    detail: str = ""


@dataclass
class SupervisorReport:
    """What the supervisor saw while completing a job."""

    events: list[PartitionEvent] = field(default_factory=list)
    attempts: dict[int, int] = field(default_factory=dict)
    degraded: bool = False
    #: Per-partition wall time from job start to the partition's final
    #: outcome (seconds): the accepted result, or — for partitions that
    #: failed or were evicted mid-attempt — the last observed failure.
    #: Timing failed attempts too is what makes fleet drain latency
    #: measurable; an accepted result always overwrites failure times.
    partition_wall: dict[int, float] = field(default_factory=dict)
    #: Per-partition metrics snapshots shipped back by instrumented workers.
    worker_metrics: dict[int, dict] = field(default_factory=dict)

    @property
    def retried_partitions(self) -> set[int]:
        """Partitions that needed more than one attempt."""
        return {pid for pid, n in self.attempts.items() if n > 1}

    def record(self, event: PartitionEvent) -> None:
        """Append one event (logged at WARNING: every event is a failure
        or a recovery action, never normal operation)."""
        self.events.append(event)
        logger.warning(
            "partition %d attempt %d: %s%s",
            event.partition,
            event.attempt,
            event.kind,
            f" ({event.detail})" if event.detail else "",
        )
        obs.inc("repro_supervisor_events_total", 1, kind=event.kind)


class PartitionSupervisor:
    """Run partition jobs through a worker pool with failure recovery.

    Parameters
    ----------
    worker:
        A picklable module-level function ``worker(payload, attempt) ->
        (result, crc, metrics_or_None, spans_or_None)`` — the
        :func:`worker_attempt` result shape; a result whose receipt does
        not match its bytes is a failed attempt.  The attempt number is
        threaded through so deterministic fault plans can key on it.
    mp_context:
        ``"fork"`` / ``"spawn"`` / ``None`` (auto: fork where available).
        Anything but a start-method name is rejected, so a policy passed
        positionally here cannot be silently dropped.
    config:
        The :class:`SupervisorConfig` policy.
    """

    def __init__(
        self,
        worker: Callable[[Any, int], tuple[Any, int, dict | None, dict | None]],
        mp_context: str | None = None,
        config: SupervisorConfig | None = None,
    ) -> None:
        self.worker = worker
        if mp_context is not None and not isinstance(mp_context, str):
            raise SpecificationError(
                f"mp_context must be a start-method name or None, not {type(mp_context).__name__}"
            )
        self.mp_context = resolve_start_method(mp_context)
        self.config = config or SupervisorConfig()
        self.report = SupervisorReport()
        self._job_t0 = time.monotonic()
        #: Optional payload materialiser, applied to every worker result
        #: before CRC verification.  Ring-aware callers install
        #: :meth:`repro.core.ring.SharedMemoryRing.resolve` here so
        #: shared-memory slot refs become bytes exactly once, in the
        #: parent — and a torn slot write fails verification the same
        #: way a corrupted pickled payload would.
        self.resolve: Callable[[Any], Any] | None = None

    def _materialise(self, result: Any) -> Any:
        return result if self.resolve is None else self.resolve(result)

    # -- attempt bookkeeping -----------------------------------------------------
    def _accepted(
        self, pid: int, metrics: dict | None, spans: dict | None = None
    ) -> None:
        """Book-keeping for one accepted partition result."""
        wall = time.monotonic() - self._job_t0
        self.report.partition_wall[pid] = wall
        if metrics is not None:
            self.report.worker_metrics[pid] = metrics
        if spans is not None:
            tracer = obs.active_tracer()
            if tracer is not None:
                tracer.merge(spans, extra_args={"partition": pid})
        obs.observe("repro_supervisor_partition_seconds", wall)

    def _failed(self, pid: int, event: PartitionEvent) -> None:
        """Record one failed attempt *with* its wall time.

        A partition abandoned mid-attempt (timeout, crash, eviction)
        still gets a ``partition_wall`` entry — job start to the failure
        — so drain latency is measurable even when no result was ever
        accepted.  A later accepted attempt overwrites it.
        """
        self.report.record(event)
        self.report.partition_wall[pid] = time.monotonic() - self._job_t0
        flight.record(
            "partition-failure",
            partition=pid,
            attempt=event.attempt,
            failure=event.kind,
            detail=event.detail,
        )

    def _settle(self, pid: int, attempt: int, get: Callable[[], tuple], results: dict) -> bool:
        """Collect one attempt's result, verify its receipt, accept it.

        A timeout, a worker exception or a CRC mismatch is recorded as a
        failed attempt instead; returns whether the result was accepted.
        """
        try:
            result, crc, metrics, spans = get()
            result = self._materialise(result)
        except mp.TimeoutError:
            event = PartitionEvent(
                pid, attempt, "timeout", f"no result within {self.config.timeout}s"
            )
        except Exception as exc:  # worker raised (crash, bad state, ...)
            event = PartitionEvent(pid, attempt, "error", f"{type(exc).__name__}: {exc}")
        else:
            got = payload_crc(result)
            if got == crc:
                results[pid] = result
                self._accepted(pid, metrics, spans)
                return True
            event = PartitionEvent(
                pid,
                attempt,
                "corrupt",
                f"crc mismatch: worker 0x{crc or 0:08x}, received 0x{got:08x}",
            )
        self._failed(pid, event)
        return False

    def _bump(self, pid: int) -> None:
        n = self.report.attempts.get(pid, 0) + 1
        self.report.attempts[pid] = n
        obs.inc("repro_supervisor_attempts_total")
        if n > 1:
            obs.inc("repro_supervisor_retries_total")

    # -- pool round --------------------------------------------------------------
    def _run_round(self, pending: dict[int, Any], results: dict[int, Any], attempt: int) -> None:
        """One pool pass over every pending partition."""
        cfg = self.config
        ctx = mp.get_context(self.mp_context)
        procs = len(pending) if cfg.processes is None else min(cfg.processes, len(pending))
        pool = ctx.Pool(processes=procs, maxtasksperchild=cfg.maxtasksperchild)
        try:
            handles = {
                pid: pool.apply_async(self.worker, (payload, attempt))
                for pid, payload in pending.items()
            }
            deadline = None
            if cfg.timeout is not None:
                # with a capped pool the pending partitions drain in
                # waves; a queued partition must not be charged for the
                # wait behind partitions that ran first
                waves = -(-len(pending) // procs)
                deadline = time.monotonic() + cfg.timeout * waves
            for pid, handle in handles.items():
                self._bump(pid)
                wait = None if deadline is None else max(0.0, deadline - time.monotonic())
                self._settle(pid, attempt, functools.partial(handle.get, wait), results)
            for pid in results:
                pending.pop(pid, None)
        finally:
            # terminate (not close): hung or slow workers must die with the
            # round, including on KeyboardInterrupt — no orphaned processes.
            pool.terminate()
            pool.join()

    # -- in-process path ---------------------------------------------------------
    def _run_inline(
        self,
        pending: dict[int, Any],
        results: dict[int, Any],
        first_attempt: int,
    ) -> None:
        """Sequential in-process execution with the same retry policy.

        Used for ``parallel=False`` jobs and as the degraded fallback
        once the worker pool is exhausted.  Timeouts cannot be enforced
        in-process; errors and CRC failures still consume attempts.
        """
        cfg = self.config
        for pid in sorted(pending):
            for attempt in range(first_attempt, first_attempt + cfg.max_retries + 1):
                self._bump(pid)
                if attempt > first_attempt:
                    time.sleep(cfg.backoff(attempt - first_attempt))
                job = functools.partial(self.worker, pending[pid], attempt)
                if self._settle(pid, attempt, job, results):
                    break
            else:
                last = self.report.events[-1]  # this partition's final failure
                raise (
                    PartitionCorruptionError(f"partition {pid}: {last.detail}")
                    if last.kind == "corrupt"
                    else DeviceFailureError(
                        f"partition {pid} failed every attempt (last: {last.detail})"
                    )
                )
        for pid in results:
            pending.pop(pid, None)

    # -- entry point -------------------------------------------------------------
    def run(self, jobs: dict[int, Any], parallel: bool = True) -> dict[int, Any]:
        """Complete every job; returns ``{partition_id: result}``.

        Raises :class:`DeviceFailureError` only when a partition fails
        every pool attempt *and* every degraded in-process attempt (or
        degradation is disabled).
        """
        self.report = SupervisorReport()
        self._job_t0 = time.monotonic()
        results: dict[int, Any] = {}
        pending = dict(jobs)
        if not pending:
            return results
        cfg = self.config
        if parallel and len(pending) > 1:
            for round_index in range(cfg.max_retries + 1):
                if round_index > 0:
                    time.sleep(cfg.backoff(round_index))
                with span("supervisor.round", round=round_index, partitions=len(pending)):
                    self._run_round(pending, results, attempt=round_index)
                if not pending:
                    return results
            if not cfg.degrade_sequential:
                pid = min(pending)
                last = [e for e in self.report.events if e.partition == pid]
                raise DeviceFailureError(
                    f"partition {pid} failed {self.report.attempts.get(pid, 0)} pool attempts"
                    + (f" (last: {last[-1].kind}: {last[-1].detail})" if last else "")
                )
            self.report.degraded = True
            obs.inc("repro_supervisor_degraded_jobs_total")
            for pid in sorted(pending):
                self.report.record(
                    PartitionEvent(pid, cfg.max_retries + 1, "degraded", "pool exhausted; running in-process")
                )
            with span("supervisor.degraded", partitions=len(pending)):
                self._run_inline(pending, results, first_attempt=cfg.max_retries + 1)
        else:
            self._run_inline(pending, results, first_attempt=0)
        return results
