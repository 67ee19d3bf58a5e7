"""Partition supervision: attempt budget, verified receipt, degrade.

The paper's §5.4 scale-out is a straight ``pool.map`` — split the
counter space, run every partition, concatenate — which works only while
every device answers.  :class:`PartitionSupervisor` runs the fan-out as
jobs on an ephemeral :class:`~repro.fleet.controller.FleetController`
(the substrate that serves every daemon chunk), whose heartbeat deadline
is the per-partition timeout and whose CRC receipt check turns a damaged
transfer into a failed attempt.  On top it keeps the policy a batch job
needs and the daemon does not:

* **an attempt budget** — every requeue the fleet reports is one failed
  attempt, recorded as a :class:`PartitionEvent`.  A partition is a pure
  function of its arguments (``(seed, start_block, n_blocks)`` for a
  stream range), so a retry regenerates *byte-identical* data;
* **graceful degradation** — a partition that spent its attempts (or
  every partition, once the fleet's eviction budget is spent) runs
  in-process rather than failing the job (``degrade_sequential=False``
  raises :class:`~repro.errors.DeviceFailureError` instead);
* **the report** — events, attempts, wall times, worker metrics.

A member runs one partition at a time, so a crash requeues only the
partition that caused it; the fleet is closed in a ``finally`` block,
so not even a ``KeyboardInterrupt`` leaves a worker behind.
"""

from __future__ import annotations

import logging
import math
import time
import zlib
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro import obs
from repro.core.ring import resolve_start_method
from repro.errors import DeviceFailureError, PartitionCorruptionError, SpecificationError
from repro.obs import context as trace_context
from repro.obs import flight
from repro.obs.tracing import SpanCollector, span

if TYPE_CHECKING:
    from repro.robust.faults import FaultPlan
    from repro.serve.engine import StreamConfig

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

#: A requeue's cause (:data:`repro.fleet.controller.EVICTION_REASONS`) →
#: the failed attempt's event kind.
_EVENT_KINDS = {"heartbeat": "timeout", "crash": "error", "corrupt": "corrupt"}


def payload_crc(payload: bytes | bytearray | memoryview | np.ndarray) -> int:
    """CRC-32 receipt of a payload: ``zlib.crc32`` over its buffer as given.

    Workers call this before returning; the fleet parent calls it again on
    receipt — both sides must agree on the byte serialisation, hence one
    shared helper.  Bytes, bytearray, memoryview and ndarray buffers are
    read in place (an ndarray in C order, as ``tobytes`` would give, with
    no copy unless it is not C-contiguous).  This is CRC-32-IEEE in zlib's
    reflected form, not the paper's MSB-first register (:mod:`repro.crc`):
    a receipt is never served or stored, only compared between a member
    and its parent from the same build.
    """
    if isinstance(payload, np.ndarray):
        payload = np.ascontiguousarray(payload)
    return zlib.crc32(payload)


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
    one cold :func:`payload_crc` pass over it.  No metrics scope: a
    served chunk runs in here directly (its member collects into one
    registry of its own and ships it with its heartbeats); a partition
    attempt goes through :func:`worker_attempt`.
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
    spans)``, the one result shape :class:`PartitionSupervisor` consumes."""
    with obs.scoped() as reg:
        payload, crc, spans = attempt_shell(partition, attempt, plan, produce, **shell_args)
        metrics = reg.snapshot()
    return payload, crc, metrics, spans


@dataclass(frozen=True)
class SupervisorConfig:
    """Retry/timeout/degrade policy for one generation job (the CRC
    receipt of every result is always checked)."""

    #: The fleet's heartbeat deadline, seconds; ``None`` = none (a dead
    #: worker is still caught by its carrier).
    timeout: float | None = None
    max_retries: int = 2  # fleet attempts after the first (attempts = 1 + max_retries)
    degrade_sequential: bool = True
    #: Worker cap.  ``None`` runs one worker per partition — right when
    #: a partition models a physical device; shard-style jobs (the
    #: parallel NIST battery) cap it and queued shards wait for a worker.
    processes: int | None = None

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise SpecificationError("timeout must be positive (or None)")
        if self.max_retries < 0:
            raise SpecificationError("max_retries must be non-negative")
        if self.processes is not None and self.processes <= 0:
            raise SpecificationError("processes must be positive (or None)")


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
    """Run partition jobs on an ephemeral worker fleet with failure recovery.

    Parameters
    ----------
    body:
        A picklable module-level function: a job's ``args`` run as
        ``body(*args)`` → ``bytes`` or an ndarray.  ``None``: every job
        is a stream range, ``args = (offset, length)`` of *stream*.
    mp_context:
        ``"fork"`` / ``"spawn"`` / ``None`` (auto: fork where available).
        Anything but a start-method name is rejected, so a policy passed
        positionally here cannot be silently dropped.
    config:
        The :class:`SupervisorConfig` policy.
    stream:
        The :class:`~repro.serve.engine.StreamConfig` range jobs draw
        from (its kernel is imported before any worker forks).
    fault_plan:
        :class:`~repro.robust.faults.FaultPlan` keyed by ``(partition,
        attempt)``; ``None`` falls back to ``REPRO_FAULT_PLAN``.
    """

    def __init__(
        self,
        body: Callable[..., Any] | None = None,
        mp_context: str | None = None,
        config: SupervisorConfig | None = None,
        *,
        stream: StreamConfig | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        self.body = body
        if mp_context is not None and not isinstance(mp_context, str):
            raise SpecificationError(
                f"mp_context must be a start-method name or None, not {type(mp_context).__name__}"
            )
        self.mp_context = resolve_start_method(mp_context)
        self.config = config or SupervisorConfig()
        self.stream = stream
        self.fault_plan = fault_plan
        self.report = SupervisorReport()
        self._job_t0 = time.monotonic()

    def _job(self, pid: int, args: tuple, wire: tuple | None):
        from repro.fleet.transport import ChunkJob

        if self.body is None:  # args = (offset, length)
            return ChunkJob(pid, *args, trace=wire, partition=pid)
        return ChunkJob(pid, trace=wire, body=self.body, args=tuple(args), partition=pid)

    # -- attempt bookkeeping -----------------------------------------------------
    def _accepted(self, pid: int, metrics: dict | None) -> None:
        """Book-keeping for one accepted partition result.  Its spans are
        home already: merged by the fleet, or recorded in-process."""
        wall = time.monotonic() - self._job_t0
        self.report.partition_wall[pid] = wall
        if metrics is not None:
            self.report.worker_metrics[pid] = metrics
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
        """Run one in-process attempt, verify its receipt, accept it.

        A raised exception or a CRC mismatch is recorded as a failed
        attempt instead; returns whether the result was accepted.
        """
        try:
            result, crc, metrics, _ = get()
        except Exception as exc:  # worker raised (crash, bad state, ...)
            event = PartitionEvent(pid, attempt, "error", f"{type(exc).__name__}: {exc}")
        else:
            got = payload_crc(result)
            if got == crc:
                results[pid] = result
                self._accepted(pid, metrics)
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

    # -- the fleet ---------------------------------------------------------------
    def _run_fleet(self, jobs: dict[int, Any], results: dict[int, Any]) -> None:
        """Run *jobs* on an ephemeral fleet until each is accepted or has
        spent its ``1 + max_retries`` attempts, or the fleet is exhausted."""
        from repro.fleet.controller import FleetConfig, FleetController

        cfg = self.config
        n = min(cfg.processes or len(jobs), len(jobs))
        timeout = cfg.timeout or math.inf
        spent: set[int] = set()

        def requeued(job, cause: str, detail: str) -> bool:
            pid = job.partition
            self._failed(pid, PartitionEvent(pid, job.attempt, _EVENT_KINDS[cause], detail))
            if job.attempt >= cfg.max_retries:
                spent.add(pid)
                return False
            self._bump(pid)
            return True

        fleet = FleetController(
            self.stream,
            FleetConfig(
                workers=n,
                # a member heartbeats only to beat a deadline
                heartbeat_interval=min(1.0, timeout / 4) if cfg.timeout else math.inf,
                heartbeat_timeout=timeout,
                # the result ring's slot size: the largest range partition
                chunk_bytes=max((j.length for j in jobs.values() if j.body is None), default=1),
                max_inflight_per_worker=1,
                mp_context=self.mp_context,
            ),
            fault_plan=self.fault_plan,
            on_requeue=requeued,
        )
        period = min(fleet.config.heartbeat_interval / 2.0, 0.05)
        try:
            # every member up before any job goes out: each partition
            # starts on a worker of its own, as on a device of its own
            fleet.start()
            while not fleet.exhausted() and sum(
                m.state == "live" for m in fleet.members.values()
            ) < n:
                fleet.pump(period)
            submitted = dict(zip(jobs, fleet.submit(jobs.values())))
            for pid in submitted:
                self._bump(pid)
            while submitted.keys() - spent and not fleet.exhausted():
                fleet.pump(period)
                for pid, job in list(submitted.items()):
                    got = fleet.take(job)
                    if got is not None:
                        del submitted[pid]
                        results[pid] = got[0]
                        self._accepted(pid, got[1])
        finally:
            # kill, not drain: hung or slow members die with the job,
            # including on KeyboardInterrupt — no orphaned processes
            fleet.close()

    # -- in-process path ---------------------------------------------------------
    def _run_inline(self, pending: dict[int, Any], results: dict[int, Any]) -> None:
        """Run *pending* in-process, in order, under the same attempt
        budget, each partition continuing from the attempts it used.

        The ``parallel=False`` path and the degraded fallback.  Timeouts
        cannot be enforced in-process; errors and CRC failures still
        consume attempts.
        """
        from repro.fleet.worker import run_job
        from repro.robust.faults import FaultPlan
        from repro.serve.engine import RangeSource, StreamConfig

        plan = self.fault_plan if self.fault_plan is not None else FaultPlan.from_env()
        source = RangeSource(self.stream or StreamConfig(), max_streams=1)
        for pid in sorted(pending):
            first = self.report.attempts.get(pid, 0)
            for attempt in range(first, first + self.config.max_retries + 1):
                self._bump(pid)
                job = replace(pending[pid], attempt=attempt)
                if self._settle(pid, attempt, lambda: run_job(job, plan, source), results):
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

    # -- entry point -------------------------------------------------------------
    def run(self, jobs: dict[int, Any], parallel: bool = True) -> dict[int, Any]:
        """Complete every job ``{partition_id: args}``; returns
        ``{partition_id: result}``.

        Raises :class:`DeviceFailureError` only when a partition fails
        every fleet attempt *and* every degraded in-process attempt (or
        degradation is disabled).
        """
        self.report = SupervisorReport()
        self._job_t0 = time.monotonic()
        results: dict[int, Any] = {}
        # worker spans hang off the caller's span, wherever they run
        wire = trace_context.current_wire() if obs.active_tracer() else None
        pending = {pid: self._job(pid, args, wire) for pid, args in jobs.items()}
        if not (parallel and len(pending) > 1):
            self._run_inline(pending, results)
            return results
        with span("supervisor.fleet", partitions=len(pending)):
            self._run_fleet(pending, results)
        for pid in results:
            del pending[pid]
        if not pending:
            return results
        if not self.config.degrade_sequential:
            pid = min(pending)
            last = [e for e in self.report.events if e.partition == pid]
            raise DeviceFailureError(
                f"partition {pid} failed {self.report.attempts.get(pid, 0)} fleet attempts"
                + (f" (last: {last[-1].kind}: {last[-1].detail})" if last else "")
            )
        self.report.degraded = True
        obs.inc("repro_supervisor_degraded_jobs_total")
        for pid in sorted(pending):
            attempts = self.report.attempts[pid]
            self.report.record(PartitionEvent(pid, attempts, "degraded", "running in-process"))
        with span("supervisor.degraded", partitions=len(pending)):
            self._run_inline(pending, results)
        return results
