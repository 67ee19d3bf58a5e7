"""The long-lived fleet worker: register, heartbeat, serve chunk leases.

Where the pool workers of :mod:`repro.gpu.multigpu` live for exactly one
partition (``maxtasksperchild=1``), a fleet worker is a *member*: it
registers once, heartbeats on the controller's interval, and serves
counter-space chunk jobs until told to stop, killed, or evicted.  Every
chunk the serve daemon hands out is generated here.  Each payload is
drawn by the same stream-range body as a multi-device partition
(:func:`~repro.serve.engine.range_attempt`) inside the shared
:func:`~repro.robust.supervisor.attempt_shell` — fault-plan hooks keyed
by ``(worker_id, job_index)``, a CRC receipt taken before any injected
corruption, the payload parked in the job's shared-memory ring slot
when it has one — so the controller's receipt verification sees a
bleeding transfer exactly the way the batch supervisor would.

A result carries no metrics.  The member collects into one registry of
its own and ships it as a delta (snapshot, then clear) with each
heartbeat and with its ``bye``: one merge per interval in the parent,
not one per chunk.

Failure modelling is deliberately honest:

* a ``crash`` fault raises out of the loop and kills the process — the
  controller sees a dead carrier, not a polite error message;
* a ``delay`` fault sleeps on the job thread, which *also* stalls
  heartbeats (the loop is single-threaded on purpose: a truly wedged
  device cannot keep heartbeating), so a long stall trips the liveness
  deadline;
* ``hb_silence`` keeps the worker computing but mute — the classic
  partitioned-but-alive member whose late results must be dropped;
* ``slow_bleed`` flips bytes in every payload after the CRC, modelling
  a degrading link that accumulates receipt strikes until eviction;
* ``bias`` masks every payload before its receipt — a defective
  generator whose bytes verify clean and are served: the service latch
  (or QA) flags them, the fleet does not evict for them.
"""

from __future__ import annotations

import signal
import time

from repro import obs
from repro.core.ring import RingSlotRef
from repro.obs import flight
from repro.robust.faults import FaultPlan
from repro.serve.engine import RangeSource, range_attempt
from repro.fleet.transport import ChunkJob, Message, WorkerSpec

__all__ = ["fleet_worker_main"]


def fleet_worker_main(worker_id: int, spec: WorkerSpec, conn) -> None:
    """Worker process entry point (module-level: spawn-picklable).

    ``conn`` is this member's end of its duplex pipe: it delivers
    :class:`ChunkJob` items (``None`` = graceful stop) and carries the
    member's :class:`Message` stream back.
    """
    # a fork inherits the parent's signal dispositions — under the serve
    # daemon that includes an asyncio SIGTERM handler which would swallow
    # the controller's terminate() and leave an unkillable member
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_DFL)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    # a fork-inherited parent registry must not double-count, and a
    # fork-inherited tracer must not record: the member collects into a
    # fresh registry of its own (shipped as heartbeat deltas) and its
    # spans per job in attempt_shell's collector
    obs.disable_tracing()
    # a fork also inherits the daemon's flight recorder (role and ring);
    # re-enable fresh so this member's black box carries its own story
    if flight.enabled():
        rec = flight.recorder()
        flight.enable(rec.directory, role=f"fleet-worker-{worker_id}")
    try:
        with obs.scoped() as reg:
            _worker_loop(worker_id, spec, conn, reg)
    except BaseException as exc:
        # the black box is the only record a crashed member leaves —
        # the message plane just sees a dead carrier
        flight.record("worker-crash", worker=worker_id, error=f"{type(exc).__name__}: {exc}")
        flight.dump("worker-crash")
        raise


def _delta(reg) -> dict | None:
    """The member's metrics since the last delta, or ``None`` if none."""
    snap = reg.drain()
    return snap if snap["metrics"] else None


def _worker_loop(worker_id: int, spec: WorkerSpec, conn, reg) -> None:
    plan = FaultPlan.resolve(spec.plan_json)
    source = RangeSource(spec.stream)
    conn.send(Message("register", worker_id))
    job_index = 0
    last_heartbeat = time.monotonic()
    # poll briskly relative to the heartbeat interval so a due heartbeat
    # is never late by more than a fraction of the interval
    poll_s = min(max(spec.heartbeat_interval / 4.0, 0.01), 0.25)
    while True:
        now = time.monotonic()
        silenced = plan is not None and plan.silences(worker_id, job_index)
        if not silenced and now - last_heartbeat >= spec.heartbeat_interval:
            conn.send(Message("heartbeat", worker_id, metrics=_delta(reg)))
            last_heartbeat = now
        if not conn.poll(poll_s):
            continue
        job: ChunkJob | None = conn.recv()
        if job is None:
            conn.send(Message("bye", worker_id, detail="drained", metrics=_delta(reg)))
            return
        flight.record("job-start", worker=worker_id, job=job.job_id, offset=job.offset)
        # crash faults raise out of here and kill the process — the
        # controller must discover a dead carrier, not read an excuse.
        # Jobs dispatched without a ring slot (small jobs, no shared
        # memory, or the slot pool momentarily dry) ship their payload
        # bytes through the pipe instead.
        ring = (*spec.ring, job.ring_slot) if spec.ring and job.ring_slot is not None else None
        payload, crc, spans = range_attempt(
            source, worker_id, job_index, job.offset, job.length, plan,
            ring=ring, trace=job.trace,
            span_name="fleet.worker_chunk", process_name=f"fleet-worker-{worker_id}",
        )
        ref = payload if isinstance(payload, RingSlotRef) else None
        conn.send(
            Message(
                "result",
                worker_id,
                job_id=job.job_id,
                payload=b"" if ref is not None else payload,
                crc=crc,
                spans=spans,
                ref=ref,
            )
        )
        job_index += 1
