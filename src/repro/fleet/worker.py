"""The fleet worker: register, heartbeat, run jobs until killed.

A fleet worker is a *member*: it registers once, heartbeats on the
controller's interval, and runs :class:`~repro.fleet.transport.ChunkJob`
items until it is evicted or its fleet closes (both kill it), or its
controller's end of the pipe goes away.  Members run all work done in
worker processes: every chunk the serve daemon hands out, and every
partition of a batch job on an ephemeral fleet a
:class:`~repro.robust.supervisor.PartitionSupervisor` starts
(:func:`run_job`).  A served chunk's series go to the member's own
registry, shipped as a delta (snapshot, then clear) with each heartbeat
— one merge per interval in the parent, not one per chunk; a partition
attempt's snapshot rides its result.  Either way the CRC receipt is
taken before any injected corruption, and a range payload is parked in
the job's shared-memory ring slot when it has one.

Failure modelling is deliberately honest:

* a ``crash`` fault raises out of the loop and the member exits (1) —
  the controller sees a dead carrier, not a polite error message;
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

import functools
import os
import signal
import stat
import sys
import time
from contextlib import suppress

from repro import obs
from repro.core.ring import RingSlotRef
from repro.obs import flight
from repro.robust.faults import FaultPlan
from repro.robust.supervisor import worker_attempt
from repro.serve.engine import RangeSource, range_attempt
from repro.fleet.transport import ChunkJob, Message, WorkerSpec

__all__ = ["fleet_worker_main", "run_job"]


def fleet_worker_main(worker_id: int, spec: WorkerSpec, conn) -> None:
    """Worker process entry point (module-level: spawn-picklable).

    ``conn`` is this member's end of its duplex pipe: it delivers
    :class:`ChunkJob` items and carries the member's :class:`Message`
    stream back.
    """
    # a fork inherits the parent's signal dispositions — under the serve
    # daemon that includes an asyncio SIGTERM handler which would swallow
    # the controller's terminate() and leave an unkillable member
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        signal.set_wakeup_fd(-1)  # asyncio's self-pipe: a socket, released below
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    _close_inherited_sockets(conn.fileno())
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
        # the black box is the only record a crashed member leaves (no
        # stderr traceback) — the message plane just sees a dead carrier
        flight.record("worker-crash", worker=worker_id, error=f"{type(exc).__name__}: {exc}")
        flight.dump("worker-crash")
        sys.exit(1)


def _close_inherited_sockets(keep: int) -> None:
    """Release every inherited socket but *keep* (the member's own pipe).

    A member relaunched by the serve daemon is forked holding the
    daemon's sockets: its listener, client connections and the parent
    ends of every member pipe.  A connection the daemon closes would stay
    open at the client until this member exits.  Each socket is replaced
    by ``/dev/null`` rather than freed, so an inherited socket object
    that closes its number later cannot close a descriptor this member
    opened since.  Plain pipes stay open: multiprocessing's fork
    sentinel is one, and the parent's ``join`` waits on it to learn
    that this member has exited.
    """
    fd_dir = "/proc/self/fd" if os.path.isdir("/proc/self/fd") else "/dev/fd"
    if not os.path.isdir(fd_dir):  # pragma: no cover - no descriptor listing
        return
    devnull = os.open(os.devnull, os.O_RDWR)
    for name in os.listdir(fd_dir):
        fd = int(name)
        if fd in (keep, devnull):
            continue
        with suppress(OSError):  # the listing's own descriptor, closed by now
            if stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.dup2(devnull, fd)
    os.close(devnull)


def _delta(reg) -> dict | None:
    """The member's metrics since the last delta, or ``None`` if none."""
    snap = reg.drain()
    return snap if snap["metrics"] else None


def _worker_loop(worker_id: int, spec: WorkerSpec, conn, reg) -> None:
    plan = FaultPlan.resolve(spec.plan_json)
    source = RangeSource(spec.stream, replay=spec.replay)
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
        job: ChunkJob = conn.recv()
        flight.record("job-start", worker=worker_id, job=job.job_id, offset=job.offset)
        # crash faults raise out of here and end the process — the
        # controller must discover a dead carrier, not read an excuse.
        # Jobs dispatched without a ring slot (small or body jobs, no
        # shared memory, or the slot pool momentarily dry) ship their
        # payload through the pipe instead.
        ring = (*spec.ring, job.ring_slot) if spec.ring and job.ring_slot is not None else None
        payload, crc, metrics, spans = run_job(
            job, plan, source, worker_id, job_index, ring=ring,
            process_name=f"fleet-worker-{worker_id}",
        )
        ref = payload if isinstance(payload, RingSlotRef) else None
        conn.send(
            Message(
                "result",
                worker_id,
                job_id=job.job_id,
                payload=b"" if ref is not None else payload,
                crc=crc,
                metrics=metrics,
                spans=spans,
                ref=ref,
            )
        )
        job_index += 1


def run_job(
    job: ChunkJob,
    plan: FaultPlan | None,
    source: RangeSource,
    worker_id: int = 0,
    job_index: int = 0,
    ring: tuple | None = None,
    process_name: str | None = None,
) -> tuple:
    """Run one job → ``(payload, crc, metrics, spans)``, in a member or
    in-process (a degraded partition).

    A served chunk (no ``partition``) draws from the member's cached
    *source* in :func:`~repro.robust.supervisor.attempt_shell`, faults
    keyed by ``(worker_id, job_index)``, and returns no metrics.  A
    partition attempt runs in :func:`~repro.robust.supervisor.worker_attempt`,
    faults keyed by ``(partition, attempt)``; a range partition draws
    from a fresh source, so no generator state crosses attempts.
    """
    if job.partition is None:
        payload, crc, spans = range_attempt(
            source, worker_id, job_index, job.offset, job.length, plan,
            ring=ring, trace=job.trace,
            span_name="fleet.worker_chunk", process_name=process_name,
        )
        return payload, crc, None, spans
    pid = job.partition
    if job.body is not None:
        return worker_attempt(
            pid, job.attempt, plan, functools.partial(job.body, *job.args),
            trace=job.trace, process_name=process_name,
        )
    source = RangeSource(source.config, max_streams=1)

    def account(wall: float) -> None:
        source.publish_metrics()
        obs.set_gauge("repro_device_wall_seconds", wall, device=pid)
        obs.inc("repro_device_attempts_total", 1, device=pid)

    return range_attempt(
        source, pid, job.attempt, job.offset, job.length, plan,
        shell=worker_attempt, ring=ring, account=account, trace=job.trace,
        span_name="device.partition", process_name=process_name,
    )
