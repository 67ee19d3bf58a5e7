"""Fleet membership, liveness, eviction and job reassignment.

:class:`FleetController` turns a :class:`~repro.fleet.transport.Transport`
full of anonymous workers into *supervised membership*:

* **Liveness** is deadline-based: a worker must register and then
  heartbeat within ``heartbeat_timeout`` of its last sign of life, or it
  is evicted.  Heartbeats (and registration) are the *only* liveness
  signal — results deliberately do not count, so a member that computes
  but has gone protocol-silent is still evicted and its late results
  dropped as stale; only a partition sent to an idle member restarts its
  deadline, which is that attempt's compute budget.  A healthy worker is
  never at risk: its loop heartbeats between jobs on every interval.  A heartbeat arriving
  exactly at the deadline survives (the comparison is strictly ``later
  than``); messages are always processed before deadlines are checked,
  so a racing heartbeat wins.
* **Receipts**: the controller checks every result's CRC receipt
  (:mod:`repro.robust.supervisor`), and a range job's length;
  mismatches accumulate strikes before eviction (one flipped byte is
  retryable, a bleeding worker is not).  A range result above
  :data:`~repro.core.ring.RING_MIN_BYTES` crosses in a shared-memory
  ring slot leased to its job; smaller ones and body results ship
  pickled.
  It does not screen: a verified chunk is a pure function of its offset,
  so every peer would return the same bytes.  The one RCT/APT screen on
  a served byte is the serve engine's health latch
  (:class:`~repro.robust.health.HealthState`).
* **Reassignment** keeps the merged stream bit-identical to a
  single-device run.  Job ids come from a counter, never reissued, and
  a result is accepted *at most once* per id: only the member a job is
  assigned to can land it, and acceptance, requeue, cancel and inline
  takeover all end that assignment, so late or duplicate results (an
  evicted-but-alive worker finishing its job) are counted as stale and
  dropped.  No per-job state outlives a job: bookkeeping is bounded by
  the jobs in flight, :attr:`FleetController.events` keeps the last
  :data:`EVENTS_KEPT` and :attr:`FleetController.members` the present
  members plus the last :data:`EVENTS_KEPT` evicted.  A job is a pure
  function of its offset (or a body's arguments), so a reassigned job
  regenerates bit-identically on any healthy peer.  Every requeue bumps
  the job's ``attempt``, and ``on_requeue`` (a supervisor's attempt
  budget) may drop it instead.
* **Pipelining**: :meth:`FleetController.submit_range` dispatches
  without waiting, :meth:`FleetController.collect` waits for (and
  degrades) a submitted range, and :meth:`FleetController.cancel`
  abandons one — the serve engine keeps several chunks in flight this
  way; :meth:`FleetController.read_range` is the one-range case.
  :meth:`FleetController.submit` and :meth:`FleetController.take` do the
  same for jobs of any kind, one result at a time.
* **Fixed size**: the fleet holds ``workers`` members.  It relaunches an
  evicted member within its eviction budget, never grows under backlog
  and never drains an idle member; once the budget is spent and no
  member is left it degrades to inline generation rather than surfacing
  an error to callers.

All of it is observable through :mod:`repro.obs`:
``repro_fleet_workers{state=...}``, ``repro_fleet_evictions_total{reason=...}``,
``repro_fleet_lease_reassignments_total``, ``repro_fleet_stale_results_total``,
``repro_fleet_heartbeats_total``,
``repro_fleet_worker_{jobs,bytes}_total{worker=...}`` (counted here, on
acceptance) and the ``repro_fleet_drain_seconds`` histogram.  A member's
own series (its generator's) ride its heartbeat as one delta per
interval, merged under a ``worker`` label; a member killed by eviction
or :meth:`FleetController.close` loses at most its last interval.

The controller is deliberately single-brained: one lock guards all
membership state, and one *pump* at a time moves messages from the
transport into that state.  Whoever waits pumps: a caller blocked in
:meth:`FleetController.collect`, a supervisor's wait loop, or an event
loop watching the transport's descriptor (the serve daemon: its loop
pumps as results land and on a liveness tick, then collects with
:meth:`FleetController.poll_collect`).  The controller starts no thread
of its own.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable

import numpy as np

from repro import obs
from repro.core.ring import RING_MIN_BYTES, SharedMemoryRing
from repro.errors import DeviceFailureError, SpecificationError
from repro.obs import context as trace_context
from repro.obs import flight
from repro.obs.tracing import span
from repro.robust.faults import FaultPlan
from repro.robust.supervisor import payload_crc
from repro.serve.engine import RangeSource, StreamConfig
from repro.fleet.transport import (
    ChunkJob,
    LocalProcessTransport,
    Message,
    Transport,
    WorkerSpec,
)

__all__ = [
    "FleetConfig",
    "FleetController",
    "FleetEvent",
    "WorkerInfo",
    "WORKER_STATES",
    "EVICTION_REASONS",
]

#: Membership states a worker moves through (forward-only).
WORKER_STATES = ("launching", "live", "evicted")

#: How many membership events :attr:`FleetController.events` keeps, and
#: how many evicted members :attr:`FleetController.members` keeps.
EVENTS_KEPT = 50

#: Why workers get evicted (the ``reason`` label on the eviction counter)
#: and why jobs get requeued (``corrupt``: a failed receipt).
EVICTION_REASONS = ("heartbeat", "crash", "corrupt")


@dataclass(frozen=True)
class FleetConfig:
    """Fleet sizing, liveness and receipt policy.

    ``workers`` is the fleet's fixed size.  ``heartbeat_timeout`` should
    comfortably exceed ``heartbeat_interval`` (3x or more) so scheduler
    jitter alone cannot evict a healthy member.
    """

    workers: int = 2
    heartbeat_interval: float = 1.0
    heartbeat_timeout: float = 5.0
    chunk_bytes: int = 1 << 16
    max_inflight_per_worker: int = 2  # pipelining depth per member
    max_strikes: int = 2  # CRC receipt failures before eviction
    max_evictions: int = 16  # relaunch budget; beyond it, degrade inline (or fail)
    degrade_inline: bool = True
    mp_context: str | None = None

    def __post_init__(self) -> None:
        if self.workers <= 0:
            raise SpecificationError("workers must be positive")
        if self.heartbeat_interval <= 0 or self.heartbeat_timeout <= 0:
            raise SpecificationError("heartbeat interval and timeout must be positive")
        if self.heartbeat_timeout < self.heartbeat_interval:
            raise SpecificationError("heartbeat_timeout must cover at least one interval")
        if self.chunk_bytes <= 0:
            raise SpecificationError("chunk_bytes must be positive")
        if self.max_inflight_per_worker <= 0:
            raise SpecificationError("max_inflight_per_worker must be positive")
        if self.max_strikes <= 0:
            raise SpecificationError("max_strikes must be positive")
        if self.max_evictions < 0:
            raise SpecificationError("max_evictions must be non-negative")


@dataclass
class WorkerInfo:
    """Controller-side view of one member."""

    worker_id: int
    state: str = "launching"
    launched_at: float = 0.0
    last_heartbeat: float = 0.0  # last sign of life (launch/register/heartbeat)
    heartbeats: int = 0
    jobs_done: int = 0
    strikes: int = 0
    evicted_reason: str = ""
    inflight: set[int] = field(default_factory=set)  # job ids dispatched to it
    last_dispatch: int = 0  # dispatch sequence number of its latest job

    def to_dict(self, now: float) -> dict:
        """JSON-serialisable form for ``status()`` / ``/v1/status``."""
        return {
            "worker_id": self.worker_id,
            "state": self.state,
            "age_s": round(max(now - self.launched_at, 0.0), 3),
            "silent_s": round(max(now - self.last_heartbeat, 0.0), 3),
            "heartbeats": self.heartbeats,
            "jobs_done": self.jobs_done,
            "strikes": self.strikes,
            "inflight": len(self.inflight),
            "evicted_reason": self.evicted_reason,
        }


@dataclass(frozen=True)
class FleetEvent:
    """One membership change, kept for status and post-mortems."""

    kind: str  # evict | reassign | stale_result | degrade
    worker_id: int
    detail: str = ""
    at: float = 0.0

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "worker_id": self.worker_id,
            "detail": self.detail,
            "at": round(self.at, 3),
        }


class FleetController:
    """Supervise a worker fleet generating one deterministic stream.

    Parameters
    ----------
    stream:
        The :class:`~repro.serve.engine.StreamConfig` every member
        serves.  Chunk payloads are pure functions of their byte offset,
        which is what makes eviction loss-free.
    fleet:
        Policy knobs (:class:`FleetConfig`).
    fault_plan:
        Optional :class:`~repro.robust.faults.FaultPlan` shipped to
        workers as JSON (chaos drills); workers also honour
        ``REPRO_FAULT_PLAN`` when this is ``None``.
    transport:
        Injectable message plane; defaults to a
        :class:`~repro.fleet.transport.LocalProcessTransport`.  Tests
        drive the controller with a fake transport and a fake clock.
    clock:
        Monotonic time source (injectable for deterministic liveness
        tests).
    on_requeue:
        ``on_requeue(job, cause, detail)``, called under the lock for each
        failed attempt (*cause* in :data:`EVICTION_REASONS`); ``False``
        drops the job (its later results are stale) instead of requeueing.
    """

    def __init__(
        self,
        stream: StreamConfig | None = None,
        fleet: FleetConfig | None = None,
        *,
        fault_plan: FaultPlan | None = None,
        transport: Transport | None = None,
        clock=time.monotonic,
        on_requeue: Callable[[ChunkJob, str, str], bool] | None = None,
    ) -> None:
        self.stream = stream if stream is not None else StreamConfig()
        self.config = fleet if fleet is not None else FleetConfig()
        self.clock = clock
        self.on_requeue = on_requeue
        self._ring: SharedMemoryRing | None = None
        if transport is None:
            # the local transport returns payloads above RING_MIN_BYTES
            # through a shared-memory ring; a slot is leased per
            # *dispatched* job, so the pool only needs to cover the
            # maximum in-flight depth; smaller and overflow jobs (and
            # injected transports) ship their payload bytes.  The ring's
            # backing follows the members' start method (a fork ring
            # needs no tracker) and exists before any member forks
            if self.config.chunk_bytes > RING_MIN_BYTES:
                self._ring = SharedMemoryRing.try_create(
                    self.config.chunk_bytes,
                    self.config.workers * self.config.max_inflight_per_worker,
                    self.config.mp_context,
                )
            spec = WorkerSpec(
                stream=self.stream,
                heartbeat_interval=self.config.heartbeat_interval,
                plan_json=fault_plan.to_json() if fault_plan is not None else None,
                ring=self._ring.spec if self._ring is not None else None,
                replay=self.config.max_inflight_per_worker,
            )
            transport = LocalProcessTransport(spec, mp_context=self.config.mp_context)
        self.transport = transport

        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._pump_gate = threading.Lock()  # one pumper at a time

        self.members: dict[int, WorkerInfo] = {}  # present + recently evicted
        self._evicted: deque[int] = deque()  # evicted member ids, oldest first
        self.target = self.config.workers
        self._job_ids = itertools.count()  # never reissued
        self._pending: deque[ChunkJob] = deque()
        self._assigned: dict[int, tuple[ChunkJob, int, float]] = {}
        self._results: dict[int, Any] = {}
        self._result_metrics: dict[int, dict] = {}  # partition jobs' snapshots
        self._inline: RangeSource | None = None  # degraded-mode generator
        # ring slot pool: a slot belongs to a job from dispatch until its
        # result is accepted or the assignment is torn down (requeue,
        # eviction, inline takeover) — and teardown only ever happens
        # after the writer is done (result received) or dead (killed)
        slots = self._ring.slots if self._ring is not None else 0
        self._free_slots: deque[int] = deque(range(slots))
        self._job_slots: dict[int, int] = {}
        # cancelled jobs still running on a member: job id -> owner.  The
        # owner's late result (or its eviction) frees the job's slot
        self._cancelled: dict[int, int] = {}

        self._next_worker_id = 0
        self._dispatch_seq = itertools.count(1)
        self.events: deque[FleetEvent] = deque(maxlen=EVENTS_KEPT)  # the most recent
        self.evictions = 0
        self._budget_from = 0  # evictions before the current relaunch budget
        self.evictions_by_reason: dict[str, int] = dict.fromkeys(EVICTION_REASONS, 0)
        self.reassignments = 0
        self.requeues = 0
        self.receipt_failures = 0
        self.stale_results = 0
        self.degraded_chunks = 0
        self.jobs_completed = 0

        self._started = False
        self._closed = False

    # -- lifecycle ---------------------------------------------------------------
    def start(self) -> None:
        """Launch the membership (idempotent).

        No thread is started: the fleet is pumped by waiting callers
        (:meth:`collect`, :meth:`read_range`) or by whoever calls
        :meth:`pump` on a schedule of its own (the serve daemon's loop).
        """
        with self._lock:
            if self._closed:
                raise SpecificationError("fleet controller is closed")
            if self._started:
                return
            self._started = True
            now = self.clock()
            for _ in range(self.target):
                self._launch(now)
            self._publish_membership()

    @property
    def supervise_period(self) -> float:
        """Seconds between liveness pumps while nothing else pumps (the
        serve daemon's tick)."""
        return min(self.config.heartbeat_interval / 2.0, 0.25)

    def close(self) -> None:
        """Drain nothing, stop everything: kill members, free the transport."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        self.transport.close()
        # unlink only after every worker carrier is gone: an attacher
        # outliving the segment would fault on its next slot write
        if self._ring is not None:
            self._ring.close()

    def __enter__(self) -> "FleetController":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the pump: messages -> state, then policy --------------------------------
    def pump(self, timeout: float = 0.0) -> None:
        """Move transport messages into membership state and apply policy.

        Exactly one thread pumps at a time; others briefly wait on the
        condition instead (they will observe whatever the pump produced).
        Message handling runs before liveness checks with one coherent
        ``now``, so a heartbeat that arrives exactly at its deadline is
        credited before the deadline is evaluated.
        """
        if self._pump_gate.acquire(blocking=False):
            try:
                msgs = self.transport.poll(timeout)
                now = self.clock()
                with self._lock:
                    if self._closed:
                        return
                    for msg in msgs:
                        self._handle_message(msg, now)
                    self._check_liveness(now)
                    self._reconcile(now)
                    self._cond.notify_all()
            finally:
                self._pump_gate.release()
        else:
            with self._cond:
                self._cond.wait(timeout if timeout > 0 else 0.01)

    def handle_message(self, msg: Message, now: float | None = None) -> None:
        """Apply one message (public for transport-less tests)."""
        with self._lock:
            self._handle_message(msg, self.clock() if now is None else now)
            self._cond.notify_all()

    def check_liveness(self, now: float | None = None) -> None:
        """Evaluate heartbeat deadlines and carrier liveness (public for tests)."""
        with self._lock:
            self._check_liveness(self.clock() if now is None else now)

    def reconcile(self, now: float | None = None) -> None:
        """Relaunch toward target, assign pending jobs (public for tests)."""
        with self._lock:
            self._reconcile(self.clock() if now is None else now)

    def _handle_message(self, msg: Message, now: float) -> None:
        member = self.members.get(msg.worker_id)
        if msg.kind == "register":
            if member is not None and member.state == "launching":
                member.state = "live"
                member.last_heartbeat = now
                self._publish_membership()
            return
        if msg.kind == "heartbeat":
            if member is not None and member.state == "live":
                member.last_heartbeat = now
                member.heartbeats += 1
                obs.inc("repro_fleet_heartbeats_total")
                if msg.metrics and obs.metrics_enabled():
                    obs.registry().merge(
                        msg.metrics, extra_labels={"worker": str(msg.worker_id)}
                    )
            return
        if msg.kind == "result":
            self._handle_result(msg, member, now)

    # -- results: receipts, at-most-once acceptance -----------------------------
    def _handle_result(self, msg: Message, member: WorkerInfo | None, now: float) -> None:
        if self._cancelled.get(msg.job_id) == msg.worker_id:
            # the owner of a cancelled job is done writing its slot
            del self._cancelled[msg.job_id]
            self._release_slot(msg.job_id)
            if member is not None:
                member.inflight.discard(msg.job_id)
        entry = self._assigned.get(msg.job_id)
        stale = (
            entry is None
            or entry[1] != msg.worker_id
            or member is None
            or member.state != "live"
        )
        if stale:
            # a reassigned/duplicate/evicted-worker result: the job was
            # (or will be) served exactly once by someone else
            self.stale_results += 1
            obs.inc("repro_fleet_stale_results_total")
            self.events.append(
                FleetEvent("stale_result", msg.worker_id, f"job {msg.job_id}", now)
            )
            return
        job, _, dispatched_at = entry
        # materialise a ring-parked payload *before* the length/CRC
        # checks: a torn or stale slot write then takes exactly the
        # retry path a corrupted pickled transfer would
        payload = msg.payload
        if msg.ref is not None and self._ring is not None:
            try:
                payload = self._ring.resolve(msg.ref)
            except SpecificationError:
                payload = b""  # nonsense ref: fails the length check below
        size = payload.nbytes if isinstance(payload, np.ndarray) else len(payload)
        if size and msg.ref is None and obs.metrics_enabled():
            obs.inc("repro_result_pickled_payload_bytes_total", size)
        # a body job's length is unknown; its receipt still binds it
        if job.body is None and size != job.length:
            self._strike(member, job, now, f"short payload ({size}B)")
            return
        if payload_crc(payload) != msg.crc:
            self._strike(member, job, now, "crc mismatch")
            return
        # accept: exactly once per job id — with its assignment gone,
        # any later result for it is stale
        self._assigned.pop(job.job_id)
        self._results[job.job_id] = payload
        if msg.metrics is not None:
            self._result_metrics[job.job_id] = msg.metrics
        self._release_slot(job.job_id)
        member.inflight.discard(job.job_id)
        member.jobs_done += 1
        member.strikes = 0  # a clean receipt clears the slate
        self.jobs_completed += 1
        obs.inc("repro_fleet_jobs_total")
        obs.inc("repro_fleet_bytes_total", size)
        obs.inc("repro_fleet_worker_jobs_total", worker=str(member.worker_id))
        obs.inc("repro_fleet_worker_bytes_total", size, worker=str(member.worker_id))
        obs.observe("repro_fleet_chunk_seconds", max(now - dispatched_at, 0.0))
        if msg.spans:
            tracer = obs.active_tracer()
            if tracer is not None:
                tracer.merge(msg.spans, extra_args={"worker": member.worker_id})

    def _strike(self, member: WorkerInfo, job: ChunkJob, now: float, why: str) -> None:
        member.strikes += 1
        self.receipt_failures += 1
        obs.inc("repro_fleet_receipt_failures_total")
        flight.record(
            "crc-strike",
            worker=member.worker_id,
            job=job.job_id,
            strikes=member.strikes,
            why=why,
        )
        flight.dump("crc-strike")
        self._requeue(job, "corrupt", why)
        if member.strikes >= self.config.max_strikes:
            self._evict(member, "corrupt", now)

    def _requeue(self, job: ChunkJob, cause: str, detail: str) -> bool:
        """Clear a failed job's assignment and put its next attempt at
        the head of the queue — unless ``on_requeue`` drops it.  Returns
        whether it was requeued."""
        self._requeue_clear(job)  # any later result for this attempt is stale
        if self.on_requeue is not None and not self.on_requeue(job, cause, detail):
            return False
        self._pending.appendleft(replace(job, attempt=job.attempt + 1))
        self.requeues += 1
        return True

    # -- liveness and eviction ----------------------------------------------------
    def _check_liveness(self, now: float) -> None:
        for member in list(self.members.values()):
            if member.state == "evicted":
                continue
            if not self.transport.alive(member.worker_id):
                self._evict(member, "crash", now)
                continue
            # strictly past the deadline: a heartbeat at exactly
            # last + timeout has already been credited by the pump order
            if now - member.last_heartbeat > self.config.heartbeat_timeout:
                self._evict(member, "heartbeat", now)

    def _mark_evicted(self, member: WorkerInfo, reason: str, now: float, detail: str) -> None:
        """Count one eviction; forget the oldest evicted member beyond
        the :data:`EVENTS_KEPT` most recent (:attr:`evictions` keeps the
        total)."""
        member.state = "evicted"
        member.evicted_reason = reason
        self.evictions += 1
        self.evictions_by_reason[reason] += 1
        obs.inc("repro_fleet_evictions_total", reason=reason)
        self.events.append(FleetEvent("evict", member.worker_id, detail, now))
        self._evicted.append(member.worker_id)
        if len(self._evicted) > EVENTS_KEPT:
            del self.members[self._evicted.popleft()]

    def _evict(self, member: WorkerInfo, reason: str, now: float) -> None:
        if member.state == "evicted":
            return
        self._mark_evicted(member, reason, now, reason)
        flight.record(
            "eviction",
            worker=member.worker_id,
            reason=reason,
            jobs_done=member.jobs_done,
            inflight=sorted(member.inflight),
        )
        flight.dump("eviction")
        # reassign every inflight job: back to the queue head (oldest
        # first) so a healthy peer regenerates the identical bytes.  Its
        # slot, like a cancelled job's, is safe to recycle: the carrier
        # is killed below, before any reassignment can hand the slot to
        # a new writer
        for job_id in sorted(member.inflight, reverse=True):
            if self._cancelled.get(job_id) == member.worker_id:
                del self._cancelled[job_id]
                self._release_slot(job_id)
                continue
            entry = self._assigned.get(job_id)
            if entry is None:
                continue
            job, _, dispatched_at = entry
            if not self._requeue(job, reason, f"worker {member.worker_id} evicted: {reason}"):
                continue
            self.reassignments += 1
            obs.inc("repro_fleet_lease_reassignments_total")
            obs.observe("repro_fleet_drain_seconds", max(now - dispatched_at, 0.0))
            self.events.append(
                FleetEvent("reassign", member.worker_id, f"job {job_id}", now)
            )
        member.inflight.clear()
        try:
            self.transport.kill(member.worker_id)
        except Exception:  # pragma: no cover - a dead carrier is the goal
            pass
        self._publish_membership()

    # -- membership and dispatch ---------------------------------------------------
    def _live_members(self) -> list[WorkerInfo]:
        return [m for m in self.members.values() if m.state == "live"]

    def _present(self) -> int:
        """Members currently filling a target slot (launching or live)."""
        return sum(m.state != "evicted" for m in self.members.values())

    def _reconcile(self, now: float) -> None:
        if self._closed or not self._started:
            return
        # relaunch toward target, unless the eviction budget is spent
        while self._present() < self.target and not self._budget_spent():
            self._launch(now)
        self._assign(now)

    def _launch(self, now: float) -> None:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        info = WorkerInfo(worker_id, launched_at=now, last_heartbeat=now)
        self.members[worker_id] = info
        try:
            self.transport.launch(worker_id)
        except Exception as exc:
            self._mark_evicted(info, "crash", now, f"launch failed: {exc}")
        self._publish_membership()

    def _lease_slot(self, job: ChunkJob) -> ChunkJob:
        """Attach a ring slot for the job's result (``None`` for a body
        job, a range of at most :data:`~repro.core.ring.RING_MIN_BYTES`,
        no ring or a momentarily dry pool — the worker then ships its
        payload).  Re-dispatch always re-leases, so a requeued job never
        carries a slot it no longer owns."""
        eligible = self._ring is not None and job.body is None and job.length > RING_MIN_BYTES
        slot = self._free_slots.popleft() if eligible and self._free_slots else None
        if slot is not None:
            self._job_slots[job.job_id] = slot
        if job.ring_slot == slot:
            return job
        return replace(job, ring_slot=slot)

    def _release_slot(self, job_id: int) -> None:
        """Return a job's slot to the pool (idempotent per job).

        Only called once the slot's writer is done (its result arrived)
        or dead (eviction kills the carrier before any reassignment), so
        a recycled slot never has two concurrent writers; a torn write
        from a kill mid-write is caught by the CRC receipt.
        """
        slot = self._job_slots.pop(job_id, None)
        if slot is not None:
            self._free_slots.append(slot)

    def _assign(self, now: float) -> None:
        while self._pending:
            candidates = [
                m
                for m in self._live_members()
                if len(m.inflight) < self.config.max_inflight_per_worker
            ]
            if not candidates:
                return
            # least loaded first; ties go round-robin, so chunks submitted
            # one by one spread over idle members even when each finishes
            # before the next arrives
            member = min(candidates, key=lambda m: (len(m.inflight), m.last_dispatch))
            job = self._lease_slot(self._pending.popleft())
            try:
                self.transport.send_job(member.worker_id, job)
            except Exception:
                self._release_slot(job.job_id)
                self._pending.appendleft(job)
                self._evict(member, "crash", now)
                continue
            self._assigned[job.job_id] = (job, member.worker_id, now)
            if job.partition is not None and not member.inflight:
                member.last_heartbeat = now  # members compute silently
            member.inflight.add(job.job_id)
            member.last_dispatch = next(self._dispatch_seq)

    # -- degraded mode -------------------------------------------------------------
    def _budget_spent(self) -> bool:
        return self.evictions - self._budget_from > self.config.max_evictions

    def _fleet_exhausted(self) -> bool:
        """No member is present and the relaunch budget is spent."""
        return self._present() == 0 and self._budget_spent()

    def exhausted(self) -> bool:
        """Whether the fleet can no longer run anything (see :meth:`collect`)."""
        with self._lock:
            return self._fleet_exhausted()

    def _inline_source(self) -> RangeSource:
        if self._inline is None:
            self._inline = RangeSource(self.stream, max_streams=2)
        return self._inline

    # -- the data path -------------------------------------------------------------
    def _enqueue(self, make_jobs: Callable[[tuple | None], list[ChunkJob]]) -> list[ChunkJob]:
        """Queue and dispatch ``make_jobs(wire)``; *wire* is the caller's
        trace context, so worker spans come home under the same trace
        (``None`` while tracing is off: the disabled path gets nothing)."""
        with self._lock:
            if self._closed:
                raise SpecificationError("fleet controller is closed")
            if not self._started:
                self.start()
            jobs = make_jobs(trace_context.current_wire() if obs.active_tracer() else None)
            self._pending.extend(jobs)
            self._assign(self.clock())
        return jobs

    def submit(self, jobs: Iterable[ChunkJob]) -> list[ChunkJob]:
        """Dispatch *jobs* under fresh ids (whatever id they carry is
        replaced; a job without a trace context gets the caller's).
        Returns the jobs as queued, without waiting; pair with
        :meth:`take` (or :meth:`cancel`)."""
        return self._enqueue(
            lambda wire: [
                replace(job, job_id=next(self._job_ids), trace=job.trace or wire) for job in jobs
            ]
        )

    def take(self, job: ChunkJob) -> tuple[Any, dict | None] | None:
        """An accepted job's ``(payload, metrics)`` — handed out once —
        else ``None``.  ``metrics`` is a partition attempt's snapshot."""
        with self._lock:
            if job.job_id not in self._results:
                return None
            return self._results.pop(job.job_id), self._result_metrics.pop(job.job_id, None)

    def submit_range(self, offset: int, n: int) -> list[ChunkJob]:
        """Dispatch range jobs covering ``[offset, offset + n)``, one per
        ``chunk_bytes``.  Returns without waiting; pair with
        :meth:`collect` (or :meth:`cancel`), or use :meth:`read_range`.
        """
        if n < 0 or offset < 0:
            raise SpecificationError("need offset >= 0 and n >= 0")
        end, step = offset + n, self.config.chunk_bytes
        return self._enqueue(
            lambda wire: [
                ChunkJob(next(self._job_ids), pos, min(step, end - pos), trace=wire)
                for pos in range(offset, end, step)
            ]
        )

    def try_collect(self, jobs: list[ChunkJob]) -> bytes | None:
        """The merged bytes of *jobs* once every result landed, else ``None``."""
        with self._lock:
            if not all(job.job_id in self._results for job in jobs):
                return None
            return b"".join(self._results.pop(job.job_id) for job in jobs)

    def poll_collect(self, jobs: list[ChunkJob]) -> bytes | None:
        """:meth:`try_collect`, but once the fleet is exhausted the
        missing *jobs* are finished inline first (or the range fails):
        one non-blocking step of :meth:`collect`, for callers that pump
        on their own (the serve daemon's event loop)."""
        with self._lock:
            merged = self.try_collect(jobs)
            if merged is None and self._fleet_exhausted():
                self._degrade(jobs)
                merged = self.try_collect(jobs)
            return merged

    def collect(self, jobs: list[ChunkJob], timeout: float | None = None) -> bytes:
        """The merged bytes of submitted *jobs*, pumping while waiting.

        Survives any number of evictions up to the budget; beyond it,
        finishes the missing jobs inline (when ``degrade_inline``) so
        the caller never sees the fleet's losses — only, perhaps, their
        latency.  Raises :class:`~repro.errors.DeviceFailureError` when
        the fleet is exhausted and may not degrade, or *timeout* passes.
        """
        deadline = None if timeout is None else self.clock() + timeout
        period = min(self.config.heartbeat_interval / 2.0, 0.05)
        while (merged := self.poll_collect(jobs)) is None:
            if deadline is not None and self.clock() > deadline:
                n = sum(job.length for job in jobs)
                raise DeviceFailureError(
                    f"fleet did not serve {n} bytes at {jobs[0].offset} within {timeout}s"
                )
            self.pump(period)
        return merged

    def _degrade(self, jobs: list[ChunkJob]) -> None:
        """Generate the unserved *jobs* inline (the caller holds the lock).

        Without ``degrade_inline`` the range fails instead: all of
        *jobs* are cancelled, and relaunching gets a fresh budget, so the
        exhaustion costs the range it stranded and a later range is
        served by new members.
        """
        queued = {job.job_id for job in self._pending}
        missing = [
            job for job in jobs if job.job_id in self._assigned or job.job_id in queued
        ]
        if not self.config.degrade_inline:
            self.cancel(jobs)
            self._budget_from = self.evictions
            raise DeviceFailureError(
                f"fleet exhausted after {self.evictions} evictions "
                f"({len(missing)} chunks unserved)"
            )
        if not missing:
            return
        ids = {job.job_id for job in missing}
        self._pending = deque(j for j in self._pending if j.job_id not in ids)
        for job in missing:
            # claim each job inline before generating, so a
            # straggler's late result is stale, not a duplicate
            self._requeue_clear(job)
        self.degraded_chunks += len(missing)
        obs.inc("repro_fleet_degraded_chunks_total", len(missing))
        self.events.append(
            FleetEvent("degrade", -1, f"{len(missing)} chunks inline", self.clock())
        )
        source = self._inline_source()
        for job in missing:
            self._results[job.job_id] = source.read_range(job.offset, job.length)

    def cancel(self, jobs: list[ChunkJob]) -> None:
        """Abandon submitted *jobs*: none of their bytes is kept.

        A pending job leaves the queue; an assigned one stays on its
        member, whose late result is dropped as stale — and its ring
        slot is freed only when that result arrives or the member is
        evicted, so a live writer never shares its slot with a later
        job.  An accepted result not yet collected is discarded.
        """
        with self._lock:
            ids = {job.job_id for job in jobs}
            self._pending = deque(j for j in self._pending if j.job_id not in ids)
            for job in jobs:
                self._results.pop(job.job_id, None)
                self._result_metrics.pop(job.job_id, None)
                entry = self._assigned.pop(job.job_id, None)  # any later result is stale
                if entry is not None:
                    self._cancelled[job.job_id] = entry[1]

    def read_range(self, offset: int, n: int, timeout: float | None = None) -> bytes:
        """Generate stream bytes ``[offset, offset + n)`` through the fleet:
        :meth:`submit_range` then :meth:`collect`."""
        if n == 0:
            return b""
        with span("fleet.read_range", offset=offset, n=n):
            return self.collect(self.submit_range(offset, n), timeout)

    def _requeue_clear(self, job: ChunkJob) -> None:
        """Drop a job's assignment and free its slot (requeue or inline takeover)."""
        entry = self._assigned.pop(job.job_id, None)
        if entry is not None:
            _, owner, _ = entry
            owner_info = self.members.get(owner)
            if owner_info is not None:
                owner_info.inflight.discard(job.job_id)
        self._release_slot(job.job_id)

    # -- introspection -------------------------------------------------------------
    def _publish_membership(self) -> None:
        counts = {state: 0 for state in WORKER_STATES}
        for member in self.members.values():
            counts[member.state] += 1
        counts["evicted"] = self.evictions  # forgotten members included
        for state, count in counts.items():
            obs.set_gauge("repro_fleet_workers", count, state=state)
        obs.set_gauge("repro_fleet_target_workers", self.target)

    def status(self) -> dict:
        """Snapshot for ``/v1/status`` and the CLI summary."""
        with self._lock:
            now = self.clock()
            return {
                "target": self.target,
                "started": self._started,
                "closed": self._closed,
                "workers": [
                    self.members[wid].to_dict(now) for wid in sorted(self.members)
                ],
                "counters": {
                    "evictions": self.evictions,
                    "evictions_by_reason": dict(self.evictions_by_reason),
                    "reassignments": self.reassignments,
                    "requeues": self.requeues,
                    "receipt_failures": self.receipt_failures,
                    "stale_results": self.stale_results,
                    "degraded_chunks": self.degraded_chunks,
                    "jobs_completed": self.jobs_completed,
                },
                "pending_jobs": len(self._pending),
                "inflight_jobs": len(self._assigned),
                "events": [event.to_dict() for event in self.events],
            }
