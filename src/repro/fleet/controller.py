"""Fleet membership, liveness, eviction and lease reassignment.

:class:`FleetController` turns a :class:`~repro.fleet.transport.Transport`
full of anonymous workers into *supervised membership*:

* **Liveness** is deadline-based: a worker must register and then
  heartbeat within ``heartbeat_timeout`` of its last sign of life, or it
  is evicted.  Heartbeats (and registration) are the *only* liveness
  signal — results deliberately do not count, so a member that computes
  but has gone protocol-silent is still evicted and its late results
  dropped as stale.  A healthy worker is never at risk: its loop
  heartbeats between jobs on every interval.  A heartbeat arriving
  exactly at the deadline survives (the comparison is strictly ``later
  than``); messages are always processed before deadlines are checked,
  so a racing heartbeat wins.
* **Receipts**: the controller checks every result's CRC receipt
  (:mod:`repro.robust.supervisor`); mismatches accumulate strikes before
  eviction (one flipped byte is retryable, a bleeding worker is not).
  It does not screen: a verified chunk is a pure function of its offset,
  so every peer would return the same bytes.  The one RCT/APT screen on
  a served byte is the service latch (:class:`~repro.serve.engine.HealthState`).
* **Lease reassignment** keeps the merged stream bit-identical to a
  single-device run.  Every chunk job is backed by a lease from an
  internal :class:`~repro.serve.leases.LeaseManager` — ids strictly
  increasing and never reissued — and is released only when its result
  is accepted, which happens *at most once* per lease: late or duplicate
  results (an evicted-but-alive worker finishing its job) are counted as
  stale and dropped.  Because BSRNG output is a pure function of the
  byte offset, a reassigned chunk regenerates bit-identically on any
  healthy peer.
* **Elasticity**: the fleet relaunches evicted members toward its target
  size, scales the target up when the job backlog outgrows the
  membership and back down after a sustained idle period, and — once the
  eviction budget is spent and no member is left — degrades to inline
  generation rather than surfacing an error to callers.

All of it is observable through :mod:`repro.obs`:
``repro_fleet_workers{state=...}``, ``repro_fleet_evictions_total{reason=...}``,
``repro_fleet_lease_reassignments_total``, ``repro_fleet_stale_results_total``,
``repro_fleet_heartbeats_total``, ``repro_fleet_scale_events_total{direction=...}``
and the ``repro_fleet_drain_seconds`` histogram.

The controller is deliberately single-brained: one lock guards all
membership state, and one *pump* at a time moves messages from the
transport into that state.  Any thread may pump (request threads while
they wait, plus the optional supervision thread), which keeps the fleet
responsive without dedicating a thread per worker.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace

from repro import obs
from repro.core.ring import SharedMemoryRing
from repro.errors import DeviceFailureError, SpecificationError
from repro.obs import context as trace_context
from repro.obs import flight
from repro.obs.tracing import span
from repro.robust.faults import FaultPlan
from repro.robust.supervisor import payload_crc
from repro.serve.engine import RangeSource, StreamConfig
from repro.serve.leases import LeaseManager
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
WORKER_STATES = ("launching", "live", "draining", "drained", "evicted")

#: Why workers get evicted (the ``reason`` label on the eviction counter).
EVICTION_REASONS = ("heartbeat", "crash", "corrupt")


@dataclass(frozen=True)
class FleetConfig:
    """Fleet sizing, liveness and receipt policy.

    ``workers`` is the *initial target*; elasticity moves the target
    inside ``[min_workers, max_workers]``.  ``heartbeat_timeout`` should
    comfortably exceed ``heartbeat_interval`` (3x or more) so scheduler
    jitter alone cannot evict a healthy member.
    """

    workers: int = 2
    min_workers: int = 1
    max_workers: int = 8
    heartbeat_interval: float = 1.0
    heartbeat_timeout: float = 5.0
    chunk_bytes: int = 1 << 16
    max_inflight_per_worker: int = 2  # pipelining depth per member
    max_strikes: int = 2  # CRC receipt failures before eviction
    max_evictions: int = 16  # relaunch budget; beyond it, degrade inline
    scale_up_backlog: int = 4  # pending jobs per live worker that adds one
    scale_down_idle_s: float = 30.0  # sustained idle that removes one
    degrade_inline: bool = True
    mp_context: str | None = None

    def __post_init__(self) -> None:
        if self.workers <= 0:
            raise SpecificationError("workers must be positive")
        if not 0 < self.min_workers <= self.max_workers:
            raise SpecificationError("need 0 < min_workers <= max_workers")
        if not self.min_workers <= self.workers <= self.max_workers:
            raise SpecificationError("workers must lie in [min_workers, max_workers]")
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
        if self.scale_up_backlog <= 0:
            raise SpecificationError("scale_up_backlog must be positive")
        if self.scale_down_idle_s <= 0:
            raise SpecificationError("scale_down_idle_s must be positive")


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

    kind: str  # evict | reassign | scale_up | scale_down | stale_result | degrade
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
    """

    def __init__(
        self,
        stream: StreamConfig | None = None,
        fleet: FleetConfig | None = None,
        *,
        fault_plan: FaultPlan | None = None,
        transport: Transport | None = None,
        clock=time.monotonic,
    ) -> None:
        self.stream = stream if stream is not None else StreamConfig()
        self.config = fleet if fleet is not None else FleetConfig()
        self.clock = clock
        self._ring: SharedMemoryRing | None = None
        if transport is None:
            # the local transport returns payloads through a shared-memory
            # ring; a slot is leased per *dispatched* job, so the pool only
            # needs to cover the maximum in-flight depth; overflow jobs
            # (and injected transports) ship their payload bytes.  The
            # ring's backing follows the members' start method (a fork
            # ring needs no tracker) and exists before any member forks
            self._ring = SharedMemoryRing.try_create(
                self.config.chunk_bytes,
                self.config.max_workers * self.config.max_inflight_per_worker,
                self.config.mp_context,
            )
            spec = WorkerSpec(
                stream=self.stream,
                heartbeat_interval=self.config.heartbeat_interval,
                plan_json=fault_plan.to_json() if fault_plan is not None else None,
                ring=self._ring.spec if self._ring is not None else None,
            )
            transport = LocalProcessTransport(spec, mp_context=self.config.mp_context)
        self.transport = transport

        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._pump_gate = threading.Lock()  # one pumper at a time

        self.members: dict[int, WorkerInfo] = {}
        self.target = self.config.workers
        self.leases = LeaseManager()  # job-id space: never reissued
        self._pending: deque[ChunkJob] = deque()
        self._assigned: dict[int, tuple[ChunkJob, int, float]] = {}
        self._results: dict[int, bytes] = {}
        self._done: set[int] = set()  # job ids accepted (at most once each)
        self._inline: RangeSource | None = None  # degraded-mode generator
        # ring slot pool: a slot belongs to a job from dispatch until its
        # result is accepted or the assignment is torn down (requeue,
        # eviction, inline takeover) — and teardown only ever happens
        # after the writer is done (result received) or dead (killed)
        slots = self._ring.slots if self._ring is not None else 0
        self._free_slots: deque[int] = deque(range(slots))
        self._job_slots: dict[int, int] = {}

        self._next_worker_id = 0
        self._idle_since: float | None = None
        self.events: list[FleetEvent] = []
        self.evictions = 0
        self.reassignments = 0
        self.stale_results = 0
        self.scale_ups = 0
        self.scale_downs = 0
        self.degraded_chunks = 0
        self.jobs_completed = 0

        self._started = False
        self._closed = False
        self._stop = threading.Event()
        self._supervisor: threading.Thread | None = None

    # -- lifecycle ---------------------------------------------------------------
    def start(self, supervise: bool = True) -> None:
        """Launch the initial membership (idempotent).

        With ``supervise=True`` a daemon thread pumps the transport
        continuously, so liveness is enforced even while no caller waits
        in :meth:`read_range` (the service deployment).  Without it the
        fleet is pumped only by waiting callers (tests, batch use).
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
        if supervise and self._supervisor is None:
            self._supervisor = threading.Thread(
                target=self._supervise_loop, name="fleet-supervisor", daemon=True
            )
            self._supervisor.start()

    def _supervise_loop(self) -> None:
        period = min(self.config.heartbeat_interval / 2.0, 0.25)
        while not self._stop.is_set():
            try:
                self.pump(period)
            except Exception:  # pragma: no cover - supervision must not die
                if self._stop.is_set() or self._closed:
                    return
                self._stop.wait(period)

    def close(self) -> None:
        """Drain nothing, stop everything: kill members, free the transport."""
        self._stop.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout=5.0)
            self._supervisor = None
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
        """Relaunch toward target, autoscale, assign pending jobs (public for tests)."""
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
            if member is not None and member.state in ("live", "draining"):
                member.last_heartbeat = now
                member.heartbeats += 1
                obs.inc("repro_fleet_heartbeats_total")
            return
        if msg.kind == "bye":
            if member is not None and member.state == "draining":
                member.state = "drained"
                self._publish_membership()
            return
        if msg.kind == "result":
            self._handle_result(msg, member, now)

    # -- results: receipts, at-most-once acceptance -----------------------------
    def _handle_result(self, msg: Message, member: WorkerInfo | None, now: float) -> None:
        entry = self._assigned.get(msg.job_id)
        stale = (
            msg.job_id in self._done
            or entry is None
            or entry[1] != msg.worker_id
            or member is None
            or member.state not in ("live", "draining")
        )
        if stale:
            # a reassigned/duplicate/evicted-worker result: the lease was
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
        elif payload and obs.metrics_enabled():
            obs.inc("repro_result_pickled_payload_bytes_total", len(payload))
        if len(payload) != job.length:
            self._strike(member, job, now, f"short payload ({len(payload)}B)")
            return
        if payload_crc(payload) != msg.crc:
            self._strike(member, job, now, "crc mismatch")
            return
        # accept: exactly once per lease, then the lease is done forever
        self._done.add(job.job_id)
        self._results[job.job_id] = payload
        self._assigned.pop(job.job_id, None)
        self._release_slot(job.job_id)
        member.inflight.discard(job.job_id)
        member.jobs_done += 1
        member.strikes = 0  # a clean receipt clears the slate
        self.jobs_completed += 1
        self.leases.release(job.job_id)
        obs.inc("repro_fleet_jobs_total")
        obs.inc("repro_fleet_bytes_total", job.length)
        obs.observe("repro_fleet_chunk_seconds", max(now - dispatched_at, 0.0))
        if msg.metrics and obs.metrics_enabled():
            obs.registry().merge(msg.metrics, extra_labels={"worker": str(member.worker_id)})
        if msg.spans:
            tracer = obs.active_tracer()
            if tracer is not None:
                tracer.merge(msg.spans, extra_args={"worker": member.worker_id})

    def _strike(self, member: WorkerInfo, job: ChunkJob, now: float, why: str) -> None:
        member.strikes += 1
        obs.inc("repro_fleet_receipt_failures_total")
        flight.record(
            "crc-strike",
            worker=member.worker_id,
            job=job.job_id,
            strikes=member.strikes,
            why=why,
        )
        flight.dump("crc-strike")
        self._requeue(job)
        if member.strikes >= self.config.max_strikes:
            self._evict(member, "corrupt", now)

    def _requeue(self, job: ChunkJob) -> None:
        """Put a job back at the head of the queue, clearing its assignment."""
        self._requeue_clear(job)
        self._pending.appendleft(job)

    # -- liveness and eviction ----------------------------------------------------
    def _check_liveness(self, now: float) -> None:
        for member in list(self.members.values()):
            if member.state == "draining" and not self.transport.alive(member.worker_id):
                member.state = "drained"  # died while leaving; it was leaving
                self._publish_membership()
                continue
            if member.state not in ("launching", "live"):
                continue
            if not self.transport.alive(member.worker_id):
                self._evict(member, "crash", now)
                continue
            # strictly past the deadline: a heartbeat at exactly
            # last + timeout has already been credited by the pump order
            if now - member.last_heartbeat > self.config.heartbeat_timeout:
                self._evict(member, "heartbeat", now)

    def _evict(self, member: WorkerInfo, reason: str, now: float) -> None:
        if member.state == "evicted":
            return
        member.state = "evicted"
        member.evicted_reason = reason
        self.evictions += 1
        obs.inc("repro_fleet_evictions_total", reason=reason)
        self.events.append(FleetEvent("evict", member.worker_id, reason, now))
        flight.record(
            "eviction",
            worker=member.worker_id,
            reason=reason,
            jobs_done=member.jobs_done,
            inflight=sorted(member.inflight),
        )
        flight.dump("eviction")
        # reassign every inflight lease: back to the queue head so a
        # healthy peer regenerates the identical bytes
        for job_id in sorted(member.inflight):
            entry = self._assigned.get(job_id)
            if entry is None:
                continue
            job, _, dispatched_at = entry
            # safe to recycle its slot: the carrier is killed below,
            # before any reassignment can hand the slot to a new writer
            self._requeue(job)
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

    # -- elasticity and dispatch ---------------------------------------------------
    def _live_members(self) -> list[WorkerInfo]:
        return [m for m in self.members.values() if m.state == "live"]

    def _present(self) -> int:
        """Members currently filling a target slot (launching or live)."""
        return sum(1 for m in self.members.values() if m.state in ("launching", "live"))

    def _reconcile(self, now: float) -> None:
        if self._closed or not self._started:
            return
        backlog = len(self._pending)
        live = self._live_members()
        busy = bool(backlog or self._assigned)
        # scale up: the backlog outgrew the membership
        if (
            backlog > self.config.scale_up_backlog * max(len(live), 1)
            and self.target < self.config.max_workers
        ):
            self.target += 1
            self.scale_ups += 1
            obs.inc("repro_fleet_scale_events_total", direction="up")
            self.events.append(FleetEvent("scale_up", -1, f"backlog {backlog}", now))
        # scale down: sustained idle
        if busy:
            self._idle_since = None
        elif self._idle_since is None:
            self._idle_since = now
        elif (
            now - self._idle_since >= self.config.scale_down_idle_s
            and self.target > self.config.min_workers
        ):
            self.target -= 1
            self.scale_downs += 1
            self._idle_since = now  # the next step waits a full idle period again
            obs.inc("repro_fleet_scale_events_total", direction="down")
            self.events.append(FleetEvent("scale_down", -1, "idle", now))
            for member in sorted(live, key=lambda m: len(m.inflight)):
                if self._present() <= self.target:
                    break
                member.state = "draining"
                try:
                    self.transport.send_job(member.worker_id, None)
                except Exception:  # pragma: no cover - carrier already gone
                    member.state = "drained"
                self._publish_membership()
                break
        # relaunch toward target, unless the eviction budget is spent
        while self._present() < self.target and self.evictions <= self.config.max_evictions:
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
            info.state = "evicted"
            info.evicted_reason = "crash"
            self.evictions += 1
            obs.inc("repro_fleet_evictions_total", reason="crash")
            self.events.append(FleetEvent("evict", worker_id, f"launch failed: {exc}", now))
        self._publish_membership()

    def _lease_slot(self, job: ChunkJob) -> ChunkJob:
        """Attach a ring slot for the job's result (``None`` when there
        is no ring or the pool is momentarily dry — the worker then
        ships payload bytes).  Re-dispatch always re-leases, so a
        requeued job never carries a slot it no longer owns."""
        slot = self._free_slots.popleft() if self._ring is not None and self._free_slots else None
        if slot is not None:
            self._job_slots[job.job_id] = slot
        if job.ring_slot == slot:
            return job
        return replace(job, ring_slot=slot)

    def _release_slot(self, job_id: int) -> None:
        """Return a job's slot to the pool (idempotent per lease).

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
            member = min(candidates, key=lambda m: (len(m.inflight), m.worker_id))
            job = self._lease_slot(self._pending.popleft())
            try:
                self.transport.send_job(member.worker_id, job)
            except Exception:
                self._release_slot(job.job_id)
                self._pending.appendleft(job)
                self._evict(member, "crash", now)
                continue
            self._assigned[job.job_id] = (job, member.worker_id, now)
            member.inflight.add(job.job_id)

    # -- degraded mode -------------------------------------------------------------
    def _fleet_exhausted(self) -> bool:
        """No member is present and the relaunch budget is spent."""
        return self._present() == 0 and self.evictions > self.config.max_evictions

    def _inline_source(self) -> RangeSource:
        if self._inline is None:
            self._inline = RangeSource(self.stream, max_streams=2)
        return self._inline

    # -- the data path -------------------------------------------------------------
    def submit_range(self, offset: int, n: int) -> list[ChunkJob]:
        """Lease and dispatch chunk jobs covering ``[offset, offset + n)``.

        Each job is backed by a fresh lease id (never reissued), so
        acceptance bookkeeping is exact.  Returns without waiting; pair
        with :meth:`try_collect` (or use :meth:`read_range`).
        """
        if n < 0 or offset < 0:
            raise SpecificationError("need offset >= 0 and n >= 0")
        jobs: list[ChunkJob] = []
        with self._lock:
            if self._closed:
                raise SpecificationError("fleet controller is closed")
            if not self._started:
                self.start(supervise=False)
            # stamp each job with the caller's trace context so worker
            # spans come home under the same trace (None while tracing
            # is off — the wire must add nothing to the disabled path)
            wire = trace_context.current_wire() if obs.active_tracer() else None
            pos, remaining = offset, n
            while remaining:
                take = min(self.config.chunk_bytes, remaining)
                lease = self.leases.acquire(take, client=f"fleet@{pos}")
                jobs.append(ChunkJob(lease.lease_id, pos, take, trace=wire))
                pos += take
                remaining -= take
            self._pending.extend(jobs)
            self._assign(self.clock())
        return jobs

    def try_collect(self, jobs: list[ChunkJob]) -> bytes | None:
        """The merged bytes of *jobs* once every result landed, else ``None``."""
        with self._lock:
            if not all(job.job_id in self._results for job in jobs):
                return None
            return b"".join(self._results.pop(job.job_id) for job in jobs)

    def read_range(self, offset: int, n: int, timeout: float | None = None) -> bytes:
        """Generate stream bytes ``[offset, offset + n)`` through the fleet.

        Splits the range into chunk jobs (each backed by a never-reissued
        lease id), dispatches them, pumps while waiting, and joins the
        results in order.  Survives any number of evictions up to the
        budget; beyond it, finishes inline (when ``degrade_inline``) so
        the caller never sees the fleet's losses — only, perhaps, their
        latency.
        """
        if n == 0:
            return b""
        with span("fleet.read_range", offset=offset, n=n):
            return self._read_range(offset, n, timeout)

    def _read_range(self, offset: int, n: int, timeout: float | None) -> bytes:
        jobs = self.submit_range(offset, n)
        deadline = None if timeout is None else self.clock() + timeout
        period = min(self.config.heartbeat_interval / 2.0, 0.05)
        while True:
            with self._lock:
                merged = self.try_collect(jobs)
                if merged is not None:
                    return merged
                if self._fleet_exhausted():
                    missing = [
                        job
                        for job in jobs
                        if job.job_id not in self._results and job.job_id not in self._done
                    ]
                    if not self.config.degrade_inline:
                        raise DeviceFailureError(
                            f"fleet exhausted after {self.evictions} evictions "
                            f"({len(missing)} chunks unserved)"
                        )
                    for job in missing:
                        # claim each lease inline before generating, so a
                        # straggler's late result is stale, not a duplicate
                        self._pending = deque(
                            j for j in self._pending if j.job_id != job.job_id
                        )
                        self._requeue_clear(job)
                        self._done.add(job.job_id)
                        self.leases.release(job.job_id)
                    if missing:
                        self.degraded_chunks += len(missing)
                        obs.inc("repro_fleet_degraded_chunks_total", len(missing))
                        self.events.append(
                            FleetEvent(
                                "degrade", -1, f"{len(missing)} chunks inline", self.clock()
                            )
                        )
                    source = self._inline_source()
                    for job in missing:
                        data = source.read_range(job.offset, job.length)
                        with self._lock:
                            self._results[job.job_id] = data
                    continue
            if deadline is not None and self.clock() > deadline:
                raise DeviceFailureError(
                    f"fleet did not serve {n} bytes at {offset} within {timeout}s"
                )
            self.pump(period)

    def _requeue_clear(self, job: ChunkJob) -> None:
        """Drop a job's assignment without requeueing (inline takeover)."""
        entry = self._assigned.pop(job.job_id, None)
        if entry is not None:
            _, owner, _ = entry
            owner_info = self.members.get(owner)
            if owner_info is not None:
                owner_info.inflight.discard(job.job_id)
        self._release_slot(job.job_id)

    def generate(self, n: int, offset: int = 0) -> bytes:
        """Convenience: one fleet-merged range (CLI / benchmarks)."""
        return self.read_range(offset, n)

    # -- introspection -------------------------------------------------------------
    def _publish_membership(self) -> None:
        counts = {state: 0 for state in WORKER_STATES}
        for member in self.members.values():
            counts[member.state] += 1
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
                    "reassignments": self.reassignments,
                    "stale_results": self.stale_results,
                    "scale_ups": self.scale_ups,
                    "scale_downs": self.scale_downs,
                    "degraded_chunks": self.degraded_chunks,
                    "jobs_completed": self.jobs_completed,
                },
                "pending_jobs": len(self._pending),
                "inflight_jobs": len(self._assigned),
                "leases": {
                    key: value
                    for key, value in self.leases.stats().items()
                    if key != "active_leases"
                },
                "events": [event.to_dict() for event in self.events[-50:]],
            }
