"""The daemon's generation core: a persistent, supervised worker pool.

:class:`ServeEngine` turns lease ranges into bytes.  It reuses the
machinery the batch layers built:

* **counter-space addressing** — every chunk is a pure function of
  ``(stream config, offset, length)`` via :meth:`BSRNG.skip_bytes`, the
  same partitioning :mod:`repro.gpu.multigpu` uses (§5.4 of the paper),
  so any worker can serve any chunk and a retried chunk is
  byte-identical;
* **supervision** — the per-chunk dispatch applies the
  :class:`~repro.robust.supervisor.SupervisorConfig` policy (timeout,
  retry with backoff, a CRC receipt via
  :func:`~repro.robust.supervisor.payload_crc` on every attempt) against
  a *persistent*
  ``multiprocessing.Pool`` instead of the batch supervisor's
  pool-per-round: a long-lived service cannot pay pool startup per
  request, and a worker that crashes is replaced by the pool while the
  chunk is retried elsewhere — the lease is effectively reassigned;
* **pipelining** — :meth:`ServeEngine.submit` starts a chunk's pool
  attempt and :meth:`ServeEngine.collect` accepts it (verify, screen,
  QA, retry in place), so a caller can keep several chunks in flight
  and still accept them in stream order; :meth:`ServeEngine.generate_range`
  is the one-chunk case;
* **one range body** — a pool worker runs :func:`range_attempt`, the
  stream-range body shared with fleet members and multi-device
  partitions, inside the bare
  :func:`~repro.robust.supervisor.attempt_shell` (no metrics scope:
  serve workers ship none).  The shell honours ``REPRO_FAULT_PLAN``
  (:class:`~repro.robust.faults.FaultPlan`) keyed by ``(chunk_id,
  attempt)``, so drills can crash a worker, wedge or bias a payload
  deterministically;
* **zero-copy bulk results** — a pool chunk above
  :data:`RING_MIN_BYTES` comes back through a ring slot
  (:class:`~repro.core.ring.SharedMemoryRing`, created before the pool
  forks), not pickled through the pool's result pipe; the parent copies
  it out and checks its receipt on the copy;
* **health gating** — pool, fleet and inline chunks share one
  acceptance tail: the SP 800-90B Repetition Count / Adaptive Proportion
  screen (:class:`HealthState`, one
  :class:`~repro.robust.health.HealthScreen`), the dispatch counters,
  then the QA sidecar.  A chunk reaches the tail only once its CRC
  receipt verified, so its bytes are the generator's own and a retry
  could only return them again: a screen failure is the stream's, never
  a transfer fault.  The chunk is served and the verdict is *latched* —
  ``/healthz`` reports unhealthy from the first failure until an
  operator intervenes.  Only timeouts, worker errors and CRC mismatches
  are retried (a retried chunk is replayed from the worker's recent
  ranges, or regenerated if they no longer hold it).

Worker processes each own a bounded :class:`RangeSource` cache of
generator fronts per stream config (the *per-worker ownership
invariant* — see :class:`BSRNG`'s thread-safety notes), so interleaved
clients continue their own fronts instead of forcing a seek per chunk.
Counter-based kernels (AES-CTR) seek in O(1); LFSR kernels
clock-and-discard, which the chunk metrics make visible.
"""

from __future__ import annotations

import contextlib
import multiprocessing as mp
import multiprocessing.pool
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.core.generator import BSRNG
from repro.core.ring import SharedMemoryRing, attach_ring, resolve_start_method
from repro.errors import DeviceFailureError, SpecificationError
from repro.obs import context as trace_context
from repro.obs import flight
from repro.obs.tracing import DetachedSpan, detached_span
from repro.robust.faults import FaultPlan
from repro.robust.health import HealthScreen
from repro.robust.supervisor import SupervisorConfig, attempt_shell, payload_crc

__all__ = [
    "StreamConfig",
    "RangeSource",
    "range_attempt",
    "HealthState",
    "ChunkTicket",
    "ServeEngine",
]


@dataclass(frozen=True)
class StreamConfig:
    """The served stream's identity: one deterministic BSRNG configuration.

    Picklable (dtype carried by name), hashable (worker-side generator
    cache key), and auditable — a client holding this config and a lease
    offset can reproduce its bytes offline.
    """

    algorithm: str = "mickey2"
    seed: int = 0
    lanes: int = 4096
    dtype: str = "uint64"
    fused: bool | None = None
    clocks_per_call: int = 32

    def make_rng(self) -> BSRNG:
        """A fresh generator positioned at stream offset 0."""
        return BSRNG(
            self.algorithm,
            seed=self.seed,
            lanes=self.lanes,
            dtype=np.dtype(self.dtype).type,
            fused=self.fused,
            clocks_per_call=self.clocks_per_call,
        )

    def to_dict(self) -> dict:
        """JSON form for ``/v1/status``."""
        return {
            "algorithm": self.algorithm,
            "seed": self.seed,
            "lanes": self.lanes,
            "dtype": self.dtype,
            "fused": self.fused,
            "clocks_per_call": self.clocks_per_call,
        }


class RangeSource:
    """Serve absolute stream ranges from a bounded cache of generators.

    Interleaved clients each advance their own contiguous window of the
    stream, so the offsets any one worker sees hop between a handful of
    fronts.  A single cached generator would pay a skip — or, for LFSR
    kernels, a full clock-and-discard rebuild — on nearly every chunk
    (measured: 8 concurrent clients halved total throughput).  Instead,
    up to ``max_streams`` generators are kept, keyed by the offset each
    would serve next:

    * a read continuing any cached front costs nothing extra;
    * a read ahead of the nearest front pays only the forward gap
      (O(1) for counter-based kernels, generate-and-discard for LFSRs);
    * only a read behind *every* cached front rebuilds from seed.

    Because leases tile the stream contiguously, a serving worker almost
    always finds an exact or near front, whatever kernel family runs
    underneath.  Eviction is LRU by last use; a collision on the same
    next-offset replaces only that front, keeping the most recent
    generator.

    Ahead of the fronts sits a *replay* tier: the last ``max_streams``
    ranges returned, keyed by ``(offset, n)`` and held by reference, not
    copied (``bytes`` are immutable).  Every range is a pure function of
    ``(config, offset, n)``, so a retried chunk — damaged after it left
    the generator, or lost with a timed-out attempt — is answered from
    the window without advancing any generator, instead of rebuilding
    behind every front.
    The window holds at most ``max_streams`` ranges (8 × 64 KiB for a
    serve pool worker).  One internal lock makes the shared
    inline-fallback instance safe under concurrent callers.
    """

    def __init__(self, config: StreamConfig, max_streams: int = 8) -> None:
        if max_streams <= 0:
            raise SpecificationError("max_streams must be positive")
        self.config = config
        self.max_streams = max_streams
        self._streams: dict[int, BSRNG] = {}  # next served offset -> generator
        self._recent: dict[tuple[int, int], bytes] = {}  # (offset, n) -> its bytes
        self._lock = threading.Lock()
        self.rebuilds = 0
        self.forward_skips = 0
        self.replays = 0

    def publish_metrics(self) -> None:
        """:meth:`BSRNG.publish_metrics` for every cached generator."""
        with self._lock:
            for rng in self._streams.values():
                rng.publish_metrics()

    def read_range(self, offset: int, n: int) -> bytes:
        """The stream's bytes ``[offset, offset + n)``."""
        if offset < 0 or n < 0:
            raise SpecificationError("offset and n must be non-negative")
        key = (offset, n)
        with self._lock:
            out = self._recent.pop(key, None)
            if out is not None:
                self._recent[key] = out  # most recent again
                self.replays += 1
                return out
            rng = self._streams.pop(offset, None)
            if rng is None:
                behind = [o for o in self._streams if o < offset]
                if behind:
                    # nearest front at-or-behind pays the smallest gap
                    rng = self._streams.pop(max(behind))
                    self.forward_skips += 1
                else:
                    rng = self.config.make_rng()
                    self.rebuilds += 1
                rng.skip_bytes(offset - rng.tell())
            out = rng.read(n)
            self._streams.pop(offset + n, None)  # a collision replaces only itself
            for cache in (self._streams, self._recent):
                if len(cache) >= self.max_streams:
                    cache.pop(next(iter(cache)))  # oldest entry
            self._streams[offset + n] = rng
            self._recent[key] = out
            return out


def range_attempt(
    source: RangeSource,
    partition: int,
    attempt: int,
    offset: int,
    n: int,
    plan: FaultPlan | None,
    shell=attempt_shell,
    ring: tuple | None = None,
    account=None,
    **shell_args,
) -> tuple:
    """Generate ``[offset, offset + n)`` of *source*'s stream inside *shell*.

    The one body of every stream-range worker: a served pool chunk, a
    fleet lease and a multi-device partition.  It draws through
    :meth:`RangeSource.read_range`; a ``bias`` fault keyed by
    *partition* then masks the bytes, so the cold CRC that *shell*
    (:func:`~repro.robust.supervisor.attempt_shell` or
    :func:`~repro.robust.supervisor.worker_attempt`) takes next covers
    the bias — a defective generator verifies clean.  *account*, if
    given, gets the draw's wall time inside the shell's metrics scope.
    With a *ring* ``(name, slot_bytes, slots, slot)`` the final payload
    (after post-generation faults) is parked in that slot and its
    :class:`~repro.core.ring.RingSlotRef` returned in its place.
    """

    def produce():
        t0 = time.perf_counter()
        data = source.read_range(offset, n)
        if plan is not None:
            data = plan.apply_bias(partition, data)
        if account is not None:
            account(time.perf_counter() - t0)
        return data

    out = shell(partition, attempt, plan, produce, offset=offset, n=n, **shell_args)
    if ring is not None:
        name, slot_bytes, slots, slot = ring
        if len(out[0]) <= slot_bytes:
            out = (attach_ring(name, slot_bytes, slots).write(slot, out[0]), *out[1:])
    return out


# -- worker side -----------------------------------------------------------------
#: Per-process generator cache: one RangeSource per stream config, owned
#: exclusively by this worker process (the ownership invariant that makes
#: the pool path lock-free in practice).
_WORKER_SOURCES: dict[StreamConfig, RangeSource] = {}


def _worker_init() -> None:
    """Pool initializer: a fork-inherited parent registry must not
    double-count, and serve workers report nothing of their own."""
    obs.disable_metrics()
    obs.disable_tracing()


def _serve_chunk(job: tuple, attempt: int = 0, ring: tuple | None = None) -> tuple:
    """One pool chunk → ``(data, crc, spans)``: :func:`range_attempt` in the
    bare shell (serve workers ship no metrics), faults from
    ``REPRO_FAULT_PLAN`` keyed by ``(chunk_id, attempt)``.

    ``job`` is ``(chunk_id, config, offset, n, trace)``.  Without *ring*
    the bytes ship pickled as ``data``; with *ring* ``(name, slot_bytes,
    slots, slot)`` they are parked in that slot of the engine's
    :class:`~repro.core.ring.SharedMemoryRing` and ``data`` is their
    :class:`~repro.core.ring.RingSlotRef`.
    """
    chunk_id, config, offset, n, trace = job
    source = _WORKER_SOURCES.get(config)
    if source is None:
        source = _WORKER_SOURCES[config] = RangeSource(config)
    return range_attempt(
        source, chunk_id, attempt, offset, n, FaultPlan.from_env(), ring=ring,
        trace=trace, span_name="serve.worker_chunk", process_name="serve-pool-worker",
    )


# -- health gating ---------------------------------------------------------------
class HealthState:
    """Latched RCT/APT verdict over everything the daemon serves.

    One :class:`~repro.robust.health.HealthScreen` screens the
    concatenation of accepted chunks (order of interleaved clients is
    irrelevant to the tests' guarantees — they hunt stuck-at and biased
    output, properties of the generator, not of any one lease).  The
    verdict is sticky: one failure flips :attr:`healthy` until
    :meth:`reset`.
    """

    def __init__(self, alpha: float = 2.0**-20) -> None:
        self.alpha = alpha
        self._lock = threading.Lock()
        self._screen = HealthScreen(alpha)
        self.healthy = True
        self.events: list[dict] = []

    def screen(self, data: bytes) -> str | None:
        """Screen one chunk; returns the failing test name or ``None``.

        A failing chunk is still served, so unlike the screen (whose
        other holders discard or requeue it) the position counts it;
        the screen has reset its tests, so the next chunk starts clean.
        On failure the verdict latches unhealthy.
        """
        with self._lock:
            event = self._screen.update(data)
            if event is None:
                return None
            self._screen.position += len(data)
            self._latch(
                {"test": event.test, "position": event.position, "time": time.time()},
                position=event.position,
            )
            return event.test

    def latch(self, test: str, detail: dict | None = None) -> None:
        """Latch unhealthy on an external monitor's verdict.

        The continuous-QA sidecar calls this with ``test="qa:<plugin>"``
        and the triggering window's particulars — same sticky operator
        contract as an RCT/APT screen failure, one layer up.
        """
        event: dict = {"test": test, "time": time.time()}
        if detail:
            event["detail"] = detail
        with self._lock:
            self._latch(event)

    def _latch(self, event: dict, **flight_args) -> None:
        """Record *event* and flip the verdict (the caller holds the lock)."""
        self.healthy = False
        self.events.append(event)
        obs.inc("repro_serve_health_failures_total", 1, test=event["test"])
        obs.set_gauge("repro_serve_healthy", 0)
        flight.record("health-failure", test=event["test"], **flight_args)
        flight.dump("health")

    def reset(self) -> None:
        """Operator action: clear the latch (events are kept)."""
        with self._lock:
            self.healthy = True
            self._screen.reset()
            obs.set_gauge("repro_serve_healthy", 1)

    def to_dict(self) -> dict:
        """JSON form for ``/healthz`` and ``/v1/status``."""
        with self._lock:
            return {
                "healthy": self.healthy,
                "bytes_screened": self._screen.position,
                "events": list(self.events),
            }


# -- the engine ------------------------------------------------------------------
#: A pool chunk larger than this returns through a ring slot.  Up to it,
#: ``multiprocessing.connection`` sends a pickled result's header and body
#: in one write, and a slot ref's pickle plus the parent's resolve cost
#: more than the copy they save.
RING_MIN_BYTES = 16 * 1024

#: Slots in the serve pool's ring: 1 MiB at the default 64 KiB chunk,
#: enough for several pipelined streams in flight.
RING_SLOTS = 16


class _SlotLease:
    """One pool attempt's ring slot.  Two parties hold it — the attempt
    that writes it and the ticket that reads it — and it goes back to the
    free list only when both have let go, so a live writer never shares
    its slot with a later chunk."""

    __slots__ = ("slot", "holds")

    def __init__(self, slot: int) -> None:
        self.slot = slot
        self.holds = 2


@dataclass
class EngineStats:
    """Dispatch counters for ``/v1/status`` (guarded by the engine lock)."""

    chunks_ok: int = 0
    retries: int = 0
    degraded: int = 0
    crc_rejects: int = 0
    screen_rejects: int = 0
    timeouts: int = 0
    worker_errors: int = 0

    def to_dict(self) -> dict:
        return dict(vars(self))


@dataclass
class ChunkTicket:
    """One chunk between :meth:`ServeEngine.submit` and its collection."""

    chunk_id: int  #: FaultPlan partition key
    offset: int
    n: int
    span: DetachedSpan | None  #: ``serve.chunk``, dispatch to acceptance
    pending: multiprocessing.pool.AsyncResult | None = None  #: running pool attempt
    lease: _SlotLease | None = None  #: the running attempt's ring slot, if any


class ServeEngine:
    """Generate lease ranges through a persistent supervised worker pool.

    A pool chunk above :data:`RING_MIN_BYTES` that fits a slot returns
    through the engine's ring of :data:`RING_SLOTS` slots of
    ``start(chunk_bytes)`` each.  Each pool attempt leases its own slot;
    the slot is free again once the attempt has finished *and* the
    ticket has copied it out or let go (timeout, :meth:`cancel`), so a
    still-running writer never shares its slot with a later chunk.
    Smaller chunks, and any chunk that finds no free slot, ship pickled.

    Parameters
    ----------
    config:
        The served stream's :class:`StreamConfig`.
    workers:
        Pool size.  ``0`` disables the pool entirely — every chunk is
        generated inline (useful for tests and single-core boxes).
    supervision:
        Timeout/retry policy per chunk; every attempt's CRC receipt is
        checked (:class:`~repro.robust.supervisor.SupervisorConfig`; its
        ``degrade_sequential`` flag controls the inline fallback when the
        pool exhausts its retries).
    screen:
        Run the RCT/APT health screen over accepted chunks.
    alpha:
        False-positive rate for the screening cutoffs.
    mp_context:
        Start method of the pool's workers (``None``: fork where
        available).  It also picks the result ring's backing: an
        anonymous mapping under fork, a named segment otherwise.
    fleet:
        Mount a supervised :class:`~repro.fleet.controller.FleetController`
        (heartbeat liveness, receipt strikes, lease reassignment, elastic
        sizing) in place of the anonymous pool.  When set, ``workers`` is
        ignored — membership is the fleet's business — and worker loss is
        absorbed below this engine: chunks are regenerated by healthy
        peers or inline, never surfaced to clients as errors.
    qa:
        Mount a :class:`~repro.qa.sidecar.QASidecar` as a continuous-QA
        monitor: every accepted chunk is (non-blockingly) observed by
        the sidecar's streaming evaluator, and a plugin latch flips
        :attr:`health` unhealthy with a ``qa:<plugin>`` event.
    """

    def __init__(
        self,
        config: StreamConfig | None = None,
        workers: int = 2,
        supervision: SupervisorConfig | None = None,
        screen: bool = True,
        alpha: float = 2.0**-20,
        mp_context: str | None = None,
        fleet=None,
        qa=None,
    ) -> None:
        if workers < 0:
            raise SpecificationError("workers must be non-negative")
        self.config = config or StreamConfig()
        self.workers = workers
        self.supervision = supervision or SupervisorConfig(timeout=30.0, max_retries=2)
        self.screen = screen
        self.health = HealthState(alpha)
        self.stats = EngineStats()
        self._stats_lock = threading.Lock()
        self.mp_context = resolve_start_method(mp_context)
        self.fleet_config = fleet  # FleetConfig | None (lazy import below)
        self._fleet = None  # FleetController once started
        self.qa = qa  # QASidecar | None
        if qa is not None:
            qa.bind(self.health)
        self._pool: multiprocessing.pool.Pool | None = None
        self._ring: SharedMemoryRing | None = None
        self._free_slots: list[int] = []  # LIFO: hot slots stay hot
        self._slot_lock = threading.Lock()
        self._inline: RangeSource | None = None
        self._started = False

    # -- lifecycle ---------------------------------------------------------------
    def start(self, chunk_bytes: int = 1 << 16) -> None:
        """Spin up the worker pool (idempotent).

        Call *before* the event loop starts serving: fork-context pools
        must not be created after request threads exist.  The pool's
        result ring is created first, so every worker — the pool's
        later replacements included — forks with it mapped; its slots
        hold *chunk_bytes* each (the daemon's ``chunk_bytes``).
        """
        if self._started:
            return
        self._started = True
        obs.set_gauge("repro_serve_healthy", 1)
        if self.qa is not None:
            self.qa.start()
        if self.fleet_config is not None:
            # deferred import: repro.fleet builds on this module
            from repro.fleet.controller import FleetController

            obs.set_gauge("repro_serve_pool_workers", 0)
            self._fleet = FleetController(self.config, self.fleet_config)
            self._fleet.start(supervise=True)
            return
        obs.set_gauge("repro_serve_pool_workers", self.workers)
        if self.workers > 0:
            if chunk_bytes > RING_MIN_BYTES:
                self._ring = SharedMemoryRing.try_create(chunk_bytes, RING_SLOTS, self.mp_context)
                if self._ring is not None:
                    self._free_slots = list(range(self._ring.slots))
            ctx = mp.get_context(self.mp_context)
            self._pool = ctx.Pool(processes=self.workers, initializer=_worker_init)

    def close(self) -> None:
        """Terminate the pool/fleet (hung workers must die with the daemon)."""
        if self.qa is not None:
            self.qa.close()
        if self._fleet is not None:
            self._fleet.close()
            self._fleet = None
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
        if self._ring is not None:
            self._ring.close()
            self._ring = None
        self._started = False

    def _inline_source(self) -> RangeSource:
        if self._inline is None:
            self._inline = RangeSource(self.config)
        return self._inline

    def _count(self, **deltas: int) -> None:
        with self._stats_lock:
            for name, d in deltas.items():
                setattr(self.stats, name, getattr(self.stats, name) + d)

    # -- dispatch ----------------------------------------------------------------
    def submit(self, offset: int, n: int, chunk_id: int = 0, trace=None) -> ChunkTicket:
        """Dispatch the stream bytes ``[offset, offset + n)`` without waiting.

        On the pool the chunk's first attempt starts at once; the caller
        later hands the ticket to :meth:`collect` (or :meth:`cancel`).
        Submitting several chunks before collecting them in order is the
        daemon's pipeline: the pool generates ahead while this process
        verifies, screens and writes earlier chunks.

        *trace* re-activates a caller's ``(trace_id, span_id)`` wire pair
        as the parent of the chunk's ``serve.chunk`` span — the daemon
        captures it on the event loop because contextvars do not follow
        ``run_in_executor``.
        """
        if trace is not None:
            entry = trace_context.activate(trace_context.TraceContext.from_wire(trace))
        else:
            entry = contextlib.nullcontext()
        with entry:
            chunk_span = detached_span("serve.chunk", chunk=chunk_id, offset=offset, n=n)
        ticket = ChunkTicket(chunk_id, offset, n, chunk_span)
        if self._pool is not None and n:
            ticket.pending = self._dispatch(ticket, 0)
        return ticket

    def collect(self, ticket: ChunkTicket) -> bytes:
        """The submitted chunk's bytes, supervised.

        Waits for the pool attempt (timeout), verifies its CRC receipt,
        screens and QA-observes it — so callers that collect in stream
        order screen in stream order — and retries an attempt that timed
        out, raised or failed its receipt in place with backoff.  Falls
        back to inline generation when the pool is exhausted and
        degradation is enabled.  Raises
        :class:`~repro.errors.DeviceFailureError` only when every path
        failed.  Safe to call from many threads (one ticket each): the
        persistent pool multiplexes, and the inline fallback serialises
        on the generator lock.
        """
        if ticket.n == 0:
            return b""
        if ticket.span is None:
            return self._accept(ticket)
        try:
            with trace_context.activate(ticket.span.context):
                return self._accept(ticket)
        finally:
            ticket.span.finish()

    def cancel(self, ticket: ChunkTicket) -> None:
        """Abandon an uncollected ticket; a pool attempt still running
        finishes unobserved (its bytes are never screened or served) and
        keeps its ring slot until it does."""
        self._let_go(ticket)
        if ticket.span is not None:
            ticket.span.finish(cancelled=True)

    def generate_range(self, offset: int, n: int, chunk_id: int = 0, trace=None) -> bytes:
        """The stream bytes ``[offset, offset + n)``: one chunk submitted
        and collected (see :meth:`submit` and :meth:`collect`)."""
        return self.collect(self.submit(offset, n, chunk_id, trace))

    def _accept(self, ticket: ChunkTicket) -> bytes:
        cfg = self.supervision
        if self._fleet is not None:
            try:
                data = self._fleet.read_range(ticket.offset, ticket.n)
            except DeviceFailureError:
                # the fleet is gone and refused to degrade; the engine
                # still owes the caller deterministic bytes
                if not cfg.degrade_sequential:
                    raise
            else:
                # the fleet checks receipts only; the one screen is the
                # tail's, which latches the service-wide /healthz verdict
                return self._finish(data)
        elif self._pool is not None:
            for attempt in range(cfg.max_retries + 1):
                if attempt:
                    time.sleep(cfg.backoff(attempt))
                    self._count(retries=1)
                    obs.inc("repro_serve_chunk_retries_total")
                    ticket.pending = self._dispatch(ticket, attempt)
                try:
                    data = self._await_attempt(ticket, cfg)
                finally:
                    self._let_go(ticket)
                if data is not None:
                    return self._finish(data)
            if not cfg.degrade_sequential:
                raise DeviceFailureError(
                    f"chunk {ticket.chunk_id} (offset {ticket.offset}, {ticket.n} bytes) "
                    f"failed {cfg.max_retries + 1} pool attempts"
                )
        if self._fleet is not None or self._pool is not None:
            self._count(degraded=1)
            obs.inc("repro_serve_degraded_chunks_total")
        # inline path: workers disabled, or the pool/fleet exhausted
        # (degrade).  The inline stream is deterministic and fault-free.
        return self._finish(self._inline_source().read_range(ticket.offset, ticket.n))

    def _finish(self, data: bytes) -> bytes:
        """The one acceptance tail: screen → count → QA.  Every chunk here
        is the generator's own bytes (a pool attempt's receipt verified),
        so a screen failure is the stream's: it latches :attr:`health`
        and the chunk is served — retrying would return the same bytes
        and trip again, and /healthz tells the operator the generator
        itself is suspect."""
        if self.screen and self.health.screen(data) is not None:
            self._count(screen_rejects=1)
        self._count(chunks_ok=1)
        if self.qa is not None:
            self.qa.observe(data)  # non-blocking
        return data

    def _dispatch(self, ticket: ChunkTicket, attempt: int) -> multiprocessing.pool.AsyncResult:
        """Start one pool attempt of *ticket*'s chunk.

        A chunk above :data:`RING_MIN_BYTES` that fits a slot leases a
        free one for this attempt; with none free it ships pickled.  The
        attempt's completion (result or error) is the writer letting go.
        """
        wire = ticket.span.context.to_wire() if ticket.span is not None else None
        job = (ticket.chunk_id, self.config, ticket.offset, ticket.n, wire)
        ring = self._ring
        lease = None
        if ring is not None and RING_MIN_BYTES < ticket.n <= ring.slot_bytes:
            with self._slot_lock:
                if self._free_slots:
                    lease = _SlotLease(self._free_slots.pop())
        if lease is None:
            return self._pool.apply_async(_serve_chunk, (job, attempt))
        ticket.lease = lease

        def done(_result) -> None:
            self._drop(lease)

        return self._pool.apply_async(
            _serve_chunk, (job, attempt, (*ring.spec, lease.slot)),
            callback=done, error_callback=done,
        )

    def _drop(self, lease: _SlotLease) -> None:
        """One holder lets go of *lease*; the last one frees its slot."""
        with self._slot_lock:
            lease.holds -= 1
            if lease.holds == 0:
                self._free_slots.append(lease.slot)

    def _let_go(self, ticket: ChunkTicket) -> None:
        """The ticket stops reading its current attempt's slot (if any)."""
        lease, ticket.lease = ticket.lease, None
        if lease is not None:
            self._drop(lease)

    def _await_attempt(self, ticket: ChunkTicket, cfg: SupervisorConfig) -> bytes | None:
        """Wait for the pending pool attempt, copy a ring-parked payload
        out of its slot and verify the CRC receipt on the copy — so a
        torn or stale slot is retried like a corrupted transfer; ``None``
        means retry (reason counted)."""
        try:
            data, crc, spans = ticket.pending.get(cfg.timeout)
        except mp.TimeoutError:
            self._count(timeouts=1)
            obs.inc("repro_serve_chunk_failures_total", 1, kind="timeout")
            return None
        except Exception as exc:  # worker raised (crash, injected fault, ...)
            self._count(worker_errors=1)
            obs.inc("repro_serve_chunk_failures_total", 1, kind="error")
            obs.inc("repro_serve_worker_exceptions_total", 1, exception=type(exc).__name__)
            return None
        if spans is not None:
            tracer = obs.active_tracer()
            if tracer is not None:
                tracer.merge(spans)
        if self._ring is not None and ticket.n > RING_MIN_BYTES:
            data = self._ring.resolve(data)  # a slot ref, or bytes that shipped pickled
        if payload_crc(data) != crc:
            self._count(crc_rejects=1)
            obs.inc("repro_serve_chunk_failures_total", 1, kind="corrupt")
            flight.record("crc-reject", chunk=ticket.chunk_id, offset=ticket.offset, n=ticket.n)
            flight.dump("crc")
            return None
        return data

    # -- introspection -----------------------------------------------------------
    def status(self) -> dict:
        """JSON snapshot for ``/v1/status``."""
        with self._stats_lock:
            stats = self.stats.to_dict()
        return {
            "stream": self.config.to_dict(),
            "workers": self.workers if self._fleet is None else None,
            "fleet": self._fleet.status() if self._fleet is not None else None,
            "supervision": {
                "timeout": self.supervision.timeout,
                "max_retries": self.supervision.max_retries,
                "degrade_sequential": self.supervision.degrade_sequential,
            },
            "screen": self.screen,
            "chunks": stats,
            "health": self.health.to_dict(),
            "qa": self.qa.status() if self.qa is not None else None,
        }
