"""Multi-device scale-out (paper §5.4), supervised.

The paper splits the input parameters — seed, nonce, counter — across
GPUs, runs the same kernel on each, and concatenates the outputs; with
two GTX 1080 Tis it measures 1.92× and notes that 4–8 devices degrade
"due to the cost of data scheduling latency [and] data concatenation".

Here a *device* is a worker process: the partitioning, per-device
generation and reconstruction logic is identical, and the key §5.4
property — the multi-device output equals the single-device sequential
output — is testable exactly.

Partitions are submitted through a
:class:`~repro.robust.supervisor.PartitionSupervisor`, which adds the
failure handling the paper's demo fan-out lacks: per-partition timeouts,
retry with exponential backoff, CRC verification of each
received payload, and graceful degradation to in-process generation when
the worker pool is exhausted.  Because each partition is a pure function
of ``(seed, start_block, n_blocks)``, a retried partition regenerates
byte-identical data — recovery never perturbs the output stream.  A
deterministic :class:`~repro.robust.faults.FaultPlan` can be threaded
into the workers (constructor argument or ``REPRO_FAULT_PLAN`` env var)
to exercise every recovery path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.core.ring import SharedMemoryRing
from repro.errors import ModelError, SpecificationError
from repro.obs import context as trace_context
from repro.obs.tracing import span
from repro.robust.faults import FaultPlan
from repro.robust.supervisor import (
    PartitionSupervisor,
    SupervisorConfig,
    SupervisorReport,
    worker_attempt,
)
from repro.serve.engine import RangeSource, StreamConfig, range_attempt

__all__ = [
    "partition_counter_space",
    "scaling_model",
    "MultiDeviceGenerator",
    "LanePartitionedGenerator",
    "DevicePartition",
    "PartitionOutcome",
    "GenerationReport",
]

#: Bitsliced banks that support the seed/IV-space lane partitioning
#: (algorithm name → class path).  AES-CTR partitions the counter space
#: via MultiDeviceGenerator instead; the row-major baselines have no lane
#: notion.
_LANE_BANKS = {
    "mickey2": "repro.ciphers.mickey_bitsliced.BitslicedMickey2",
    "grain": "repro.ciphers.grain_bitsliced.BitslicedGrain",
    "trivium": "repro.ciphers.trivium_bitsliced.BitslicedTrivium",
}


@dataclass(frozen=True)
class DevicePartition:
    """One device's slice of the global counter space."""

    device_id: int
    start_block: int
    n_blocks: int


def partition_counter_space(total_blocks: int, n_devices: int) -> list[DevicePartition]:
    """Split ``total_blocks`` counter blocks across equal-power devices.

    Equal-size contiguous ranges (the paper: "the input data is equally
    broken down into the same sized partitions"), with the remainder
    spread over the first devices.  ``total_blocks=0`` is legal and
    yields one empty partition per device; callers with nothing to do
    should prefer their own empty fast path (``generate(0) == b""``).
    """
    if n_devices <= 0 or total_blocks < 0:
        raise SpecificationError("need n_devices > 0 and total_blocks >= 0")
    base, rem = divmod(total_blocks, n_devices)
    parts = []
    start = 0
    for d in range(n_devices):
        size = base + (1 if d < rem else 0)
        parts.append(DevicePartition(d, start, size))
        start += size
    return parts


def scaling_model(n_devices: int, overhead_per_device: float = 0.0417) -> float:
    """Speedup over one device: ``n / (1 + c·(n−1))``.

    ``c`` is calibrated to the paper's measured 1.92× at two devices
    (``2/(1+c) = 1.92 → c ≈ 0.0417``); the same constant then predicts
    the degradation the paper describes at 4 and 8 devices.
    """
    if n_devices <= 0:
        raise ModelError("n_devices must be positive")
    return n_devices / (1.0 + overhead_per_device * (n_devices - 1))


@dataclass(frozen=True)
class PartitionOutcome:
    """How one partition's generation concluded."""

    device_id: int
    attempts: int
    outcome: str  # "ok" | "retried" | "degraded" | "failed"
    #: Job start → final outcome: the accepted result, or — for failed
    #: or evicted partitions — the last observed failure.  ``None`` only
    #: when the partition saw neither (never dispatched).
    wall_s: float | None


@dataclass
class GenerationReport:
    """Structured result of one multi-device generation job.

    Replaces the bare ``SupervisorReport`` that ``last_report`` used to
    hold: per-partition attempt counts, wall times and outcomes are
    first-class fields backed by the metrics the supervisor and the
    instrumented workers recorded, and per-partition worker metric
    snapshots are carried for the parent-side registry merge.  The old
    ``SupervisorReport`` surface (``events`` / ``attempts`` /
    ``retried_partitions`` / ``degraded``) is preserved as pass-through
    properties, so existing callers keep working.
    """

    algorithm: str
    n_devices: int
    job_size: int
    job_unit: str  # "blocks" (counter partitioning) | "bits" (lane partitioning)
    wall_s: float
    partitions: list[PartitionOutcome] = field(default_factory=list)
    supervisor: SupervisorReport = field(default_factory=SupervisorReport)

    @classmethod
    def build(
        cls,
        algorithm: str,
        n_devices: int,
        job_size: int,
        job_unit: str,
        wall_s: float,
        supervisor: SupervisorReport,
        completed: set[int],
    ) -> "GenerationReport":
        """Assemble per-partition outcomes from a supervisor report."""
        degraded_pids = {e.partition for e in supervisor.events if e.kind == "degraded"}
        partitions = []
        for pid in sorted(supervisor.attempts):
            attempts = supervisor.attempts[pid]
            if pid not in completed:
                outcome = "failed"
            elif pid in degraded_pids:
                outcome = "degraded"
            elif attempts > 1:
                outcome = "retried"
            else:
                outcome = "ok"
            partitions.append(
                PartitionOutcome(pid, attempts, outcome, supervisor.partition_wall.get(pid))
            )
        return cls(algorithm, n_devices, job_size, job_unit, wall_s, partitions, supervisor)

    # -- legacy SupervisorReport surface -----------------------------------------
    @property
    def events(self):
        """Supervisor events (failures and recovery actions)."""
        return self.supervisor.events

    @property
    def attempts(self) -> dict[int, int]:
        """Per-partition attempt counts."""
        return self.supervisor.attempts

    @property
    def retried_partitions(self) -> set[int]:
        """Partitions that needed more than one attempt."""
        return self.supervisor.retried_partitions

    @property
    def degraded(self) -> bool:
        """Whether any partition fell back to in-process generation."""
        return self.supervisor.degraded

    @property
    def worker_metrics(self) -> dict[int, dict]:
        """Per-partition metrics snapshots shipped back by the workers."""
        return self.supervisor.worker_metrics

    def to_dict(self) -> dict:
        """JSON-serialisable form (events flattened to strings)."""
        return {
            "algorithm": self.algorithm,
            "n_devices": self.n_devices,
            "job_size": self.job_size,
            "job_unit": self.job_unit,
            "wall_s": self.wall_s,
            "degraded": self.degraded,
            "partitions": [
                {
                    "device_id": p.device_id,
                    "attempts": p.attempts,
                    "outcome": p.outcome,
                    "wall_s": p.wall_s,
                }
                for p in self.partitions
            ],
            "events": [
                f"partition {e.partition} attempt {e.attempt}: {e.kind} {e.detail}".strip()
                for e in self.events
            ],
        }


class _SupervisedDevices:
    """Supervision plumbing shared by the two partitioned generators."""

    def _init_supervision(
        self, mp_context, timeout, max_retries, degrade_sequential, fault_plan
    ) -> None:
        self.mp_context = mp_context  # None: PartitionSupervisor's fork-preferring default
        self.config = SupervisorConfig(
            timeout=timeout,
            max_retries=max_retries,
            degrade_sequential=degrade_sequential,
        )
        self.fault_plan = fault_plan
        self.last_report = None

    def _job_context(self) -> tuple[str | None, tuple | None]:
        """``(plan_json, trace wire)`` every device job carries: contextvars
        do not cross the pool boundary, so the trace context rides the
        job explicitly (``None`` while tracing is off)."""
        plan_json = self.fault_plan.to_json() if self.fault_plan is not None else None
        return plan_json, trace_context.current_wire() if obs.active_tracer() else None

    def _supervise(self, worker, make_jobs, parallel, job_size, job_unit, span_name,
                   resolve=None, **span_args) -> dict:
        """Run ``make_jobs()`` under a :class:`PartitionSupervisor` and record
        :attr:`last_report`.  The jobs are built inside the *span_name*
        span, so worker spans hang off it.  Worker metric snapshots are
        folded into the parent registry (no-op while metrics are off),
        each series labelled ``partition=<id>`` so it stays attributable."""
        supervisor = PartitionSupervisor(worker, self.mp_context, self.config)
        supervisor.resolve = resolve
        t0 = time.perf_counter()
        with span(span_name, algo=self.algorithm, devices=self.n_devices, **span_args):
            results = supervisor.run(make_jobs(), parallel=parallel)
        wall = time.perf_counter() - t0
        if obs.metrics_enabled():
            for pid, snap in sorted(supervisor.report.worker_metrics.items()):
                obs.registry().merge(snap, extra_labels={"partition": pid})
        self.last_report = GenerationReport.build(
            self.algorithm, self.n_devices, job_size, job_unit, wall, supervisor.report,
            completed=set(results),
        )
        return results


def _device_worker(job, attempt: int = 0) -> tuple[bytes, int, dict, dict | None]:
    """Generate one partition (runs in a worker process = one 'GPU').

    ``job`` is ``(device_id, stream, offset, n, plan_json, trace,
    ring)``: the shared stream-range body
    (:func:`~repro.serve.engine.range_attempt`) in the
    :func:`~repro.robust.supervisor.worker_attempt` shell, over a fresh
    generator.  Counter-based kernels (AES-CTR, the paper's §5.4
    example) seek to the offset in O(1); LFSR-based kernels clock through
    and discard, which caps their multi-device speedup — exactly why the
    paper partitions *counter space* rather than a serial stream.
    """
    device_id, stream, offset, n, plan_json, trace, ring = job
    source = RangeSource(stream, max_streams=1)

    def account(wall: float) -> None:
        source.publish_metrics()
        obs.set_gauge("repro_device_wall_seconds", wall, device=device_id)
        obs.inc("repro_device_attempts_total", 1, device=device_id)

    return range_attempt(
        source, device_id, attempt, offset, n, FaultPlan.resolve(plan_json),
        shell=worker_attempt, ring=ring, account=account, trace=trace,
        span_name="device.partition", process_name=f"device-worker-{device_id}",
    )


class MultiDeviceGenerator(_SupervisedDevices):
    """Partition a generation job across supervised process-backed devices.

    Parameters
    ----------
    algorithm / seed / lanes:
        Passed through to :class:`~repro.core.generator.BSRNG` on each
        device.
    n_devices:
        Worker count (the paper's GPU count).
    block_bytes:
        Partitioning granularity of the output stream.
    timeout / max_retries / degrade_sequential:
        Supervision policy — see
        :class:`~repro.robust.supervisor.SupervisorConfig`.  Every
        partition's CRC receipt is checked on arrival.
    fault_plan:
        Deterministic fault injection for tests and drills (also
        activatable via the ``REPRO_FAULT_PLAN`` env var).
    fused / clocks_per_call:
        Fused-kernel configuration each device worker passes to its
        :class:`~repro.core.generator.BSRNG` (``None`` = the BSRNG
        default: fused for bitsliced algorithms).  Workers also inherit
        BSRNG's double-buffered refill pipeline.

    Partition payloads return through a per-job
    :class:`~repro.core.ring.SharedMemoryRing` (one slot per partition)
    rather than the pool pipe; they fall back to pickled payloads where
    shared memory is unavailable.
    """

    def __init__(
        self,
        algorithm: str = "mickey2",
        seed: int = 0,
        lanes: int = 1024,
        n_devices: int = 2,
        block_bytes: int = 1 << 16,
        mp_context: str | None = None,
        timeout: float | None = None,
        max_retries: int = 2,
        degrade_sequential: bool = True,
        fault_plan: FaultPlan | None = None,
        fused: bool | None = None,
        clocks_per_call: int = 32,
    ) -> None:
        if n_devices <= 0:
            raise SpecificationError("n_devices must be positive")
        self.algorithm = algorithm
        self.seed = seed
        self.lanes = lanes
        self.n_devices = n_devices
        self.block_bytes = block_bytes
        self.fused = fused
        self.clocks_per_call = int(clocks_per_call)
        #: The partitioned stream's identity — what every device job ships.
        self.stream = StreamConfig(
            algorithm, seed, lanes, fused=fused, clocks_per_call=self.clocks_per_call
        )
        self._init_supervision(mp_context, timeout, max_retries, degrade_sequential, fault_plan)

    def _jobs(self, total_blocks: int, ring: SharedMemoryRing | None = None) -> dict[int, tuple]:
        plan_json, wire = self._job_context()
        return {
            p.device_id: (
                p.device_id,
                self.stream,
                p.start_block * self.block_bytes,
                p.n_blocks * self.block_bytes,
                plan_json,
                wire,
                (*ring.spec, p.device_id) if ring is not None else None,
            )
            for p in partition_counter_space(total_blocks, self.n_devices)
            if p.n_blocks > 0
        }

    def generate(self, total_blocks: int, parallel: bool = True) -> bytes:
        """Generate ``total_blocks × block_bytes`` output bytes.

        With ``parallel=True`` partitions run in separate supervised
        processes and are concatenated in device order (the paper's
        reconstruction).  ``last_report`` afterwards holds a
        :class:`GenerationReport` — per-partition attempts, wall times
        and outcomes, the underlying supervisor events, and the workers'
        metric snapshots (merged into the parent registry when metrics
        are enabled).
        """
        if total_blocks < 0:
            raise SpecificationError("total_blocks must be non-negative")
        if total_blocks == 0:
            # explicit empty-job fast path: no pool, no workers, no report
            return b""
        ring = None
        if parallel:
            # one slot per partition, sized for the largest one; a slot is
            # owned by its partition for the whole job, so retries simply
            # overwrite and torn writes are caught by the CRC receipt
            parts = [p for p in partition_counter_space(total_blocks, self.n_devices)
                     if p.n_blocks > 0]
            slot_bytes = max(p.n_blocks for p in parts) * self.block_bytes
            ring = SharedMemoryRing.try_create(slot_bytes, len(parts), self.mp_context)
        try:
            results = self._supervise(
                _device_worker, lambda: self._jobs(total_blocks, ring=ring), parallel,
                total_blocks, "blocks", "multidevice.generate",
                resolve=ring.resolve if ring is not None else None, blocks=total_blocks,
            )
        finally:
            if ring is not None:
                ring.close()
        return b"".join(results[pid] for pid in sorted(results))

    def sequential_reference(self, total_blocks: int) -> bytes:
        """The single-device output the multi-device result must equal."""
        return self.stream.make_rng().random_bytes(total_blocks * self.block_bytes)


def _lane_worker(job, attempt: int = 0) -> tuple[np.ndarray, int, dict, dict | None]:
    """Run one device's lane window (a worker process = one 'GPU').

    Same shared :func:`~repro.robust.supervisor.worker_attempt` shell as
    :func:`_device_worker` (ndarray payloads keep dtype and shape through
    fault mutation); the body here is the lane-window bank run.
    """
    (
        device_id,
        cls_path,
        seed,
        lane_offset,
        n_lanes,
        n_bits,
        plan_json,
        fused,
        clocks_per_call,
    ) = job[:9]
    trace = job[9] if len(job) > 9 else None
    from repro.core.engine import BitslicedEngine

    module_name, cls_name = cls_path.rsplit(".", 1)
    cls = getattr(__import__(module_name, fromlist=[cls_name]), cls_name)

    def produce() -> np.ndarray:
        t0 = time.perf_counter()
        engine = BitslicedEngine(n_lanes=n_lanes, fused=fused, clocks_per_call=clocks_per_call)
        bank = cls(engine).seed(seed, lane_offset=lane_offset)
        out = bank.keystream_bits(n_bits)
        engine.publish_gate_metrics(algorithm=cls_name)
        obs.inc("repro_device_lane_bits_total", int(out.size), device=device_id)
        obs.set_gauge("repro_device_wall_seconds", time.perf_counter() - t0, device=device_id)
        obs.inc("repro_device_attempts_total", 1, device=device_id)
        return out

    return worker_attempt(
        device_id,
        attempt,
        FaultPlan.resolve(plan_json),
        produce,
        trace=trace,
        span_name="device.lanes",
        process_name=f"lane-worker-{device_id}",
    )


class LanePartitionedGenerator(_SupervisedDevices):
    """§5.4's *input-parameter* partitioning, literally.

    The paper shares and partitions "the input parameters (e.g., the
    seed, nonce, and counter)" across GPUs: each device derives its own
    window of the per-lane key/IV material, runs an independent bank, and
    the outputs are stacked.  Unlike stream-splitting
    (:class:`MultiDeviceGenerator`), no device recomputes another's work
    — LFSR-based ciphers scale too, and the union of device outputs
    equals one big single-device bank lane-for-lane.

    Device jobs go through the same
    :class:`~repro.robust.supervisor.PartitionSupervisor` policy as the
    counter-space path (timeouts, retries, CRC verification, degrade).
    """

    def __init__(
        self,
        algorithm: str = "mickey2",
        seed: int = 0,
        total_lanes: int = 2048,
        n_devices: int = 2,
        mp_context: str | None = None,
        timeout: float | None = None,
        max_retries: int = 2,
        degrade_sequential: bool = True,
        fault_plan: FaultPlan | None = None,
        fused: bool = True,
        clocks_per_call: int = 32,
    ) -> None:
        if algorithm not in _LANE_BANKS:
            raise SpecificationError(
                f"lane partitioning supports {sorted(_LANE_BANKS)}; "
                f"use MultiDeviceGenerator for counter-based kernels"
            )
        if n_devices <= 0 or total_lanes <= 0:
            raise SpecificationError("need n_devices > 0 and total_lanes > 0")
        if total_lanes % n_devices:
            raise SpecificationError("total_lanes must divide evenly across devices")
        self.algorithm = algorithm
        self.seed = seed
        self.total_lanes = total_lanes
        self.n_devices = n_devices
        self._init_supervision(mp_context, timeout, max_retries, degrade_sequential, fault_plan)
        self.fused = bool(fused)
        self.clocks_per_call = int(clocks_per_call)

    def device_partitions(self) -> list[DevicePartition]:
        """Lane windows per device (start/size in lanes)."""
        per = self.total_lanes // self.n_devices
        return [DevicePartition(d, d * per, per) for d in range(self.n_devices)]

    def generate_lanes(self, n_bits: int, parallel: bool = True) -> np.ndarray:
        """Per-lane keystreams, ``(total_lanes, n_bits)`` uint8."""

        def jobs() -> dict[int, tuple]:
            plan_json, wire = self._job_context()
            return {
                p.device_id: (
                    p.device_id,
                    _LANE_BANKS[self.algorithm],
                    self.seed,
                    p.start_block,
                    p.n_blocks,
                    n_bits,
                    plan_json,
                    self.fused,
                    self.clocks_per_call,
                    wire,
                )
                for p in self.device_partitions()
            }

        results = self._supervise(
            _lane_worker, jobs, parallel, n_bits, "bits", "lanepartitioned.generate", bits=n_bits
        )
        return np.vstack([results[pid] for pid in sorted(results)])

    def sequential_reference(self, n_bits: int) -> np.ndarray:
        """One big bank on a single device — the equivalence target."""
        out, _, _, _ = _lane_worker(
            (
                0,
                _LANE_BANKS[self.algorithm],
                self.seed,
                0,
                self.total_lanes,
                n_bits,
                None,
                self.fused,
                self.clocks_per_call,
            )
        )
        return out
