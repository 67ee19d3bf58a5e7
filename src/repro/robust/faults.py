"""Deterministic fault injection for the multi-device pipeline.

Real scale-out fails in boring, hard-to-reproduce ways: a device crashes
mid-kernel, a transfer stalls, DMA flips bytes, a bank wedges at a
constant.  This module makes every one of those failures *scriptable and
seeded* so tests and benchmarks can exercise each recovery path of the
supervisor and the health tests without flakiness.

A :class:`FaultPlan` is a list of :class:`Fault` entries keyed by
``(partition, attempt)`` — a batch partition and its attempt number, or,
for a chunk a fleet member serves, the member's worker id and job index:

* ``crash``   — the worker raises before generating (a dead device).
* ``delay``   — the worker sleeps ``delay`` seconds first (a hung
  device; trips the fleet's heartbeat deadline).
* ``corrupt`` — ``corrupt_bytes`` bytes of the returned payload are
  XOR-flipped at seeded positions *after* the worker computed its CRC
  (a corrupted transfer; trips CRC verification).
* ``stuck``   — the payload is replaced by a constant byte (a wedged
  bank; trips the Repetition Count Test when screened).

Two *fleet-level* kinds model failure modes of long-lived members with
heartbeats (:mod:`repro.fleet`).  Unlike the kinds above, they are
**persistent**: they fire from their ``attempt`` (the worker's job
index) *onward*, because a silent or bleeding worker stays that way
until evicted:

* ``hb_silence``  — the worker stops sending heartbeats (but keeps
  working); the controller must evict on the liveness deadline and
  reassign the job, dropping any late result.
* ``slow_bleed``  — every payload from this job on has
  ``corrupt_bytes`` seeded bytes flipped after the CRC is computed (a
  slowly failing transfer/DMA path; accumulates receipt strikes until
  the worker is evicted).
* ``bias``        — persistent like the fleet kinds, but applied
  **before** the CRC is computed: every payload from the scheduled
  partition onward is AND-masked with ``bias_mask`` (default
  ``0xFE`` — the low bit of every byte forced to zero).  This models a
  *defective generator*, not a damaged transfer: the bytes verify
  clean, retries reproduce them, and the fleet serves them.
  Only the service latch's RCT/APT screen (for gross masks) or
  statistical QA (the ``repro serve --qa`` sidecar) flags them; nothing
  evicts or retries for them.

Plans are consulted by the one worker shell every process-level worker
runs in (:func:`repro.robust.supervisor.attempt_shell`: crash/delay
before the body, stuck/corrupt/slow_bleed after its CRC) and by the one
stream-range body (:func:`repro.serve.engine.range_attempt`: bias before
the receipt).  They are activated either by constructor argument or by
the ``REPRO_FAULT_PLAN`` environment variable (a JSON plan,
:meth:`FaultPlan.resolve`), so a spawn-context worker with no shared
memory still injects identically.  Because a crash/delay/corrupt/stuck
entry fires only on its exact attempt number, every such plan is finite:
retried partitions eventually run clean and regenerate byte-identical
output.  The
``hb_silence`` and ``slow_bleed`` plans terminate differently — the
fleet evicts the faulty member and reassigns its work to a clean peer.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass

import numpy as np

from repro.core.generator import BSRNG
from repro.errors import SpecificationError

__all__ = [
    "Fault",
    "FaultPlan",
    "InjectedCrash",
    "StuckBSRNG",
    "FAULT_PLAN_ENV",
]

#: Environment variable carrying a JSON fault plan into worker processes.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

_KINDS = ("crash", "delay", "corrupt", "stuck", "hb_silence", "slow_bleed", "bias")


class InjectedCrash(RuntimeError):
    """The scripted worker crash (distinguishable from real bugs)."""


@dataclass(frozen=True)
class Fault:
    """One scripted failure, keyed by ``(partition, attempt)``."""

    kind: str
    partition: int
    attempt: int = 0
    delay: float = 0.0
    corrupt_bytes: int = 1
    stuck_byte: int = 0
    bias_mask: int = 0xFE

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise SpecificationError(f"fault kind must be one of {_KINDS}")
        if self.partition < 0 or self.attempt < 0:
            raise SpecificationError("partition and attempt must be non-negative")
        if self.kind == "delay" and self.delay <= 0:
            raise SpecificationError("delay faults need delay > 0")
        if self.kind in ("corrupt", "slow_bleed") and self.corrupt_bytes <= 0:
            raise SpecificationError("corrupt/slow_bleed faults need corrupt_bytes > 0")
        if not 0 <= self.stuck_byte <= 255:
            raise SpecificationError("stuck_byte must be a byte value")
        if not 0 <= self.bias_mask <= 255:
            raise SpecificationError("bias_mask must be a byte value")
        if self.kind == "bias" and self.bias_mask == 0xFF:
            raise SpecificationError("a bias fault with mask 0xFF changes nothing")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, finite schedule of faults."""

    faults: tuple[Fault, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    def matching(self, partition: int, attempt: int) -> list[Fault]:
        """Faults scheduled for this exact partition attempt."""
        return [f for f in self.faults if f.partition == partition and f.attempt == attempt]

    # -- fleet-level (persistent) faults ------------------------------------------
    def silences(self, worker: int, job_index: int) -> bool:
        """Whether *worker* has gone heartbeat-silent by its *job_index*.

        ``hb_silence`` is persistent: it fires from its scheduled job
        index onward (a silent worker stays silent until evicted).
        """
        return any(
            f.kind == "hb_silence" and f.partition == worker and job_index >= f.attempt
            for f in self.faults
        )

    def apply_bias(self, partition: int, payload: bytes) -> bytes:
        """Apply any active ``bias`` fault to one payload.

        Persistent from the scheduled attempt onward for its partition
        and for every later partition (a degrading generator does not
        heal between chunks).  Call *before* the CRC is computed: the
        bias models the generator itself emitting skewed bytes, so the
        receipt must verify clean and retries must reproduce the skew.
        """
        for f in self.faults:
            if f.kind == "bias" and partition >= f.partition and payload:
                data = np.frombuffer(payload, dtype=np.uint8) & np.uint8(f.bias_mask)
                payload = data.tobytes()
        return payload

    # -- injection hooks (called from worker entry points) -----------------------
    def pre_generate(self, partition: int, attempt: int) -> None:
        """Apply crash/delay faults before the partition generates."""
        for f in self.matching(partition, attempt):
            if f.kind == "crash":
                raise InjectedCrash(
                    f"injected crash: partition {partition}, attempt {attempt}"
                )
            if f.kind == "delay":
                time.sleep(f.delay)

    def post_generate(self, partition: int, attempt: int, payload: bytes) -> bytes:
        """Apply stuck/corrupt faults, then any active ``slow_bleed``.

        Runs *after* the worker computed its payload CRC, so corruption
        models a damaged transfer and is visible to the supervisor's
        verification hook.  ``slow_bleed`` is persistent like
        :meth:`silences`: every payload from the scheduled attempt (the
        fleet worker's job index) on has ``corrupt_bytes`` seeded flips.
        """
        for f in self.matching(partition, attempt):
            if f.kind == "stuck":
                payload = bytes([f.stuck_byte]) * len(payload)
            elif f.kind == "corrupt" and payload:
                payload = self._flip(payload, partition, attempt, f.corrupt_bytes)
        for f in self.faults:
            if (
                f.kind == "slow_bleed"
                and f.partition == partition
                and attempt >= f.attempt
                and payload
            ):
                payload = self._flip(payload, partition, attempt, f.corrupt_bytes)
        return payload

    def _flip(self, payload: bytes, partition: int, attempt: int, k: int) -> bytes:
        """XOR *k* seeded positions with non-zero masks, so every hit
        really changes a byte."""
        rng = np.random.default_rng([self.seed, partition, attempt])
        data = np.frombuffer(payload, dtype=np.uint8).copy()
        k = min(k, data.size)
        pos = rng.choice(data.size, size=k, replace=False)
        data[pos] ^= rng.integers(1, 256, size=k, dtype=np.uint8)
        return data.tobytes()

    # -- serialisation (constructor flag or env var, spawn-safe) -----------------
    def to_json(self) -> str:
        """JSON encoding (the ``REPRO_FAULT_PLAN`` format)."""
        return json.dumps({"seed": self.seed, "faults": [asdict(f) for f in self.faults]})

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse :meth:`to_json` output."""
        obj = json.loads(text)
        return cls(
            faults=tuple(Fault(**f) for f in obj.get("faults", ())),
            seed=int(obj.get("seed", 0)),
        )

    @classmethod
    def resolve(cls, text: str | None) -> "FaultPlan | None":
        """An explicit JSON plan when given, else :meth:`from_env`."""
        return cls.from_json(text) if text else cls.from_env()

    @classmethod
    def from_env(cls) -> "FaultPlan | None":
        """The plan in ``REPRO_FAULT_PLAN``, or ``None`` when unset."""
        text = os.environ.get(FAULT_PLAN_ENV)
        return cls.from_json(text) if text else None


class StuckBSRNG(BSRNG):
    """A :class:`BSRNG` that wedges at a constant byte — the classic
    hardware failure the Repetition Count Test exists to catch.

    Emits ``stuck_after`` honest bytes, then the constant ``stuck_byte``
    forever.
    """

    def __init__(
        self,
        algorithm: str = "mickey2",
        seed: int = 0,
        lanes: int = 256,
        stuck_byte: int = 0,
        stuck_after: int = 0,
    ) -> None:
        super().__init__(algorithm, seed=seed, lanes=lanes)
        self.stuck_byte = stuck_byte
        self.stuck_after = stuck_after
        self._emitted = 0

    def _take_bytes(self, n: int) -> np.ndarray:
        honest = super()._take_bytes(n)
        start = self._emitted
        self._emitted += n
        out = np.full(n, self.stuck_byte, dtype=np.uint8)
        good = max(0, min(n, self.stuck_after - start))
        out[:good] = honest[:good]
        return out
