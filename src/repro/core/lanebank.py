"""Thread-parallel lane banks: one cipher bank, ``threads`` workers.

The fused kernels spend their time in full-width NumPy ufuncs, and NumPy
releases the GIL for those — so inside a single process, plane *columns*
can advance in parallel on a thread pool.  :class:`ThreadedLaneBank`
splits the engine's ``n_words`` word columns into contiguous ranges, runs
one independent sub-bank per range, and has every refill write straight
into column slices of one shared output buffer (no per-thread staging
copies, no result concatenation).

Bit-identity is by construction, not by luck: lane material is a pure
function of the *global* lane index (``seed(..., lane_offset=...)`` for
the LFSR banks, the counter window + stride for AES-CTR), and bitsliced
packing puts lane ``l`` into bit ``l % width`` of word ``l // width`` —
so as long as every split boundary falls on a word boundary, sub-bank
``k``'s entire plane block *is* columns ``[w0, w1)`` of the equivalent
single bank.  ``tests/test_lanebank.py`` asserts the equality against
both the interpreter and the single-threaded fused path.

Scaling expectations: this is the same §5.4 input-parameter partitioning
as :class:`~repro.gpu.multigpu.LanePartitionedGenerator`, but with
threads instead of processes — no pickling, no fork, shared output
memory.  On a single hardware core the pool adds only scheduling noise;
the configuration is still exercised (and CI-gated) so multi-core
runners inherit the speedup without a code change.

Per-thread scratch falls out of the existing kernel plumbing for free:
compiled kernels are shared through the process-global
:class:`~repro.codegen.fused.KernelCache`, while every sub-bank carries
its own ``_fused_ctx`` scratch bundle — two threads never touch the same
temporary plane.
"""

from __future__ import annotations

import inspect
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Type

import numpy as np

from repro import obs
from repro.core.engine import BitslicedEngine, GateCounter
from repro.errors import SpecificationError

__all__ = ["ThreadedLaneBank", "split_word_columns"]


def split_word_columns(n_words: int, threads: int) -> list[tuple[int, int]]:
    """Balanced contiguous ``[w0, w1)`` word ranges, one per thread.

    Ranges differ in size by at most one word; every range is non-empty
    (``threads`` is clamped to ``n_words`` by the caller).
    """
    if n_words <= 0 or threads <= 0:
        raise SpecificationError("need n_words > 0 and threads > 0")
    if threads > n_words:
        raise SpecificationError(f"cannot split {n_words} words across {threads} threads")
    bounds = [round(i * n_words / threads) for i in range(threads + 1)]
    return [(bounds[i], bounds[i + 1]) for i in range(threads)]


class ThreadedLaneBank:
    """A bank of ``lanes`` cipher instances advanced by a thread pool.

    Drop-in for the single cipher banks wherever only the plane stream
    is consumed (:class:`~repro.core.generator.BSRNG` routes through it
    when ``threads > 1``): exposes ``engine`` (full-bank geometry),
    ``next_planes``, ``gates_per_output_bit`` and — when the cipher
    seeks (AES-CTR) — ``skip_rows``.

    Parameters
    ----------
    cls:
        The bitsliced bank class (``BitslicedMickey2``, ...).
    seed / lanes / dtype / fused / clocks_per_call:
        As for a single bank of the same total geometry.
    threads:
        Worker count = number of column ranges.  Clamped to ``n_words``.
    """

    def __init__(
        self,
        cls: Type,
        seed: int,
        *,
        lanes: int,
        dtype=np.uint64,
        threads: int = 2,
        fused: bool = True,
        clocks_per_call: int = 32,
    ) -> None:
        if threads <= 0:
            raise SpecificationError("threads must be positive")
        self.engine = BitslicedEngine(
            n_lanes=lanes, dtype=dtype, fused=fused, clocks_per_call=clocks_per_call
        )
        self.cipher = getattr(cls, "name", cls.__name__)
        self.threads = min(int(threads), self.engine.n_words)
        self.ranges = split_word_columns(self.engine.n_words, self.threads)
        width = self.engine.width
        takes_stride = "counter_stride" in inspect.signature(cls.seed).parameters
        self.banks = []
        for w0, w1 in self.ranges:
            # the last word may be partially populated; the sub-bank must
            # carry the same real-lane count so its zero-padded tail lanes
            # match the full bank's bit for bit
            sub_lanes = min(lanes, w1 * width) - w0 * width
            sub_engine = BitslicedEngine(
                n_lanes=sub_lanes, dtype=dtype, fused=fused, clocks_per_call=clocks_per_call
            )
            bank = cls(sub_engine)
            if takes_stride:
                bank.seed(seed, lane_offset=w0 * width, counter_stride=lanes)
            else:
                bank.seed(seed, lane_offset=w0 * width)
            self.banks.append(bank)
        self.rows_granularity = max(getattr(b, "rows_granularity", 1) for b in self.banks)
        if all(hasattr(b, "skip_rows") for b in self.banks):
            self.skip_rows = self._skip_rows
        self._pool: tuple[int, ThreadPoolExecutor] | None = None

    def _executor(self) -> ThreadPoolExecutor:
        # per-PID like the refill executor: a fork-inherited pool's
        # worker threads do not survive the fork, so the child rebuilds
        pid = os.getpid()
        if self._pool is None or self._pool[0] != pid:
            self._pool = (
                pid,
                ThreadPoolExecutor(max_workers=self.threads, thread_name_prefix="lanebank"),
            )
        return self._pool[1]

    def next_planes(self, n_rows: int, *, out: np.ndarray | None = None) -> np.ndarray:
        """Emit ``(n_rows, n_words)`` keystream planes, columns in parallel."""
        if n_rows < 0:
            raise SpecificationError("n_rows must be non-negative")
        gran = self.rows_granularity
        alloc = -(-n_rows // gran) * gran
        if out is None:
            out = np.empty((alloc, self.engine.n_words), dtype=self.engine.dtype)
        futures = [
            self._executor().submit(bank.next_planes, n_rows, out=out[:, w0:w1])
            for bank, (w0, w1) in zip(self.banks, self.ranges)
        ]
        for f in futures:
            f.result()  # propagate worker exceptions; all columns written
        if obs.metrics_enabled():
            obs.inc("repro_lanebank_refills_total", 1, cipher=self.cipher)
            obs.inc("repro_lanebank_rows_total", n_rows, cipher=self.cipher)
        return out[:n_rows]

    def _skip_rows(self, n_rows: int) -> None:
        """Seek every column range forward (counter-based ciphers only)."""
        for bank in self.banks:
            bank.skip_rows(n_rows)

    def keystream_bits(self, n_bits: int) -> np.ndarray:
        """Per-lane keystream: ``(n_lanes, n_bits)`` bit matrix."""
        from repro.core.bitslice import unbitslice

        return unbitslice(self.next_planes(n_bits), self.engine.n_lanes)

    def gate_report(self) -> dict:
        """Merged gate totals across every sub-bank's engine."""
        merged = GateCounter()
        for bank in self.banks:
            merged.merge(bank.engine.counter)
        snap = merged.snapshot()
        snap["n_lanes"] = self.engine.n_lanes
        snap["word_width"] = self.engine.width
        return snap

    def gates_per_output_bit(self) -> float:
        """Logic cost per emitted bit (identical across sub-banks)."""
        return self.banks[0].gates_per_output_bit()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ThreadedLaneBank(cipher={self.cipher!r}, lanes={self.engine.n_lanes}, "
            f"threads={self.threads}, ranges={self.ranges})"
        )
