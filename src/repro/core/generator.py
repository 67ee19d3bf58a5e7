"""BSRNG — the user-facing pseudo-random number generator API.

One class fronts every generator in the package: the three bitsliced
cipher banks (the paper's contribution) and the row-major baselines
(cuRAND's algorithms and the Table-1 lineage).  All of them feed a common
word buffer, so downstream code — the examples, the NIST harness, the
benchmarks — is generator-agnostic:

>>> rng = BSRNG("mickey2", seed=42, lanes=512)
>>> rng.random_uint64(4).shape
(4,)
>>> 0.0 <= float(rng.random(1)[0]) < 1.0
True
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, NamedTuple

import numpy as np

from repro import obs
from repro.core.engine import BitslicedEngine
from repro.errors import SpecificationError
from repro.obs.tracing import span

__all__ = ["BSRNG", "available_algorithms", "import_kernel"]


def _kernel_class(cls_path: str) -> type:
    module_name, cls_name = cls_path.rsplit(".", 1)
    return getattr(__import__(module_name, fromlist=[cls_name]), cls_name)


def _make_bitsliced(cls_path: str) -> Callable:
    def factory(
        seed: int, lanes: int, dtype, fused: bool, clocks_per_call: int, threads: int = 1
    ) -> "_PlaneSource":
        cls = _kernel_class(cls_path)
        if threads > 1:
            from repro.core.lanebank import ThreadedLaneBank

            bank = ThreadedLaneBank(
                cls,
                seed,
                lanes=lanes,
                dtype=dtype,
                threads=threads,
                fused=fused,
                clocks_per_call=clocks_per_call,
            )
            return _PlaneSource(bank)
        engine = BitslicedEngine(
            n_lanes=lanes, dtype=dtype, fused=fused, clocks_per_call=clocks_per_call
        )
        return _PlaneSource(cls(engine).seed(seed))

    factory.cls_path = cls_path
    return factory


def _make_baseline(cls_path: str) -> Callable:
    def factory(
        seed: int, lanes: int, dtype, fused: bool, clocks_per_call: int, threads: int = 1
    ) -> "_WordSource":
        if threads > 1:
            raise SpecificationError("threads > 1 requires a bitsliced algorithm")
        return _WordSource(_kernel_class(cls_path)(seed=seed, n_streams=lanes))

    factory.cls_path = cls_path
    return factory


# -- double-buffered refill plumbing -------------------------------------------
# One background worker produces refill N+1 while the consumer drains N.
# The executor is process-global and keyed by PID: a fork-inherited
# ThreadPoolExecutor is unusable (its worker thread does not survive the
# fork but its bookkeeping says it exists, so no new thread ever spawns
# and every submit deadlocks) — after a fork the child lazily builds its
# own.
_REFILL_EXECUTOR: tuple[int, ThreadPoolExecutor] | None = None


def _refill_executor() -> ThreadPoolExecutor:
    global _REFILL_EXECUTOR
    pid = os.getpid()
    if _REFILL_EXECUTOR is None or _REFILL_EXECUTOR[0] != pid:
        _REFILL_EXECUTOR = (
            pid,
            ThreadPoolExecutor(max_workers=1, thread_name_prefix="bsrng-refill"),
        )
    return _REFILL_EXECUTOR[1]


def _quiesce_refills() -> None:
    """Pre-fork barrier: wait until the refill worker is idle.

    Forking while the worker thread holds an allocator or GIL-internal
    lock would deadlock the child; draining the (single-worker, FIFO)
    queue from the forking thread guarantees the worker is between tasks
    at fork time.
    """
    if _REFILL_EXECUTOR is not None and _REFILL_EXECUTOR[0] == os.getpid():
        try:
            _REFILL_EXECUTOR[1].submit(lambda: None).result()
        except RuntimeError:  # pragma: no cover - executor already shut down
            pass


if hasattr(os, "register_at_fork"):  # pragma: no branch
    os.register_at_fork(before=_quiesce_refills)


#: Registry: algorithm name → (factory, kind, description).
_REGISTRY: dict[str, tuple[Callable, str, str]] = {
    "mickey2": (
        _make_bitsliced("repro.ciphers.mickey_bitsliced.BitslicedMickey2"),
        "bitsliced",
        "MICKEY 2.0 stream cipher, bitsliced (the paper's best performer)",
    ),
    "grain": (
        _make_bitsliced("repro.ciphers.grain_bitsliced.BitslicedGrain"),
        "bitsliced",
        "Grain v1 stream cipher, bitsliced",
    ),
    "trivium": (
        _make_bitsliced("repro.ciphers.trivium_bitsliced.BitslicedTrivium"),
        "bitsliced",
        "Trivium stream cipher, bitsliced (extension: lightest eSTREAM profile-2 core)",
    ),
    "aes128ctr": (
        _make_bitsliced("repro.ciphers.aes_bitsliced.BitslicedAESCTR"),
        "bitsliced",
        "AES-128 in CTR mode, bitsliced (synthesized S-box circuit)",
    ),
    "mt19937": (
        _make_baseline("repro.baselines.mt19937.MT19937Bank"),
        "baseline",
        "Mersenne Twister — cuRAND's default host algorithm (the paper's baseline)",
    ),
    "xorwow": (
        _make_baseline("repro.baselines.xorwow.XorwowBank"),
        "baseline",
        "XORWOW — cuRAND's default device generator",
    ),
    "philox": (
        _make_baseline("repro.baselines.philox.PhiloxBank"),
        "baseline",
        "Philox4x32-10 counter-based generator (cuRAND option)",
    ),
    "chacha20": (
        _make_baseline("repro.baselines.chacha.ChaCha20Bank"),
        "baseline",
        "ChaCha20 ARX stream cipher (extension: the design bitslicing does NOT suit)",
    ),
    "rc4": (
        _make_baseline("repro.baselines.rc4.RC4Bank"),
        "baseline",
        "RC4-drop768 (extension: historical table-based CSPRNG; broken, baseline only)",
    ),
    "mrg32k3a": (
        _make_baseline("repro.baselines.mrg32k3a.MRG32k3aBank"),
        "baseline",
        "MRG32k3a combined multiple recursive generator (cuRAND option)",
    ),
    "xorshift128plus": (
        _make_baseline("repro.baselines.xorshift.Xorshift128PlusBank"),
        "baseline",
        "xorshift128+ (xorgensGP lineage, Table 1)",
    ),
    "parkmiller": (
        _make_baseline("repro.baselines.park_miller.ParkMillerBank"),
        "baseline",
        "Park-Miller MINSTD (Langdon 2009 GPU PRNG lineage, Table 1)",
    ),
    "ca": (
        _make_baseline("repro.baselines.ca_prng.CellularAutomatonBank"),
        "baseline",
        "Rule-30 cellular-automaton PRNG (CA-PRNG lineage, Table 1)",
    ),
    "lcg": (
        _make_baseline("repro.baselines.lcg.LCG64Bank"),
        "baseline",
        "64-bit LCG (historical baseline)",
    ),
    "middlesquare": (
        _make_baseline("repro.baselines.middle_square.MiddleSquareWeylBank"),
        "baseline",
        "Middle-square with Weyl sequence (von Neumann lineage, §2.1)",
    ),
}


def available_algorithms() -> dict[str, str]:
    """Map of algorithm name → one-line description."""
    return {name: desc for name, (_, _, desc) in _REGISTRY.items()}


def import_kernel(algorithm: str) -> None:
    """Import *algorithm*'s kernel module now (unknown names: no-op).

    Call before forking from a multi-threaded parent: a child forked
    mid-import inherits the held module lock and hangs on its own import.
    """
    entry = _REGISTRY.get(algorithm)
    if entry is not None:
        _kernel_class(entry[0].cls_path)


class Receipt(NamedTuple):
    """What :meth:`BSRNG.read_with_receipt` returns beside the bytes."""

    crc: int  #: ``payload_crc`` of the bytes (zlib's reflected CRC-32)


class _PlaneSource:
    """Adapter: bitsliced cipher bank → uint64 word stream."""

    def __init__(self, bank) -> None:
        self.bank = bank
        self._rows_per_refill = max(64, bank.engine.stage_rows)
        # keep refills 8-byte aligned so the uint64 view below is exact
        itemsize = bank.engine.dtype.itemsize
        while (self._rows_per_refill * bank.engine.n_words * itemsize) % 8:
            self._rows_per_refill += 1

    def next_words(self) -> np.ndarray:
        """The next refill of the word stream."""
        planes = self.bank.next_planes(self._rows_per_refill)
        flat = np.ascontiguousarray(planes).view(np.uint8).ravel()
        return flat.view(np.uint64)

    @property
    def refill_bytes(self) -> int:
        """Bytes one refill produces (the seek granularity)."""
        return self._rows_per_refill * self.bank.engine.n_words * self.bank.engine.dtype.itemsize

    def skip_refills(self, k: int) -> bool:
        """Native seek past *k* refills when the bank supports it (CTR)."""
        skip_rows = getattr(self.bank, "skip_rows", None)
        if skip_rows is None:
            return False
        try:
            skip_rows(k * self._rows_per_refill)
        except SpecificationError:  # e.g. misaligned with the CTR batch
            return False
        return True

    def gates_per_output_bit(self) -> float:
        """Logic cost per emitted bit (NaN when not modelled)."""
        return self.bank.gates_per_output_bit()


class _WordSource:
    """Adapter: row-major baseline bank → uint64 word stream."""

    def __init__(self, bank) -> None:
        self.bank = bank
        self._words_per_refill = 4096
        # counter-based banks (Philox, ChaCha20) expose block-granular
        # skipahead; refills round up to whole blocks, so the effective
        # refill size is block-aligned and skippable in O(1)
        wpb = getattr(bank, "words_per_block", None)
        if wpb and getattr(bank, "skip_blocks", None):
            self._blocks_per_refill = -(-self._words_per_refill // wpb)
            self._refill_words = self._blocks_per_refill * wpb
            self.refill_bytes = self._refill_words * np.dtype(bank.word_dtype).itemsize

    def skip_refills(self, k: int) -> bool:
        """O(1) counter skipahead when the bank supports it."""
        if not hasattr(self, "_blocks_per_refill"):
            return False
        self.bank.skip_blocks(k * self._blocks_per_refill)
        return True

    def next_words(self) -> np.ndarray:
        """The next refill of the word stream."""
        raw = self.bank.next_words(self._words_per_refill)
        raw = np.ascontiguousarray(raw)
        if raw.dtype == np.uint64:
            return raw.ravel()
        flat = raw.view(np.uint8).ravel()
        usable = flat.size - flat.size % 8
        return flat[:usable].view(np.uint64)

    def gates_per_output_bit(self) -> float:
        """Logic cost per emitted bit (NaN when not modelled)."""
        return float(getattr(self.bank, "ops_per_output_bit", lambda: float("nan"))())


class BSRNG:
    """High-throughput pseudo-random number generator.

    Parameters
    ----------
    algorithm:
        One of :func:`available_algorithms` (default ``"mickey2"``, the
        paper's best performer).
    seed:
        Integer seed; expands deterministically into per-lane key/IV or
        per-stream state material.
    lanes:
        Number of parallel generator instances (bitsliced lanes or
        baseline streams).  More lanes = more work per vector op.
    dtype:
        Virtual datapath word type for bitsliced algorithms (uint32 or
        uint64; wider words carry more lanes per NumPy instruction).
    fused:
        Route refills through the compiled fused kernels
        (:mod:`repro.codegen.fused`).  ``None`` (default) enables fusion
        for bitsliced algorithms and is a no-op for baselines; the
        stream is bit-identical either way.
    clocks_per_call:
        Clock batch size K of one fused kernel call.
    prefetch:
        Double-buffer refills: a background worker produces buffer N+1
        while buffer N drains.  Kicks in from the second refill, so
        one-shot draws pay nothing.
    threads:
        Split the lane columns across a persistent thread pool
        (:class:`~repro.core.lanebank.ThreadedLaneBank`; bitsliced
        algorithms only).  The stream is bit-identical to ``threads=1``;
        NumPy releases the GIL inside the kernels, so on multi-core
        hosts refills genuinely overlap.

    Thread safety
    -------------
    All public draws (:meth:`read`, :meth:`random_bytes`, ...),
    :meth:`skip_bytes` and :meth:`reseed` serialise on :attr:`lock`, a
    re-entrant lock, so concurrent callers interleave at draw granularity
    and the union of their draws is exactly the sequential stream — no
    bytes are duplicated or lost.  Compound operations that must be
    atomic (e.g. "record :meth:`tell`, then draw") take the lock
    explicitly::

        with rng.lock:
            offset = rng.tell()
            data = rng.read(n)   # data == offline stream at `offset`

    The serve layer's worker pool instead relies on the *per-worker
    ownership invariant*: each worker process owns its generator
    exclusively, so the lock is uncontended there.
    """

    def __init__(
        self,
        algorithm: str = "mickey2",
        seed: int = 0,
        lanes: int = 4096,
        dtype=np.uint64,
        *,
        fused: bool | None = None,
        clocks_per_call: int = 32,
        prefetch: bool = True,
        threads: int = 1,
    ) -> None:
        try:
            factory, kind, _ = _REGISTRY[algorithm]
        except KeyError:
            raise SpecificationError(
                f"unknown algorithm {algorithm!r}; available: {sorted(_REGISTRY)}"
            ) from None
        if threads <= 0:
            raise SpecificationError("threads must be positive")
        self.algorithm = algorithm
        self.kind = kind
        self.seed = int(seed)
        self.lanes = int(lanes)
        self._dtype = dtype
        self.fused = (kind == "bitsliced") if fused is None else bool(fused)
        self.clocks_per_call = int(clocks_per_call)
        self.prefetch = bool(prefetch)
        self.threads = int(threads)
        self._reseed_count = 0
        self._source = factory(
            self.seed, self.lanes, dtype, self.fused, self.clocks_per_call, self.threads
        )
        self._buf = np.zeros(0, dtype=np.uint8)
        self._pos = 0
        self._pending = None  # in-flight prefetched refill (Future)
        self._refills = 0
        #: Serialises draws/seeks/reseeds across threads (re-entrant, so
        #: callers can compose atomic tell-then-read sequences).
        self.lock = threading.RLock()
        self._position = 0  # stream offset: bytes emitted + skipped since seed

    def reseed(self, seed: int | None = None) -> None:
        """Rebuild the generator bank from a fresh seed.

        With ``seed=None`` a new seed is derived from the current one via
        SplitMix64 stream separation (distinct from :meth:`spawn`
        children), so repeated reseeds walk a deterministic, non-repeating
        seed sequence.  Buffered output from the old state is discarded.
        """
        from repro.core.seeding import expand_seed_words

        with self.lock:
            obs.inc("repro_generator_reseeds_total", 1, algorithm=self.algorithm)
            self._reseed_count += 1
            if seed is None:
                seed = int(expand_seed_words(self.seed, 1, stream=31 + self._reseed_count)[0])
            self._discard_pending()
            factory, _, _ = _REGISTRY[self.algorithm]
            self.seed = int(seed)
            self._source = factory(
                self.seed, self.lanes, self._dtype, self.fused, self.clocks_per_call, self.threads
            )
            self._buf = np.zeros(0, dtype=np.uint8)
            self._pos = 0
            self._refills = 0
            self._position = 0

    # -- stream plumbing ---------------------------------------------------------
    # The internal buffer is byte-granular so partial draws never discard
    # generated output: random_bytes(1) twice equals random_bytes(2).
    def _discard_pending(self) -> None:
        """Wait out and drop any in-flight prefetched refill.

        A refill that *failed* is dropped the same way: the future is
        detached before its result is inspected, so a transient worker
        error can never wedge the generator — previously a raising
        future stayed parked in ``_pending`` and every later draw,
        seek *and reseed* re-raised the same stale exception forever.
        """
        pending, self._pending = self._pending, None
        if pending is None:
            return
        try:
            pending.result()
        except Exception:
            obs.inc("repro_generator_refill_errors_total", 1, algorithm=self.algorithm)

    def _next_buffer(self) -> np.ndarray:
        """Produce the next refill, double-buffered when ``prefetch``.

        The first refill is always synchronous (a one-shot draw should
        not pay for a speculative second buffer); from the second refill
        on, buffer N+1 is produced on the background worker while N
        drains, so a steady consumer only ever waits for the *remainder*
        of an overlapped refill — the buffer-swap latency metric below.
        """
        if not self.prefetch:
            return self._source.next_words().view(np.uint8)
        t0 = time.perf_counter()
        if self._pending is not None:
            # detach before .result(): if the refill failed, the error
            # propagates to this caller once and the next draw retries
            # synchronously instead of replaying a poisoned future
            pending, self._pending = self._pending, None
            buf = pending.result().view(np.uint8)
            obs.inc("repro_generator_prefetch_hits_total", 1, algorithm=self.algorithm)
        else:
            buf = self._source.next_words().view(np.uint8)
        self._refills += 1
        if self._refills >= 2:
            self._pending = _refill_executor().submit(self._source.next_words)
        if obs.metrics_enabled():
            obs.observe(
                "repro_generator_buffer_swap_seconds",
                time.perf_counter() - t0,
                algorithm=self.algorithm,
            )
        return buf

    def _take_bytes(self, n: int) -> np.ndarray:
        with self.lock:
            out = np.empty(n, dtype=np.uint8)
            filled = 0
            while filled < n:
                avail = self._buf.size - self._pos
                if avail == 0:
                    with span("refill", algo=self.algorithm):
                        self._buf = self._next_buffer()
                    self._pos = 0
                    avail = self._buf.size
                    if obs.metrics_enabled():
                        obs.inc("repro_generator_refills_total", 1, algorithm=self.algorithm)
                        obs.inc(
                            "repro_generator_generated_bytes_total", avail, algorithm=self.algorithm
                        )
                        obs.observe("repro_generator_refill_bytes", avail, algorithm=self.algorithm)
                take = min(avail, n - filled)
                out[filled : filled + take] = self._buf[self._pos : self._pos + take]
                self._pos += take
                filled += take
            self._position += n
            if obs.metrics_enabled():
                obs.inc("repro_generator_emitted_bytes_total", n, algorithm=self.algorithm)
            return out

    def _take_words(self, n: int) -> np.ndarray:
        return self._take_bytes(8 * n).view(np.uint64)

    def skip_bytes(self, n: int) -> None:
        """Advance the stream by *n* bytes without materialising them.

        Counter-based kernels (AES-CTR) seek whole refills in O(1) — the
        mechanism behind §5.4's counter-space partitioning; everything
        else (LFSR-based kernels must be clocked) generates and discards.
        """
        if n < 0:
            raise SpecificationError("n must be non-negative")
        with self.lock:
            obs.inc("repro_generator_skipped_bytes_total", n, algorithm=self.algorithm)
            self._position += n
            # drain whatever is already buffered
            take = min(n, self._buf.size - self._pos)
            self._pos += take
            n -= take
            # an in-flight prefetched buffer is the next refill of the stream:
            # it must be consumed (as skipped output) before any native seek,
            # or the generator state would double-produce those bytes
            if n and self._pending is not None:
                pending, self._pending = self._pending, None
                self._buf = pending.result().view(np.uint8)
                self._pos = min(n, self._buf.size)
                n -= self._pos
            refill = getattr(self._source, "refill_bytes", 0)
            skip = getattr(self._source, "skip_refills", None)
            if n and refill and skip is not None:
                k = n // refill
                if k and skip(k):
                    n -= k * refill
            while n:
                self._buf = self._source.next_words().view(np.uint8)
                self._pos = min(n, self._buf.size)
                n -= self._pos

    # -- public draws -----------------------------------------------------------
    def read(self, n: int) -> bytes:
        """*n* stream bytes (file-like alias of :meth:`random_bytes`)."""
        return self.random_bytes(n)

    def tell(self) -> int:
        """Current stream offset: bytes emitted plus bytes skipped since
        the last (re)seed.  ``rng.tell()`` names the offset at which the
        next :meth:`read` begins — the coordinate the serve layer's
        counter-space leases are expressed in."""
        with self.lock:
            return self._position

    def random_uint64(self, n: int) -> np.ndarray:
        """*n* uniform 64-bit words."""
        if n < 0:
            raise SpecificationError("n must be non-negative")
        return self._take_words(n)

    def random_uint32(self, n: int) -> np.ndarray:
        """*n* uniform 32-bit words."""
        if n < 0:
            raise SpecificationError("n must be non-negative")
        return self._take_words(-(-n // 2)).view(np.uint32)[:n].copy()

    def random_bytes(self, n: int) -> bytes:
        """*n* uniform bytes."""
        if n < 0:
            raise SpecificationError("n must be non-negative")
        return self._take_bytes(n).tobytes()

    def random_uint8(self, n: int) -> np.ndarray:
        """*n* uniform bytes as a uint8 array (no ``bytes`` round-trip).

        The array-consuming callers (health screening, the statistical
        batteries) previously went ``random_bytes`` → ``np.frombuffer``,
        paying a ``tobytes`` copy just to wrap the result again; this is
        the same draw without the detour.
        """
        if n < 0:
            raise SpecificationError("n must be non-negative")
        return self._take_bytes(n)

    def read_with_receipt(self, n: int) -> tuple[bytes, Receipt]:
        """*n* stream bytes plus their CRC-32 receipt.

        Returns ``(data, receipt)`` with ``data == self.read(n)`` and
        ``receipt.crc == payload_crc(data)``: one cold CRC pass over the
        drawn bytes, the same check every fleet result carries.
        """
        from repro.robust.supervisor import payload_crc  # repro.robust imports BSRNG

        data = self.read(n)
        return data, Receipt(payload_crc(data))

    def random_bits(self, n: int) -> np.ndarray:
        """*n* bits as a uint8 0/1 array (little bit order of the stream)."""
        if n < 0:
            raise SpecificationError("n must be non-negative")
        raw = self._take_bytes(-(-n // 8))
        return np.unpackbits(raw, bitorder="little")[:n]

    def random(self, size: int | tuple = 1) -> np.ndarray:
        """Uniform float64 in [0, 1) with full 53-bit mantissas."""
        shape = (size,) if isinstance(size, int) else tuple(size)
        if any(d < 0 for d in shape):
            raise SpecificationError("size must be non-negative")
        n = int(np.prod(shape)) if shape else 1
        words = self._take_words(n)
        return ((words >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))).reshape(shape)

    def integers(self, low: int, high: int, size: int = 1) -> np.ndarray:
        """Uniform integers in ``[low, high)`` (Lemire-style rejection-free
        scaling is not used; modulo bias is below 2^-32 for ranges < 2^32)."""
        if size < 0:
            raise SpecificationError("size must be non-negative")
        if high <= low:
            raise SpecificationError("need high > low")
        span = high - low
        if span > (1 << 63):
            raise SpecificationError("range too wide")
        words = self._take_words(size)
        return (low + (words % np.uint64(span)).astype(np.int64)).astype(np.int64)

    def normal(self, size: int = 1) -> np.ndarray:
        """Standard normal deviates via Box–Muller."""
        if size < 0:
            raise SpecificationError("size must be non-negative")
        n = -(-size // 2) * 2
        u = self.random(n).reshape(2, -1)
        u1 = np.clip(u[0], np.finfo(np.float64).tiny, None)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u[1]
        out = np.concatenate([r * np.cos(theta), r * np.sin(theta)])
        return out[:size]

    # -- stream spawning ---------------------------------------------------------
    def spawn(self, n_children: int) -> list["BSRNG"]:
        """*n_children* independent child generators (SPRNG-style).

        Child seeds are derived through SplitMix64 stream separation, so
        children never share key/IV material with each other or with this
        generator — the safe way to hand generators to worker processes
        without coordinating offsets.
        """
        from repro.core.seeding import expand_seed_words

        if n_children <= 0:
            raise SpecificationError("n_children must be positive")
        child_seeds = expand_seed_words(self.seed, n_children, stream=23)
        return [
            BSRNG(
                self.algorithm,
                seed=int(s),
                lanes=self.lanes,
                dtype=self._dtype,
                fused=self.fused,
                clocks_per_call=self.clocks_per_call,
                prefetch=self.prefetch,
                threads=self.threads,
            )
            for s in child_seeds
        ]

    # -- introspection ---------------------------------------------------------------
    def gates_per_output_bit(self) -> float:
        """Logic-gate cost per emitted bit (NaN for table-based baselines)."""
        return self._source.gates_per_output_bit()

    def publish_metrics(self) -> None:
        """Fold slow-moving state into the metrics registry.

        Counters stream into the registry as generation happens; the
        engine's cumulative gate tallies and the bank geometry are
        *state*, so they are published as gauges on demand — call this
        before snapshotting (``--metrics-out`` does).  No-op while
        metrics are disabled and for baselines without an engine.
        """
        if not obs.metrics_enabled():
            return
        obs.set_gauge(
            "repro_generator_lanes", self.lanes, algorithm=self.algorithm, kind=self.kind
        )
        obs.set_gauge("repro_generator_fused", int(self.fused), algorithm=self.algorithm)
        if self.fused:
            obs.set_gauge(
                "repro_generator_clocks_per_call", self.clocks_per_call, algorithm=self.algorithm
            )
        gpb = self.gates_per_output_bit()
        if gpb == gpb:  # skip NaN (table-based baselines)
            obs.set_gauge("repro_generator_gates_per_bit", gpb, algorithm=self.algorithm)
        bank = getattr(self._source, "bank", None)
        engine = getattr(bank, "engine", None)
        if isinstance(engine, BitslicedEngine):
            engine.publish_gate_metrics(algorithm=self.algorithm)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BSRNG(algorithm={self.algorithm!r}, seed={self.seed}, lanes={self.lanes}, "
            f"fused={self.fused})"
        )
