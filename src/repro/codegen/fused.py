"""Fused K-clock kernels: compiled cipher circuits + renaming schedules.

The virtual SIMD engine's unfused path pays one NumPy dispatch — and one
temporary allocation — per gate per clock, plus a Python-level register
shift (``s[1:] = s[:-1]``) that copies the whole state every clock.  On
the GPU the paper avoids exactly this by fusing the gate network into a
single kernel launch; here the analogue is *source emission*: for each
cipher we generate a Python function that steps **K clocks per call**
with

* the register-renaming schedule compiled in — LFSR shifts become
  constant-index reads into a sliding window (stream ciphers) or a
  compile-time ping-pong buffer swap (MICKEY), so the per-clock state
  copy disappears entirely and is replaced by one window rebase per K
  clocks,
* every gate writing into a preallocated scratch register through the
  ufunc ``out=`` parameter (no per-gate temporaries), and
* keystream planes written straight into the caller's output rows (the
  coalesced-store ideal of §4.5 — no staging buffer round trip).

Kernels are compiled once and kept in a process-global
:class:`KernelCache` keyed by ``(cipher, word-dtype, clocks-per-call)``
plus a version stamp; bumping :data:`KERNEL_CACHE_VERSION` (or a
cipher's entry in :data:`CIRCUIT_VERSIONS`) orphans stale entries, and
per-bank execution contexts check kernel identity so they rebuild after
an invalidation.  The compiled function is pure; all mutable scratch
lives in a per-bank context (:meth:`FusedKernel.make_context`), so two
banks sharing a cached kernel can never alias each other's buffers.

The conformance contract — fused streams are bit-identical to the
unfused and reference paths — is enforced by
``tests/test_fused_conformance.py`` and ``repro selftest --fused``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import obs
from repro.errors import SpecificationError

__all__ = [
    "KERNEL_CACHE_VERSION",
    "CIRCUIT_VERSIONS",
    "FusedKernel",
    "KernelCache",
    "KERNEL_CACHE",
    "get_kernel",
    "fused_generate",
]

#: Bump to orphan every cached kernel (e.g. when the emitters change).
KERNEL_CACHE_VERSION = 1

#: Per-cipher circuit versions; bump one to invalidate only its kernels.
CIRCUIT_VERSIONS = {"mickey2": 3, "grain": 1, "trivium": 2, "aes128ctr": 1}

#: Default clock batch per fused call (CLI/BSRNG override per instance).
DEFAULT_CLOCKS_PER_CALL = 32


@dataclass(frozen=True)
class FusedKernel:
    """A compiled fused kernel plus its per-bank context factory.

    ``fn(bank, out, base, ctx)`` advances *bank* by ``clocks`` clocks,
    writing ``clocks * rows_per_clock`` keystream plane rows into
    ``out[base:...]``.  ``ctx`` must come from :meth:`make_context` on
    the same bank (geometry-matched scratch, constant planes, and — for
    AES — key-derived round-key flip indices).
    """

    cipher: str
    clocks: int
    dtype: np.dtype
    rows_per_clock: int
    source: str
    fn: Callable = field(repr=False)
    _context_builder: Callable = field(repr=False)

    def make_context(self, bank) -> dict:
        """Allocate the per-bank scratch/constant bundle for this kernel."""
        return self._context_builder(bank)


class KernelCache:
    """Process-global cache of compiled fused kernels.

    Keyed by ``(cipher, dtype, clocks, version)``; thread-safe (the
    double-buffered refill pipeline compiles from a worker thread).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._kernels: dict[tuple, FusedKernel] = {}
        self.hits = 0
        self.misses = 0

    def _key(self, cipher: str, dtype, clocks: int) -> tuple:
        version = (KERNEL_CACHE_VERSION, CIRCUIT_VERSIONS[cipher])
        return (cipher, np.dtype(dtype).name, int(clocks), version)

    def get(self, cipher: str, dtype, clocks: int) -> FusedKernel:
        """Fetch (or compile and cache) the kernel for one configuration."""
        if cipher not in CIRCUIT_VERSIONS:
            raise SpecificationError(f"no fused kernel emitter for {cipher!r}")
        if clocks <= 0:
            raise SpecificationError("clocks per call must be positive")
        key = self._key(cipher, dtype, clocks)
        with self._lock:
            kernel = self._kernels.get(key)
            if kernel is not None:
                self.hits += 1
                obs.inc("repro_kernel_cache_hits_total", 1, cipher=cipher)
                return kernel
            self.misses += 1
        # Compile outside the lock (emission is slow for large K); a rare
        # duplicate compile just overwrites with an identical kernel.
        kernel = _BUILDERS[cipher](int(clocks), np.dtype(dtype))
        with self._lock:
            self._kernels[key] = kernel
        obs.inc("repro_kernel_cache_misses_total", 1, cipher=cipher)
        obs.set_gauge("repro_kernel_cache_size", len(self._kernels))
        return kernel

    def invalidate(self, cipher: str | None = None) -> int:
        """Drop cached kernels (all, or one cipher's); returns the count."""
        with self._lock:
            if cipher is None:
                n = len(self._kernels)
                self._kernels.clear()
            else:
                stale = [k for k in self._kernels if k[0] == cipher]
                n = len(stale)
                for k in stale:
                    del self._kernels[k]
        return n

    def stats(self) -> dict:
        """Hit/miss/size counters (for tests and ``repro stats``)."""
        with self._lock:
            return {"hits": self.hits, "misses": self.misses, "size": len(self._kernels)}

    def __len__(self) -> int:
        with self._lock:
            return len(self._kernels)


#: The process-global kernel cache all banks share.
KERNEL_CACHE = KernelCache()


def get_kernel(cipher: str, dtype, clocks: int) -> FusedKernel:
    """Shorthand for ``KERNEL_CACHE.get(...)``."""
    return KERNEL_CACHE.get(cipher, dtype, clocks)


def _context_for(bank, kernel: FusedKernel) -> dict:
    """The bank's context for *kernel*, rebuilt if the kernel changed.

    Contexts are stored on the bank keyed by clock count and stamped
    with the kernel object they were built for, so a cache invalidation
    (new kernel object) transparently rebuilds the scratch bundle.
    """
    contexts = getattr(bank, "_fused_ctx", None)
    if contexts is None:
        contexts = bank._fused_ctx = {}
    entry = contexts.get(kernel.clocks)
    if entry is None or entry[0] is not kernel:
        ctx = kernel.make_context(bank)
        contexts[kernel.clocks] = (kernel, ctx)
        return ctx
    return entry[1]


def fused_generate(
    bank, cipher: str, n_clocks: int, out: np.ndarray, base: int = 0
) -> None:
    """Advance *bank* by ``n_clocks`` clocks through fused kernels.

    Splits the request into full ``engine.clocks_per_call`` batches plus
    one tail kernel, so any row count is served without overshooting the
    cipher state.  Writes ``n_clocks * rows_per_clock`` rows into *out*
    starting at row *base*.
    """
    engine = bank.engine
    K = max(1, int(getattr(engine, "clocks_per_call", DEFAULT_CLOCKS_PER_CALL)))
    done = 0
    calls = 0
    while done < n_clocks:
        k = min(K, n_clocks - done)
        kernel = get_kernel(cipher, engine.dtype, k)
        ctx = _context_for(bank, kernel)
        kernel.fn(bank, out, base + done * kernel.rows_per_clock, ctx)
        done += k
        calls += 1
    if obs.metrics_enabled():
        obs.inc("repro_fused_kernel_calls_total", calls, algorithm=cipher)
        obs.inc("repro_fused_clocks_total", n_clocks, algorithm=cipher)
        obs.observe(
            "repro_fused_clocks_per_call", n_clocks / max(calls, 1), algorithm=cipher
        )


def _compile(source: str, func_name: str, namespace: dict | None = None) -> Callable:
    ns: dict = {"np": np}
    if namespace:
        ns.update(namespace)
    exec(source, ns)  # noqa: S102 - our own generated source
    return ns[func_name]


# ---------------------------------------------------------------------------
# Trivium: three shift registers -> forward history arrays with
# block-batched feedback.  In oldest-bit-first order the deepest read
# offset across all three registers is 45 (register C's s243 tap) and
# the shallowest register is B (84 cells, deepest offset 15), so up to
# ``min(93-27, 84-15, 111-45) = 64`` consecutive clocks of feedback bits
# depend only on already-materialized history rows — one (64, nw) slice
# op replaces 64 single-row ops.  The output filter never feeds back, so
# z for all K clocks is computed in bulk at the end, straight into the
# caller's output rows (same trick as the Grain kernel below).
# ---------------------------------------------------------------------------
_TRIVIUM_BLOCK = 64


def _build_trivium(K: int, dtype: np.dtype) -> FusedKernel:
    from repro.ciphers.trivium import (
        STATE_BITS,
        _B_HEAD,
        _C_HEAD,
        _T1_AND,
        _T1_FWD,
        _T1_TAPS,
        _T2_AND,
        _T2_FWD,
        _T2_TAPS,
        _T3_AND,
        _T3_FWD,
        _T3_TAPS,
    )

    LA, LB, LC = _B_HEAD, _C_HEAD - _B_HEAD, STATE_BITS - _C_HEAD
    lens = {"fa": LA, "fb": LB, "fc": LC}

    def hist(g: int) -> tuple[str, int]:
        """Map a global newest-first state index to (array, oldest-first offset)."""
        if g < _B_HEAD:
            return "fa", LA - 1 - g
        if g < _C_HEAD:
            return "fb", LB - 1 - (g - _B_HEAD)
        return "fc", LC - 1 - (g - _C_HEAD)

    L = [
        "def _fused_trivium(bank, out, base, c):",
        f'    """Generated fused Trivium kernel: {K} clocks per call (block-batched)."""',
        "    s = bank.s",
        "    fa = c['fa']; fb = c['fb']; fc = c['fc']; W = c['w']",
        # history load: oldest bit first, so taps become forward slices
        f"    fa[0:{LA}] = s[{LA - 1}::-1]",
        f"    fb[0:{LB}] = s[{_C_HEAD - 1}:{_B_HEAD - 1}:-1]",
        f"    fc[0:{LC}] = s[{STATE_BITS - 1}:{_C_HEAD - 1}:-1]",
    ]

    def emit_feedback(t0: int, B: int, taps, ands, fwd, dst: str) -> None:
        def sl(g: int) -> str:
            arr, j = hist(g)
            return f"{arr}[{t0 + j}:{t0 + j + B}]"

        head = lens[dst]
        L.append(f"    Wv = W[0:{B}]")
        L.append(f"    np.bitwise_and({sl(ands[0])}, {sl(ands[1])}, out=Wv)")
        L.append(f"    np.bitwise_xor(Wv, {sl(taps[0])}, out=Wv)")
        L.append(f"    np.bitwise_xor(Wv, {sl(taps[1])}, out=Wv)")
        L.append(f"    np.bitwise_xor(Wv, {sl(fwd)}, out={dst}[{t0 + head}:{t0 + head + B}])")

    t0 = 0
    while t0 < K:
        B = min(_TRIVIUM_BLOCK, K - t0)
        emit_feedback(t0, B, _T1_TAPS, _T1_AND, _T1_FWD, "fb")  # t1 -> register B
        emit_feedback(t0, B, _T2_TAPS, _T2_AND, _T2_FWD, "fc")  # t2 -> register C
        emit_feedback(t0, B, _T3_TAPS, _T3_AND, _T3_FWD, "fa")  # t3 -> register A
        t0 += B
    # bulk keystream: z_t for every clock at once, into the output rows
    L.append(f"    Z = out[base:base + {K}]")
    zt = [hist(g) for g in (*_T1_TAPS, *_T2_TAPS, *_T3_TAPS)]
    (a0, j0), (a1, j1) = zt[0], zt[1]
    L.append(f"    np.bitwise_xor({a0}[{j0}:{j0 + K}], {a1}[{j1}:{j1 + K}], out=Z)")
    for arr, j in zt[2:]:
        L.append(f"    np.bitwise_xor(Z, {arr}[{j}:{j + K}], out=Z)")
    # history writeback: newest bit first again
    L.append(f"    s[0:{_B_HEAD}] = fa[{K + LA - 1}:{K - 1}:-1]")
    L.append(f"    s[{_B_HEAD}:{_C_HEAD}] = fb[{K + LB - 1}:{K - 1}:-1]")
    L.append(f"    s[{_C_HEAD}:{STATE_BITS}] = fc[{K + LC - 1}:{K - 1}:-1]")
    source = "\n".join(L) + "\n"

    def make_context(bank) -> dict:
        nw, dt = bank.engine.n_words, bank.engine.dtype
        return {
            "fa": np.empty((K + LA, nw), dt),
            "fb": np.empty((K + LB, nw), dt),
            "fc": np.empty((K + LC, nw), dt),
            "w": np.empty((min(_TRIVIUM_BLOCK, K), nw), dt),
        }

    return FusedKernel(
        "trivium", K, np.dtype(dtype), 1, source, _compile(source, "_fused_trivium"), make_context
    )


# ---------------------------------------------------------------------------
# Grain v1: LFSR + NFSR -> forward sliding windows with block-batched
# feedback.  The deepest state tap is index 63, so feedback bits for up
# to 16 consecutive clocks depend only on already-materialized window
# rows — one (16, nw) slice op replaces 16 single-row ops.  The filter
# output never feeds back in keystream mode, so z for all K clocks is
# computed in bulk at the end, straight into the caller's output rows.
# ---------------------------------------------------------------------------
_GRAIN_BLOCK = 16  # 80 - max feedback tap (63) = 17; 16 keeps margin


def _build_grain(K: int, dtype: np.dtype) -> FusedKernel:
    from repro.ciphers.grain import LFSR_TAPS, OUTPUT_TAPS, STATE_BITS

    L = [
        "def _fused_grain(bank, out, base, c):",
        f'    """Generated fused Grain v1 kernel: {K} clocks per call."""',
        "    s = bank.s; b = bank.b",
        "    es = c['es']; eb = c['eb']",
        "    P16 = c['p16']; T52_ = c['t52']; T28_ = c['t28']; T60_ = c['t60']",
        "    X = c['x']; Y = c['y']",
        f"    es[0:{STATE_BITS}] = s",
        f"    eb[0:{STATE_BITS}] = b",
    ]
    for tb in range(0, K, _GRAIN_BLOCK):
        B = min(_GRAIN_BLOCK, K - tb)

        def S(i: int) -> str:
            return f"es[{tb + i}:{tb + i + B}]"

        def Bb(i: int) -> str:
            return f"eb[{tb + i}:{tb + i + B}]"

        L.append(f"    F = es[{tb + STATE_BITS}:{tb + STATE_BITS + B}]")
        L.append(f"    G = eb[{tb + STATE_BITS}:{tb + STATE_BITS + B}]")
        L.append(f"    P = P16[0:{B}]; T52 = T52_[0:{B}]; T28 = T28_[0:{B}]; T60 = T60_[0:{B}]")
        # LFSR feedback block: fs = xor of the six taps
        L.append(f"    np.bitwise_xor({S(LFSR_TAPS[0])}, {S(LFSR_TAPS[1])}, out=F)")
        for tap in LFSR_TAPS[2:]:
            L.append(f"    np.bitwise_xor(F, {S(tap)}, out=F)")
        # NFSR feedback block: fb = s0 ^ g(b); shared monomials first
        L.append(f"    np.bitwise_and({Bb(60)}, {Bb(52)}, out=T52)")
        L.append(f"    np.bitwise_and({Bb(33)}, {Bb(28)}, out=T28)")
        L.append(f"    np.bitwise_and({Bb(63)}, {Bb(60)}, out=T60)")
        L.append(f"    np.bitwise_xor({S(0)}, {Bb(62)}, out=G)")
        for tap in (60, 52, 45, 37, 33, 28, 21, 14, 9, 0):
            L.append(f"    np.bitwise_xor(G, {Bb(tap)}, out=G)")
        L.append("    np.bitwise_xor(G, T60, out=G)")
        products = (
            (Bb(37), Bb(33)),
            (Bb(15), Bb(9)),
            ("T52", Bb(45)),
            ("T28", Bb(21)),
            (Bb(63), Bb(45), Bb(28), Bb(9)),
            ("T52", Bb(37), Bb(33)),
            ("T60", Bb(21), Bb(15)),
            ("T52", "T60", Bb(45), Bb(37)),
            ("T28", Bb(21), Bb(15), Bb(9)),
            (Bb(52), Bb(45), Bb(37), "T28", Bb(21)),
        )
        for terms in products:
            L.append(f"    np.bitwise_and({terms[0]}, {terms[1]}, out=P)")
            for extra in terms[2:]:
                L.append(f"    np.bitwise_and(P, {extra}, out=P)")
            L.append("    np.bitwise_xor(G, P, out=G)")
    # Bulk filter: z_t for every clock at once, written into the output
    L.append(f"    Z = out[base:base + {K}]")
    x0, x1, x2, x3, x4 = (
        f"es[3:{3 + K}]",
        f"es[25:{25 + K}]",
        f"es[46:{46 + K}]",
        f"es[64:{64 + K}]",
        f"eb[63:{63 + K}]",
    )
    L.append(f"    np.bitwise_and({x0}, {x2}, out=X)")  # shared x0&x2
    L.append(f"    np.bitwise_xor({x1}, {x4}, out=Z)")
    for pair in ((x0, x3), (x2, x3), (x3, x4), ("X", x1), ("X", x3), ("X", x4)):
        L.append(f"    np.bitwise_and({pair[0]}, {pair[1]}, out=Y)")
        L.append("    np.bitwise_xor(Z, Y, out=Z)")
    for triple in ((x1, x2, x4), (x2, x3, x4)):
        L.append(f"    np.bitwise_and({triple[0]}, {triple[1]}, out=Y)")
        L.append(f"    np.bitwise_and(Y, {triple[2]}, out=Y)")
        L.append("    np.bitwise_xor(Z, Y, out=Z)")
    for k in OUTPUT_TAPS:
        L.append(f"    np.bitwise_xor(Z, eb[{k}:{k + K}], out=Z)")
    # window rebase
    L.append(f"    s[:] = es[{K}:{K + STATE_BITS}]")
    L.append(f"    b[:] = eb[{K}:{K + STATE_BITS}]")
    source = "\n".join(L) + "\n"

    def make_context(bank) -> dict:
        nw, dt = bank.engine.n_words, bank.engine.dtype
        blk = min(_GRAIN_BLOCK, K)
        return {
            "es": np.empty((K + STATE_BITS, nw), dt),
            "eb": np.empty((K + STATE_BITS, nw), dt),
            "p16": np.empty((blk, nw), dt),
            "t52": np.empty((blk, nw), dt),
            "t28": np.empty((blk, nw), dt),
            "t60": np.empty((blk, nw), dt),
            "x": np.empty((K, nw), dt),
            "y": np.empty((K, nw), dt),
        }

    return FusedKernel(
        "grain", K, np.dtype(dtype), 1, source, _compile(source, "_fused_grain"), make_context
    )


# ---------------------------------------------------------------------------
# MICKEY 2.0: irregular clocking -> compile-time ping-pong buffer swap.
# ---------------------------------------------------------------------------
def _build_mickey2(K: int, dtype: np.dtype) -> FusedKernel:
    from repro.ciphers._mickey_tables import (
        COMP0_BITS,
        COMP1_BITS,
        FB0_BITS,
        FB1_BITS,
        R_TAPS_BITS,
    )
    from repro.ciphers.mickey import STATE_BITS

    fb0 = FB0_BITS.astype(bool)
    fb1 = FB1_BITS.astype(bool)
    # The kernel runs with S stored in a *complemented domain*: S' = S ^ C0,
    # where C0 is COMP0 extended with zero rows at 0 and 99.  In that domain
    # the spec's "S[i] ^ COMP0[i]" operand of the nonlinear AND is a plain
    # view of S' — one full-width pass and a 196 KB constant plane vanish
    # from every clock, and the working set drops under L2.  The price is
    # constant bookkeeping, all folded at build time:
    #   * the AND's other operand becomes S'[i+1] ^ D with
    #     D[i] = C0[i+1] ^ COMP1[i] (one constant replacing comp1),
    #   * control taps S[34]/S[67] and the shifted S'[98] pick up a
    #     compile-time complement when their C0 bit is set,
    #   * the per-row feedback select "fb & (ctrl ? FB1 : FB0)" lands via a
    #     single table gather: every row takes one of eight values
    #     {0, 1, s99, ~s99, w, ~w, w0, ~w0} (w = cs & s99, w0 = ~cs & s99),
    #     complemented per-row by C0[r] ^ C0[r-1] (the Sn' definition plus
    #     the S' shift term the chain adds).  np.take(V, _FAM, mode='clip')
    #     writes all 100 rows of Sn in one pass — mode='clip' skips the
    #     bounds-checked buffered path (indices are all in range).
    c0ext = COMP0_BITS.astype(bool).copy()
    c0ext[0] = False
    c0ext[STATE_BITS - 1] = False
    split = np.zeros(STATE_BITS, bool)
    split[1:99] = c0ext[1:99] ^ c0ext[0:98]
    fam = np.zeros(STATE_BITS, np.intp)
    for mask, base_idx in (
        (~fb0 & ~fb1, 0),
        (fb0 & fb1, 2),
        (fb1 & ~fb0, 4),
        (fb0 & ~fb1, 6),
    ):
        idx = np.flatnonzero(mask)
        fam[idx] = base_idx + split[idx]
    d_bits = c0ext[2:100] ^ COMP1_BITS[1:99].astype(bool)
    flip_cr = bool(c0ext[34])
    flip_cs = bool(c0ext[67])
    flip_s98 = bool(c0ext[98])
    ns = {
        "_RT": np.flatnonzero(R_TAPS_BITS),
        "_FAM": fam,
    }
    SB_ = STATE_BITS  # 100
    L = [
        "def _fused_mickey2(bank, out, base, c):",
        f'    """Generated fused MICKEY 2.0 keystream kernel: {K} clocks per call."""',
        "    R0 = bank.R; S0 = bank.S",
        "    RB = c['RB']; SB = c['SB']",
        "    M = c['M']; D = c['D']; C0 = c['C0col']; V = c['V']",
        "    cr = c['cr']; cs = c['cs']; ones = c['ones']",
        # ~18 ufunc calls per clock: pre-bound locals, positional out and
        # hoisted slice views shave per-call dispatch overhead, which is
        # measurable at this density.
        "    XOR = np.bitwise_xor; AND = np.bitwise_and; NOT = np.bitwise_not",
        "    V2 = V[2]; V3 = V[3]; V4 = V[4]; V5 = V[5]; V6 = V[6]; V7 = V[7]",
        "    XOR(S0, C0, S0)",
    ]
    # hoisted views for both ping-pong parities (a: R0/S0 live, b: swapped)
    for p, (R, S, Rn, Sn) in (("a", ("R0", "S0", "RB", "SB")), ("b", ("RB", "SB", "R0", "S0"))):
        L += [
            f"    R{p}1 = {R}[1:{SB_}]; R{p}099 = {R}[0:{SB_ - 1}]; Rn{p}1 = {Rn}[1:{SB_}]",
            f"    S{p}1 = {S}[1:99]; S{p}2 = {S}[2:{SB_}]; S{p}098 = {S}[0:98]; Sn{p}1 = {Sn}[1:99]",
        ]
    for t in range(K):
        # keystream clocking: input plane is zero, so fb_r = R[99],
        # fb_s = S[99] — the mixing=False specialization baked in.
        p = "a" if t % 2 == 0 else "b"
        R, S = ("R0", "S0") if t % 2 == 0 else ("RB", "SB")
        Rn, Sn = ("RB", "SB") if t % 2 == 0 else ("R0", "S0")
        L += [
            f"    XOR({R}[0], {S}[0], out[base + {t}])",
            f"    XOR({S}[34], {R}[67], cr)",
        ]
        if flip_cr:  # pragma: no cover - depends on the COMP0 table
            L.append("    NOT(cr, cr)")
        L.append(f"    XOR({S}[67], {R}[33], cs)")
        if flip_cs:
            L.append("    NOT(cs, cs)")
        L += [
            # Rn[i] = R[i-1] ^ (R[i] & cr): the register shift folds into
            # the control mix; chaining in place through Rn keeps the
            # working set at four state planes + one temp (fits L2) where
            # a dedicated 100-row temp used to spill it.
            f"    AND(R{p}1, cr, Rn{p}1)",
            f"    XOR(Rn{p}1, R{p}099, Rn{p}1)",
            f"    AND({R}[0], cr, {Rn}[0])",
            f"    {Rn}[_RT] ^= {R}[99]",
            # feedback value table, then the one-pass gather into Sn
            f"    np.copyto(V2, {S}[99])",
            f"    NOT({S}[99], V3)",
            f"    AND(cs, {S}[99], V4)",
            "    NOT(V4, V5)",
            f"    XOR({S}[99], V4, V6)",
            "    XOR(V3, V4, V7)",
            f"    np.take(V, _FAM, 0, {Sn}, mode='clip')",
            # Sn'[i] ^= S'[i-1] ^ (S'[i] & (S'[i+1] ^ D)); comp0 is absorbed
            # by the domain, comp1 by D.  Row 0 keeps only its feedback term
            # and row 99 picks up the shifted S[98].
            f"    XOR(S{p}2, D, M)",
            f"    AND(S{p}1, M, M)",
            f"    XOR(Sn{p}1, M, Sn{p}1)",
            f"    XOR(Sn{p}1, S{p}098, Sn{p}1)",
            f"    XOR({Sn}[99], {S}[98], {Sn}[99])",
        ]
        if flip_s98:
            L.append(f"    XOR({Sn}[99], ones, {Sn}[99])")
    if K % 2 == 1:
        # odd clock count: the final state landed in the scratch pair
        L.append("    R0[...] = RB")
        L.append("    S0[...] = SB")
    # leave the complemented domain before returning control
    L.append("    XOR(S0, C0, S0)")
    source = "\n".join(L) + "\n"

    def make_context(bank) -> dict:
        from repro.ciphers.mickey_bitsliced import _const_column

        nw, dt = bank.engine.n_words, bank.engine.dtype
        fill = np.iinfo(dt).max
        V = np.zeros((8, nw), dt)
        V[1] = fill
        return {
            "RB": np.empty((SB_, nw), dt),
            "SB": np.empty((SB_, nw), dt),
            "M": np.empty((SB_ - 2, nw), dt),
            "D": _const_column(d_bits, nw, dt),
            "C0col": np.where(c0ext, fill, 0).astype(dt).reshape(SB_, 1),
            "V": V,
            "ones": np.full(nw, fill, dt),
            "cr": np.empty(nw, dt),
            "cs": np.empty(nw, dt),
        }

    return FusedKernel(
        "mickey2", K, np.dtype(dtype), 1, source, _compile(source, "_fused_mickey2", ns), make_context
    )


# ---------------------------------------------------------------------------
# AES-128-CTR: in-place S-box circuit + view-based round pipeline.
# ---------------------------------------------------------------------------
_AES_SBOX_INPLACE: tuple | None = None


def _aes_sbox_inplace() -> tuple:
    global _AES_SBOX_INPLACE
    if _AES_SBOX_INPLACE is None:
        from repro.ciphers.aes_bitsliced import sbox_circuit
        from repro.codegen.emit import compile_inplace

        _AES_SBOX_INPLACE = compile_inplace(sbox_circuit(), func_name="_sbox_inplace")
    return _AES_SBOX_INPLACE


def _build_aes(K: int, dtype: np.dtype) -> FusedKernel:
    from repro.ciphers.aes_bitsliced import _SHIFT_ROWS_PERM

    sbox_fn, n_regs = _aes_sbox_inplace()
    perm = _SHIFT_ROWS_PERM

    def make_context(bank) -> dict:
        nw, dt = bank.engine.n_words, bank.engine.dtype
        st_a = np.empty((16, 8, nw), dt)
        st_b = np.empty((16, 8, nw), dt)
        return {
            "st": (st_a, st_b),
            "views": (
                [st_a[:, i, :] for i in range(8)],
                [st_b[:, i, :] for i in range(8)],
            ),
            "regs": [np.empty((16, nw), dt) for _ in range(n_regs)],
            "ones": np.full((16, nw), np.iinfo(dt).max, dt),
            "zeros": np.zeros((16, nw), dt),
            "ones_row": np.full(nw, np.iinfo(dt).max, dt),
            "t": np.empty((4, 8, nw), dt),
            "u": np.empty((4, 8, nw), dt),
            "v": np.empty((4, 8, nw), dt),
            # round-key bit flips as flat plane indices (key-dependent:
            # the AES bank clears _fused_ctx on load() to rebuild these)
            "ark_idx": [np.flatnonzero(m.reshape(128)) for m in bank._rk_masks],
        }

    def fn(bank, out, base, c):
        from repro.core.bitslice import bitslice_bytes

        st_a, st_b = c["st"]
        views_a, views_b = c["views"]
        regs, ones, zeros = c["regs"], c["ones"], c["zeros"]
        ones_row = c["ones_row"]
        t, u, v = c["t"], c["u"], c["v"]
        ark = c["ark_idx"]
        for k in range(K):
            blocks = bank._counter_block_bytes(bank._blocks_done)
            bank._blocks_done += 1
            np.copyto(st_a.reshape(128, -1), bitslice_bytes(blocks, dtype=st_a.dtype))
            cur, oth = st_a, st_b
            vcur, voth = views_a, views_b
            cur.reshape(128, -1)[ark[0]] ^= ones_row
            for rnd in range(1, 10):
                sbox_fn(*vcur, voth, regs, ones, zeros)  # SubBytes: cur -> oth
                np.take(oth.reshape(16, -1), perm, axis=0, out=cur.reshape(16, -1))
                # MixColumns: cur -> oth, fully in place
                cols = cur.reshape(4, 4, 8, -1)
                dcols = oth.reshape(4, 4, 8, -1)
                np.bitwise_xor(cols[:, 0], cols[:, 1], out=t)
                np.bitwise_xor(t, cols[:, 2], out=t)
                np.bitwise_xor(t, cols[:, 3], out=t)
                for r in range(4):
                    np.bitwise_xor(cols[:, r], cols[:, (r + 1) % 4], out=u)
                    # xtime(u) -> v (GF(2^8) doubling at bit level)
                    np.copyto(v[:, 0], u[:, 7])
                    np.bitwise_xor(u[:, 0], u[:, 7], out=v[:, 1])
                    np.copyto(v[:, 2], u[:, 1])
                    np.bitwise_xor(u[:, 2], u[:, 7], out=v[:, 3])
                    np.bitwise_xor(u[:, 3], u[:, 7], out=v[:, 4])
                    np.copyto(v[:, 5], u[:, 4])
                    np.copyto(v[:, 6], u[:, 5])
                    np.copyto(v[:, 7], u[:, 6])
                    np.bitwise_xor(cols[:, r], t, out=dcols[:, r])
                    np.bitwise_xor(dcols[:, r], v, out=dcols[:, r])
                oth.reshape(128, -1)[ark[rnd]] ^= ones_row
                cur, oth = oth, cur
                vcur, voth = voth, vcur
            sbox_fn(*vcur, voth, regs, ones, zeros)
            np.take(oth.reshape(16, -1), perm, axis=0, out=cur.reshape(16, -1))
            flat = cur.reshape(128, -1)
            flat[ark[10]] ^= ones_row
            out[base + 128 * k : base + 128 * (k + 1)] = flat

    source = (
        f"# aes128ctr fused kernel: {K} clocks/call, closure over the in-place\n"
        f"# S-box circuit ({n_regs} registers); rounds ping-pong two (16, 8, nw)\n"
        "# plane stacks with view-based SubBytes/ShiftRows/MixColumns/ARK.\n"
    )
    return FusedKernel("aes128ctr", K, np.dtype(dtype), 128, source, fn, make_context)


_BUILDERS = {
    "trivium": _build_trivium,
    "grain": _build_grain,
    "mickey2": _build_mickey2,
    "aes128ctr": _build_aes,
}
