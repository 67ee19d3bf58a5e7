"""Bitsliced Grain v1 over the virtual SIMD engine.

State is 160 planes (80 LFSR + 80 NFSR).  Both registers shift in
lockstep every clock — in plane form that's two vectorized row moves plus
one feedback write each — and the nonlinear feedback ``g`` and filter
``h`` become flat AND/XOR networks over plane rows, the "light-weighted
architecture … great nominee for the bit-sliced implementation" of
§2.3.3.

Cross-validated lane-by-lane against :class:`repro.ciphers.grain.GrainV1`.
"""

from __future__ import annotations

import numpy as np

from repro.bitio.bits import as_bit_array
from repro.ciphers.grain import INIT_CLOCKS, IV_BITS, KEY_BITS, LFSR_TAPS, OUTPUT_TAPS, STATE_BITS
from repro.core.bitslice import bitslice, unbitslice
from repro.core.engine import BitslicedEngine
from repro.core.seeding import derive_lane_material
from repro.errors import KeyScheduleError

__all__ = ["BitslicedGrain"]

# Gate counts of one bank clock (z + g + f + shifts), per lane.  The ANDs
# in g/h are counted per 2-input gate of the flattened products.
_GATES_PER_CLOCK = {
    "xor": (len(OUTPUT_TAPS) + 9)  # z mask + h xors
    + (len(LFSR_TAPS) - 1)  # f
    + 12  # g linear part (11 taps + s_0)
    + 10  # g nonlinear accumulate
    + 2,  # feedback merge
    "and_": 8 + (1 + 1 + 1 + 2 + 2 + 3 + 3 + 3 + 4 + 4 + 5),  # h products + g products
    "or_": 0,
    "not_": 0,
}


class BitslicedGrain:
    """A bank of ``engine.n_lanes`` independent Grain v1 generators."""

    name = "grain"
    key_bits = KEY_BITS
    iv_bits = IV_BITS
    state_bits = 2 * STATE_BITS

    def __init__(self, engine: BitslicedEngine | None = None) -> None:
        self.engine = engine if engine is not None else BitslicedEngine()
        nw, dt = self.engine.n_words, self.engine.dtype
        self.s = np.zeros((STATE_BITS, nw), dtype=dt)  # LFSR planes
        self.b = np.zeros((STATE_BITS, nw), dtype=dt)  # NFSR planes
        self._loaded = False

    # -- loading -------------------------------------------------------------
    def load(self, keys, ivs) -> None:
        """Load ``(n_lanes, 80)`` keys and ``(n_lanes, 64)`` IVs, then init."""
        keys = as_bit_array(keys)
        ivs = as_bit_array(ivs)
        n_lanes = self.engine.n_lanes
        if keys.shape != (n_lanes, KEY_BITS):
            raise KeyScheduleError(f"keys must be ({n_lanes}, {KEY_BITS}), got {keys.shape}")
        if ivs.shape != (n_lanes, IV_BITS):
            raise KeyScheduleError(f"ivs must be ({n_lanes}, {IV_BITS}), got {ivs.shape}")
        dt = self.engine.dtype
        self.b[:] = bitslice(keys, dtype=dt)
        iv_planes = bitslice(ivs, dtype=dt)
        self.s[:IV_BITS] = iv_planes
        self.s[IV_BITS:] = np.iinfo(dt).max
        for _ in range(INIT_CLOCKS):
            z = self._output_plane()
            self._shift(extra_feedback=z)
        self._loaded = True

    def seed(self, seed: int, *, shared_key: bool = True, lane_offset: int = 0) -> "BitslicedGrain":
        """Derive per-lane key/IV material from one integer seed."""
        keys, ivs = derive_lane_material(
            seed,
            self.engine.n_lanes,
            key_bits=KEY_BITS,
            iv_bits=IV_BITS,
            shared_key=shared_key,
            lane_offset=lane_offset,
        )
        self.load(keys, ivs)
        return self

    # -- one bank clock ---------------------------------------------------------
    def _output_plane(self) -> np.ndarray:
        s, b = self.s, self.b
        x0, x1, x2, x3, x4 = s[3], s[25], s[46], s[64], b[63]
        x02 = x0 & x2
        z = (
            x1
            ^ x4
            ^ (x0 & x3)
            ^ (x2 & x3)
            ^ (x3 & x4)
            ^ (x02 & x1)
            ^ (x02 & x3)
            ^ (x02 & x4)
            ^ (x1 & x2 & x4)
            ^ (x2 & x3 & x4)
        )
        for k in OUTPUT_TAPS:
            z = z ^ b[k]
        return z

    def _g_plane(self) -> np.ndarray:
        b = self.b
        t6052 = b[60] & b[52]
        t3328 = b[33] & b[28]
        t6360 = b[63] & b[60]
        lin = b[62] ^ b[60] ^ b[52] ^ b[45] ^ b[37] ^ b[33] ^ b[28] ^ b[21] ^ b[14] ^ b[9] ^ b[0]
        non = (
            t6360
            ^ (b[37] & b[33])
            ^ (b[15] & b[9])
            ^ (t6052 & b[45])
            ^ (t3328 & b[21])
            ^ (b[63] & b[45] & b[28] & b[9])
            ^ (t6052 & b[37] & b[33])
            ^ (t6360 & b[21] & b[15])
            ^ (t6052 & t6360 & b[45] & b[37])
            ^ (t3328 & b[21] & b[15] & b[9])
            ^ (b[52] & b[45] & b[37] & t3328 & b[21])
        )
        return lin ^ non

    def _shift(self, extra_feedback: np.ndarray | None = None) -> None:
        s, b = self.s, self.b
        fs = s[LFSR_TAPS[0]].copy()
        for t in LFSR_TAPS[1:]:
            fs ^= s[t]
        fb = s[0] ^ self._g_plane()
        if extra_feedback is not None:
            fs ^= extra_feedback
            fb ^= extra_feedback
        s[:-1] = s[1:]
        s[-1] = fs
        b[:-1] = b[1:]
        b[-1] = fb
        for kind, n in _GATES_PER_CLOCK.items():
            if n:
                self.engine.counter.add(kind, n)

    # -- keystream --------------------------------------------------------------
    def _require_loaded(self) -> None:
        if not self._loaded:
            raise KeyScheduleError("cipher bank must be loaded/seeded before generating")

    def next_planes(self, n_rows: int, *, out: np.ndarray | None = None) -> np.ndarray:
        """Emit ``(n_rows, n_words)`` keystream planes via the staging buffer.

        With ``engine.fused`` the rows come from the compiled K-clock
        kernel (bit-identical stream, same gate accounting).  An explicit
        *out* array/view is filled in place and returned.
        """
        self._require_loaded()
        if out is None:
            out = np.empty((n_rows, self.engine.n_words), dtype=self.engine.dtype)
        if getattr(self.engine, "fused", False):
            from repro.codegen.fused import fused_generate

            fused_generate(self, "grain", n_rows, out)
            for kind, n in _GATES_PER_CLOCK.items():
                if n:
                    self.engine.counter.add(kind, n * n_rows)
            return out
        stage = self.engine.make_stage()
        row = 0
        for _ in range(n_rows):
            z = self._output_plane()
            self._shift()
            row = stage.push(z, out, row)
        stage.drain(out, row)
        return out

    def keystream_bits(self, n_bits: int) -> np.ndarray:
        """Per-lane keystream: ``(n_lanes, n_bits)`` bit matrix."""
        return unbitslice(self.next_planes(n_bits), self.engine.n_lanes)

    def gates_per_output_bit(self) -> float:
        """Logic gates per keystream bit per lane (feeds the GPU model)."""
        g = _GATES_PER_CLOCK
        return float(g["xor"] + g["and_"] + g["or_"] + g["not_"])
