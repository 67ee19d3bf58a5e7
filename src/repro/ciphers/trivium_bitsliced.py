"""Bitsliced Trivium over the virtual SIMD engine.

State is 288 planes; one bank clock is eleven full-width XORs and three
ANDs — by far the cheapest gates-per-bit of the implemented ciphers,
which is why Trivium tops the measured software throughput chart.  The
three register shifts are vectorized row moves (the rotating-file variant
is exercised by the LFSR ablation; contiguous moves win in NumPy).

Cross-validated lane-by-lane against :class:`repro.ciphers.trivium.Trivium`.
"""

from __future__ import annotations

import numpy as np

from repro.bitio.bits import as_bit_array
from repro.ciphers.trivium import (
    INIT_CLOCKS,
    IV_BITS,
    KEY_BITS,
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
from repro.core.bitslice import bitslice, unbitslice
from repro.core.engine import BitslicedEngine
from repro.core.seeding import derive_lane_material
from repro.errors import KeyScheduleError

__all__ = ["BitslicedTrivium"]

#: Gate counts of one bank clock, per lane: t1/t2/t3 (3 XOR), z (2 XOR),
#: feedback (3 x 2 XOR + 3 AND).
_GATES_PER_CLOCK = {"xor": 11, "and_": 3, "or_": 0, "not_": 0}


class BitslicedTrivium:
    """A bank of ``engine.n_lanes`` independent Trivium generators."""

    name = "trivium"
    key_bits = KEY_BITS
    iv_bits = IV_BITS
    state_bits = STATE_BITS

    def __init__(self, engine: BitslicedEngine | None = None) -> None:
        self.engine = engine if engine is not None else BitslicedEngine()
        self.s = np.zeros((STATE_BITS, self.engine.n_words), dtype=self.engine.dtype)
        self._loaded = False

    # -- loading -------------------------------------------------------------
    def load(self, keys, ivs) -> None:
        """Load ``(n_lanes, 80)`` keys and ``(n_lanes, 80)`` IVs, then init."""
        keys = as_bit_array(keys)
        ivs = as_bit_array(ivs)
        n_lanes = self.engine.n_lanes
        if keys.shape != (n_lanes, KEY_BITS):
            raise KeyScheduleError(f"keys must be ({n_lanes}, {KEY_BITS}), got {keys.shape}")
        if ivs.shape != (n_lanes, IV_BITS):
            raise KeyScheduleError(f"ivs must be ({n_lanes}, {IV_BITS}), got {ivs.shape}")
        dt = self.engine.dtype
        self.s[:] = 0
        self.s[:KEY_BITS] = bitslice(keys, dtype=dt)
        self.s[_B_HEAD : _B_HEAD + IV_BITS] = bitslice(ivs, dtype=dt)
        self.s[285:288] = np.iinfo(dt).max
        for _ in range(INIT_CLOCKS):
            self._clock_plane()
        self._loaded = True

    def seed(self, seed: int, *, shared_key: bool = True, lane_offset: int = 0) -> "BitslicedTrivium":
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
    def _clock_plane(self) -> np.ndarray:
        s = self.s
        t1 = s[_T1_TAPS[0]] ^ s[_T1_TAPS[1]]
        t2 = s[_T2_TAPS[0]] ^ s[_T2_TAPS[1]]
        t3 = s[_T3_TAPS[0]] ^ s[_T3_TAPS[1]]
        z = t1 ^ t2 ^ t3
        t1 ^= (s[_T1_AND[0]] & s[_T1_AND[1]]) ^ s[_T1_FWD]
        t2 ^= (s[_T2_AND[0]] & s[_T2_AND[1]]) ^ s[_T2_FWD]
        t3 ^= (s[_T3_AND[0]] & s[_T3_AND[1]]) ^ s[_T3_FWD]
        s[1:_B_HEAD] = s[: _B_HEAD - 1]
        s[_B_HEAD + 1 : _C_HEAD] = s[_B_HEAD : _C_HEAD - 1]
        s[_C_HEAD + 1 :] = s[_C_HEAD:-1]
        s[0] = t3
        s[_B_HEAD] = t1
        s[_C_HEAD] = t2
        for kind, n in _GATES_PER_CLOCK.items():
            if n:
                self.engine.counter.add(kind, n)
        return z

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

            fused_generate(self, "trivium", n_rows, out)
            for kind, n in _GATES_PER_CLOCK.items():
                if n:
                    self.engine.counter.add(kind, n * n_rows)
            return out
        stage = self.engine.make_stage()
        row = 0
        for _ in range(n_rows):
            row = stage.push(self._clock_plane(), out, row)
        stage.drain(out, row)
        return out

    def keystream_bits(self, n_bits: int) -> np.ndarray:
        """Per-lane keystream: ``(n_lanes, n_bits)`` bit matrix."""
        return unbitslice(self.next_planes(n_bits), self.engine.n_lanes)

    def gates_per_output_bit(self) -> float:
        """Logic gates per keystream bit per lane (feeds the GPU model)."""
        g = _GATES_PER_CLOCK
        return float(g["xor"] + g["and_"] + g["or_"] + g["not_"])
