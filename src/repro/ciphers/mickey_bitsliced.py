"""Bitsliced MICKEY 2.0 (paper §4.4, Fig. 9).

Instead of two 100-bit registers, the state is 200 *planes*: ``R[i]`` and
``S[i]`` each hold bit ``i`` of every lane's register, packed into machine
words.  One clock of the whole bank is a handful of full-width vector
gates:

* the register shifts are plane renumbering (vectorized row moves),
* the spec's "if control_bit / if feedback" branches become branch-free
  AND/XOR masks, because every lane may take a different branch — the
  irregular clocking that makes MICKEY "not so straightforward" to
  parallelise is exactly what bitslicing absorbs for free,
* COMP0/COMP1/FB0/FB1 are constant per plane row, so they compile to
  constant all-ones/all-zero word columns.

Cross-validated lane-by-lane against :class:`repro.ciphers.mickey.Mickey2`.
"""

from __future__ import annotations

import numpy as np

from repro.bitio.bits import as_bit_array
from repro.ciphers._mickey_tables import COMP0_BITS, COMP1_BITS, FB0_BITS, FB1_BITS, R_TAPS_BITS
from repro.ciphers.mickey import KEY_BITS, MAX_IV_BITS, STATE_BITS
from repro.core.bitslice import bitslice, unbitslice
from repro.core.engine import BitslicedEngine
from repro.core.seeding import derive_lane_material
from repro.errors import KeyScheduleError

__all__ = ["BitslicedMickey2"]


def _const_column(bits: np.ndarray, n_words: int, dtype) -> np.ndarray:
    """Expand a constant bit sequence to (n_bits, n_words) full/zero words."""
    fill = np.asarray(np.iinfo(dtype).max, dtype=dtype)
    col = np.zeros((bits.size, n_words), dtype=dtype)
    col[bits.astype(bool)] = fill
    return col


class BitslicedMickey2:
    """A bank of ``engine.n_lanes`` independent MICKEY 2.0 generators.

    Parameters
    ----------
    engine:
        The virtual SIMD engine fixing lane count and word dtype.  Default:
        a fresh 4096-lane ``uint64`` engine.
    """

    name = "mickey2"
    key_bits = KEY_BITS
    iv_bits = MAX_IV_BITS
    state_bits = 2 * STATE_BITS

    def __init__(self, engine: BitslicedEngine | None = None) -> None:
        self.engine = engine if engine is not None else BitslicedEngine()
        nw, dt = self.engine.n_words, self.engine.dtype
        self.R = np.zeros((STATE_BITS, nw), dtype=dt)
        self.S = np.zeros((STATE_BITS, nw), dtype=dt)
        self._rn = np.empty_like(self.R)
        self._sn = np.empty_like(self.S)
        self._mid = np.empty((STATE_BITS - 2, nw), dtype=dt)
        self._mid2 = np.empty_like(self._mid)
        self._sel = np.empty((STATE_BITS, nw), dtype=dt)
        self._rtap_idx = np.flatnonzero(R_TAPS_BITS)
        self._comp0 = _const_column(COMP0_BITS[1:99], nw, dt)
        self._comp1 = _const_column(COMP1_BITS[1:99], nw, dt)
        self._fb0 = _const_column(FB0_BITS, nw, dt)
        self._fb1 = _const_column(FB1_BITS, nw, dt)
        self._zero = self.engine.zeros()
        self._loaded = False
        # Gate cost of one bank clock, per lane (counted once; the spec's
        # conditionals are unconditional masked ops here).  Used both for
        # the accounting below and by the GPU roofline model.
        self._gates_per_clock = {
            "xor": (
                2          # control bits
                + 2        # feedback bits (r, s)
                + STATE_BITS      # R control mix
                + int(self._rtap_idx.size)  # R tap injection
                + 2 * (STATE_BITS - 2)      # S comp0/comp1 "xors" (const)
                + (STATE_BITS - 2)          # s_hat accumulate
                + STATE_BITS                # S feedback injection
                + 1        # output bit
            ),
            "and_": (STATE_BITS + (STATE_BITS - 2) + 2 * STATE_BITS + STATE_BITS),
            "or_": STATE_BITS,
            "not_": 1,
        }

    # -- loading ---------------------------------------------------------------
    def load(self, keys, ivs=None) -> None:
        """Load per-lane key/IV bit matrices and run the spec's init.

        ``keys`` must be ``(n_lanes, 80)``; ``ivs`` may be ``None`` (no IV)
        or ``(n_lanes, v)`` with ``v <= 80``.  All lanes are clocked in
        lockstep — the input *bit* differs per lane via its plane.
        """
        keys = as_bit_array(keys)
        n_lanes = self.engine.n_lanes
        if keys.shape != (n_lanes, KEY_BITS):
            raise KeyScheduleError(f"keys must be ({n_lanes}, {KEY_BITS}), got {keys.shape}")
        if ivs is not None:
            ivs = as_bit_array(ivs)
            if ivs.ndim != 2 or ivs.shape[0] != n_lanes or ivs.shape[1] > MAX_IV_BITS:
                raise KeyScheduleError(
                    f"ivs must be ({n_lanes}, <= {MAX_IV_BITS}), got {getattr(ivs, 'shape', None)}"
                )
        self.R[:] = 0
        self.S[:] = 0
        dt = self.engine.dtype
        if ivs is not None and ivs.shape[1]:
            iv_planes = bitslice(ivs, dtype=dt)
            for i in range(iv_planes.shape[0]):
                self._clock_kg(iv_planes[i], mixing=True)
        key_planes = bitslice(keys, dtype=dt)
        for i in range(KEY_BITS):
            self._clock_kg(key_planes[i], mixing=True)
        for _ in range(STATE_BITS):
            self._clock_kg(self._zero, mixing=True)
        self._loaded = True

    def seed(self, seed: int, *, shared_key: bool = True, lane_offset: int = 0) -> "BitslicedMickey2":
        """Derive per-lane key/IV material from one integer seed.

        Follows the paper's usage: one key shared by all lanes and a
        distinct expanded IV per lane (MICKEY permits 2^40 IVs per key;
        our lane counts are far below that bound).
        """
        keys, ivs = derive_lane_material(
            seed,
            self.engine.n_lanes,
            key_bits=KEY_BITS,
            iv_bits=MAX_IV_BITS,
            shared_key=shared_key,
            lane_offset=lane_offset,
        )
        self.load(keys, ivs)
        return self

    # -- one bank clock ----------------------------------------------------------
    def _clock_kg(self, input_plane: np.ndarray, *, mixing: bool) -> None:
        R, S = self.R, self.S
        ctrl_r = S[34] ^ R[67]
        ctrl_s = S[67] ^ R[33]
        input_r = input_plane ^ S[50] if mixing else input_plane
        fb_r = R[99] ^ input_r
        fb_s = S[99] ^ input_plane

        # R' = shift(R) ^ (ctrl_r & R) ^ (RTAPS & fb_r)
        rn = self._rn
        rn[0] = 0
        rn[1:] = R[:-1]
        np.bitwise_xor(rn, R & ctrl_r, out=rn)
        rn[self._rtap_idx] ^= fb_r

        # S^ then S' = S^ ^ (feedback & (ctrl ? FB1 : FB0))
        sn = self._sn
        mid, mid2 = self._mid, self._mid2
        np.bitwise_xor(S[1:99], self._comp0, out=mid)
        np.bitwise_xor(S[2:100], self._comp1, out=mid2)
        np.bitwise_and(mid, mid2, out=mid)
        np.bitwise_xor(S[0:98], mid, out=sn[1:99])
        sn[0] = 0
        sn[99] = S[98]
        sel = self._sel
        np.bitwise_and(self._fb0, ~ctrl_s, out=sel)
        np.bitwise_or(sel, self._fb1 & ctrl_s, out=sel)
        np.bitwise_and(sel, fb_s, out=sel)
        np.bitwise_xor(sn, sel, out=sn)

        # commit (buffer swap: the old state arrays become next scratch)
        self.R, self._rn = rn, R
        self.S, self._sn = sn, S
        for kind, n in self._gates_per_clock.items():
            self.engine.counter.add(kind, n)

    # -- keystream -----------------------------------------------------------------
    def _require_loaded(self) -> None:
        if not self._loaded:
            raise KeyScheduleError("cipher bank must be loaded/seeded before generating")

    def output_plane(self) -> np.ndarray:
        """Current keystream plane z = r0 ^ s0 (does not clock)."""
        self._require_loaded()
        return self.R[0] ^ self.S[0]

    def next_planes(self, n_rows: int, *, out: np.ndarray | None = None) -> np.ndarray:
        """Emit ``(n_rows, n_words)`` keystream planes (row = one clock).

        Output rows pass through the engine's staging buffer, mirroring
        the shared-memory write path of §4.5.  An explicit *out* (any
        writable ``(>= n_rows, n_words)`` array or view — the threaded
        lane-bank passes column slices of a shared buffer) is filled in
        place and returned instead of a fresh allocation.
        """
        self._require_loaded()
        if out is None:
            out = np.empty((n_rows, self.engine.n_words), dtype=self.engine.dtype)
        if getattr(self.engine, "fused", False):
            from repro.codegen.fused import fused_generate

            fused_generate(self, "mickey2", n_rows, out)
            for kind, n in self._gates_per_clock.items():
                self.engine.counter.add(kind, n * n_rows)
            return out
        stage = self.engine.make_stage()
        row = 0
        for _ in range(n_rows):
            z = self.R[0] ^ self.S[0]
            self._clock_kg(self._zero, mixing=False)
            row = stage.push(z, out, row)
        stage.drain(out, row)
        return out

    def keystream_bits(self, n_bits: int) -> np.ndarray:
        """Per-lane keystream: ``(n_lanes, n_bits)`` bit matrix."""
        planes = self.next_planes(n_bits)
        return unbitslice(planes, self.engine.n_lanes)

    def gates_per_output_bit(self) -> float:
        """Logic gates per keystream bit per lane (feeds the GPU model)."""
        g = self._gates_per_clock
        return float(g["xor"] + g["and_"] + g["or_"] + g["not_"])
