"""Bitsliced AES-128-CTR over the virtual SIMD engine.

The cipher state becomes 128 planes — byte ``i`` (FIPS order, ``i = 4*col
+ row``), bit ``b`` — each holding that bit for every lane.  The four
round operations map onto the bitsliced representation as the paper
sketches (§2.3.2):

* **SubBytes** — the only nonlinear step — runs a gate circuit
  *synthesized from the S-box truth table* (ANF + shared monomials,
  :mod:`repro.codegen.anf`), evaluated across all 16 bytes and all lanes
  at once.  Its large gate count is precisely why the paper's AES trails
  the stream ciphers ("the complex bitsliced S-box", §5.2) — our model
  reads that gate count straight from this circuit.
* **ShiftRows** — a pure byte-plane permutation (register renaming).
* **MixColumns** — xtime at bit level: 4 XORs per byte (the ``0x1B``
  reduction), no table lookups.
* **AddRoundKey** — key bits are lane-constant in CTR mode, so the round
  key degenerates to conditional complement of plane rows.

Counter mode: lane ``j`` of batch ``t`` encrypts ``nonce64 || (base +
j + t * n_lanes)`` — the same keyspace partitioning the paper's
multi-GPU §5.4 splits across devices.
"""

from __future__ import annotations

import numpy as np

from repro.ciphers.aes import AES128, SBOX, _coerce_key
from repro.codegen.anf import circuit_from_truth_tables, sbox_truth_tables
from repro.core.bitslice import bitslice_bytes, unbitslice_bytes
from repro.core.engine import BitslicedEngine
from repro.core.seeding import expand_seed_words
from repro.errors import KeyScheduleError, SpecificationError

__all__ = ["BitslicedAESCTR", "sbox_circuit"]

_SBOX_CACHE: dict = {}


def sbox_circuit():
    """The synthesized AES S-box circuit (cached; built on first use)."""
    if "circuit" not in _SBOX_CACHE:
        circuit = circuit_from_truth_tables(
            sbox_truth_tables(SBOX),
            input_names=[f"x{i}" for i in range(8)],
            output_names=[f"y{i}" for i in range(8)],
        )
        _SBOX_CACHE["circuit"] = circuit
        _SBOX_CACHE["compiled"] = circuit.compile()
    return _SBOX_CACHE["circuit"]


def _sbox_compiled():
    sbox_circuit()
    return _SBOX_CACHE["compiled"]


# ShiftRows byte-plane permutation: new[4c + r] = old[4((c + r) % 4) + r].
_SHIFT_ROWS_PERM = np.array([4 * ((c + r) % 4) + r for c in range(4) for r in range(4)])


def _xtime_planes(u: np.ndarray) -> np.ndarray:
    """GF(2^8) multiply-by-2 on a (..., 8, n_words) plane stack."""
    v = np.empty_like(u)
    hi = u[..., 7, :]
    v[..., 0, :] = hi
    v[..., 1, :] = u[..., 0, :] ^ hi
    v[..., 2, :] = u[..., 1, :]
    v[..., 3, :] = u[..., 2, :] ^ hi
    v[..., 4, :] = u[..., 3, :] ^ hi
    v[..., 5, :] = u[..., 4, :]
    v[..., 6, :] = u[..., 5, :]
    v[..., 7, :] = u[..., 6, :]
    return v


class BitslicedAESCTR:
    """A bank of ``engine.n_lanes`` AES-128-CTR keystream generators.

    All lanes share one key (CTR security rests on distinct counters);
    lane separation comes from the counter value itself.
    """

    name = "aes128ctr"
    key_bits = 128
    iv_bits = 64
    state_bits = 128
    #: Keystream rows come in whole CTR batches of 128 planes; callers
    #: that preallocate output (the threaded lane bank) round up to this.
    rows_granularity = 128

    def __init__(self, engine: BitslicedEngine | None = None) -> None:
        self.engine = engine if engine is not None else BitslicedEngine()
        self._sbox = _sbox_compiled()
        self._sbox_gates = sbox_circuit().gate_counts()
        self._key_loaded = False
        self._nonce = np.uint64(0)
        self._counter_base = np.uint64(0)
        self._counter_stride = np.uint64(self.engine.n_lanes)
        self._blocks_done = 0

    # -- loading ------------------------------------------------------------
    def load(self, key, nonce: int = 0, counter_start: int = 0) -> None:
        """Set the shared key, the 64-bit nonce and the counter origin."""
        key = _coerce_key(key)
        rks = AES128._expand_key(key)  # (11, 16) bytes
        # Precompute per-round boolean masks of which (byte, bit) planes flip.
        self._rk_masks = [
            np.unpackbits(rk.reshape(16, 1), axis=1, bitorder="little").astype(bool)
            for rk in rks
        ]
        self._nonce = np.uint64(nonce & 0xFFFFFFFFFFFFFFFF)
        self._counter_base = np.uint64(counter_start & 0xFFFFFFFFFFFFFFFF)
        self._counter_stride = np.uint64(self.engine.n_lanes)
        self._blocks_done = 0
        self._key_loaded = True
        # Fused-kernel contexts embed the round-key flip indices, which
        # just changed — drop them so the next fused call rebuilds.
        self._fused_ctx = {}

    def seed(
        self,
        seed: int,
        *,
        shared_key: bool = True,
        lane_offset: int = 0,
        counter_stride: int | None = None,
    ) -> "BitslicedAESCTR":
        """Derive key and nonce from one integer seed.

        All lanes always share the key (CTR security rests on distinct
        counters; ``shared_key`` exists for interface parity with the
        LFSR banks).  ``lane_offset`` shifts this bank's counter window
        so lane ``i`` equals lane ``lane_offset + i`` of a wider bank,
        and ``counter_stride`` sets the counter advance per batch — a
        column-split sub-bank passes the *full* bank's lane count so its
        batches interleave exactly like the full bank's (§5.4's counter
        partitioning applied inside one process).
        """
        if not shared_key:
            raise SpecificationError("AES-CTR lanes always share the key")
        if lane_offset < 0:
            raise SpecificationError("lane_offset must be non-negative")
        words = expand_seed_words(seed, 3, stream=3)
        key_bytes = words[:2].view(np.uint8).copy()
        self.load(key_bytes, nonce=int(words[2]), counter_start=lane_offset)
        if counter_stride is not None:
            if counter_stride < self.engine.n_lanes:
                raise SpecificationError("counter_stride must cover this bank's lanes")
            self._counter_stride = np.uint64(counter_stride)
        return self

    # -- the round function on (16, 8, n_words) plane stacks --------------------
    def _add_round_key(self, state: np.ndarray, rnd: int) -> None:
        mask = self._rk_masks[rnd]
        state[mask] = ~state[mask]
        self.engine.counter.add("xor", int(mask.sum()))

    def _sub_bytes(self, state: np.ndarray) -> np.ndarray:
        out = self._sbox(*(state[:, i, :] for i in range(8)))
        new = np.empty_like(state)
        for i in range(8):
            new[:, i, :] = out[f"y{i}"]
        self.engine.counter.add("xor", 16 * self._sbox_gates["xor"])
        self.engine.counter.add("and_", 16 * self._sbox_gates["and"])
        self.engine.counter.add("or_", 16 * self._sbox_gates["or"])
        self.engine.counter.add("not_", 16 * self._sbox_gates["not"])
        return new

    def _mix_columns(self, state: np.ndarray) -> np.ndarray:
        cols = state.reshape(4, 4, 8, -1)  # (col, row, bit, words)
        t = cols[:, 0] ^ cols[:, 1] ^ cols[:, 2] ^ cols[:, 3]  # (col, 8, words)
        out = np.empty_like(cols)
        for r in range(4):
            out[:, r] = cols[:, r] ^ t ^ _xtime_planes(cols[:, r] ^ cols[:, (r + 1) % 4])
        # xors: t(3*8) + per-row (8 + 8 + xtime-input 8 + xtime 4) per column
        self.engine.counter.add("xor", 4 * (24 + 4 * 28))
        return out.reshape(state.shape)

    def _encrypt_planes(self, state: np.ndarray) -> np.ndarray:
        """Run the 10 AES rounds on a (16, 8, n_words) plane stack in place."""
        self._add_round_key(state, 0)
        for rnd in range(1, 10):
            state = self._sub_bytes(state)
            state = state.reshape(16, -1)[_SHIFT_ROWS_PERM].reshape(16, 8, -1)
            state = self._mix_columns(state)
            self._add_round_key(state, rnd)
        state = self._sub_bytes(state)
        state = state.reshape(16, -1)[_SHIFT_ROWS_PERM].reshape(16, 8, -1)
        self._add_round_key(state, 10)
        return state

    # -- counter plumbing ----------------------------------------------------------
    def _counter_block_bytes(self, batch_index: int) -> np.ndarray:
        """Per-lane 16-byte blocks ``nonce64 (BE) || counter64 (BE)``."""
        n = self.engine.n_lanes
        ctr = (
            self._counter_base
            + np.uint64(batch_index) * self._counter_stride
            + np.arange(n, dtype=np.uint64)
        )
        blocks = np.empty((n, 16), dtype=np.uint8)
        blocks[:, :8] = np.frombuffer(int(self._nonce).to_bytes(8, "big"), dtype=np.uint8)
        blocks[:, 8:] = ctr.astype(">u8").view(np.uint8).reshape(n, 8)
        return blocks

    # -- keystream -----------------------------------------------------------------
    def _require_loaded(self) -> None:
        if not self._key_loaded:
            raise KeyScheduleError("AES bank must be loaded/seeded before generating")

    def next_block_planes(self) -> np.ndarray:
        """One CTR batch → ``(128, n_words)`` keystream planes."""
        self._require_loaded()
        blocks = self._counter_block_bytes(self._blocks_done)
        self._blocks_done += 1
        planes = bitslice_bytes(blocks, dtype=self.engine.dtype)
        state = planes.reshape(16, 8, -1)
        return self._encrypt_planes(state).reshape(128, -1)

    def skip_rows(self, n_rows: int) -> None:
        """O(1) counter-space seek past ``n_rows`` keystream planes.

        CTR mode's defining property (and why §5.4 partitions the counter
        space across GPUs): jumping ahead is a counter add, not a
        regeneration.  Only whole 128-plane batches can be skipped.
        """
        self._require_loaded()
        if n_rows % 128:
            raise SpecificationError("AES-CTR seek granularity is 128 planes")
        self._blocks_done += n_rows // 128

    def _count_batch_gates(self, n_batches: int) -> None:
        """Gate tallies for *n_batches* fused CTR batches (mirrors the
        per-op accounting of the unfused round functions)."""
        ark = sum(int(m.sum()) for m in self._rk_masks)
        self.engine.counter.add("xor", n_batches * (ark + 9 * 4 * (24 + 4 * 28)))
        self.engine.counter.add("xor", n_batches * 10 * 16 * self._sbox_gates["xor"])
        self.engine.counter.add("and_", n_batches * 10 * 16 * self._sbox_gates["and"])
        self.engine.counter.add("or_", n_batches * 10 * 16 * self._sbox_gates["or"])
        self.engine.counter.add("not_", n_batches * 10 * 16 * self._sbox_gates["not"])

    def next_planes(self, n_rows: int, *, out: np.ndarray | None = None) -> np.ndarray:
        """Emit ``(n_rows, n_words)`` keystream planes (multiples of 128
        are generated; the tail batch is truncated).

        With ``engine.fused`` the batches come from the compiled kernel
        (in-place S-box circuit, view-based rounds) — bit-identical.  An
        explicit *out* must hold the whole-batch row count (``n_rows``
        rounded up to :attr:`rows_granularity`).
        """
        self._require_loaded()
        batches = -(-n_rows // 128)
        if out is None:
            out = np.empty((batches * 128, self.engine.n_words), dtype=self.engine.dtype)
        elif out.shape[0] < batches * 128:
            raise SpecificationError(
                f"out must hold {batches * 128} rows (whole CTR batches), got {out.shape[0]}"
            )
        if getattr(self.engine, "fused", False):
            from repro.codegen.fused import fused_generate

            fused_generate(self, "aes128ctr", batches, out)
            self._count_batch_gates(batches)
            return out[:n_rows]
        for i in range(batches):
            out[128 * i : 128 * (i + 1)] = self.next_block_planes()
        return out[:n_rows]

    def keystream_bytes_per_lane(self, n_blocks: int) -> np.ndarray:
        """Per-lane keystream bytes: ``(n_lanes, 16 * n_blocks)`` uint8."""
        self._require_loaded()
        chunks = []
        for _ in range(n_blocks):
            planes = self.next_block_planes()
            chunks.append(unbitslice_bytes(planes, self.engine.n_lanes))
        return np.concatenate(chunks, axis=1)

    def keystream_bits(self, n_bits: int) -> np.ndarray:
        """Per-lane keystream bits: ``(n_lanes, n_bits)`` (little bit order
        within each byte, matching :mod:`repro.bitio`)."""
        n_blocks = -(-n_bits // 128)
        per_lane = self.keystream_bytes_per_lane(n_blocks)
        bits = np.unpackbits(per_lane, axis=1, bitorder="little")
        return bits[:, :n_bits]

    def gates_per_output_bit(self) -> float:
        """Logic gates per keystream bit per lane, from the live circuits."""
        sbox_total = self._sbox_gates["total"]
        per_round = 16 * sbox_total + 4 * (24 + 4 * 28) + 64  # sub + mix + ark avg
        total = 10 * per_round + 64  # + initial whitening
        return total / 128.0
