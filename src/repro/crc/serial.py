"""Bit-serial CRC (the paper's Fig. 5 "naive implementation").

The register holds the running remainder; each input bit costs a shift,
a mask and a conditional XOR of the polynomial — exactly the per-bit
work pattern bitslicing eliminates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bitio.bits import as_bit_array
from repro.errors import SpecificationError

__all__ = [
    "CRCSpec",
    "SerialCRC",
    "CRC8_ATM",
    "CRC16_CCITT",
    "CRC32_IEEE",
    "crc_table_lookup",
]


@dataclass(frozen=True)
class CRCSpec:
    """Width and polynomial of a CRC (MSB-first, non-reflected form)."""

    name: str
    width: int
    poly: int  # without the leading x^width term
    init: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.width <= 64:
            raise SpecificationError("CRC width must be in [1, 64]")
        if self.poly >> self.width:
            raise SpecificationError("polynomial does not fit the width")


#: CRC-8-ATM (x^8 + x^2 + x + 1) — the paper's Fig. 5/6 example uses an
#: 8-bit register with low-order taps; this is the standard such code.
CRC8_ATM = CRCSpec("CRC-8-ATM", 8, 0x07)
CRC16_CCITT = CRCSpec("CRC-16-CCITT", 16, 0x1021, init=0xFFFF)
CRC32_IEEE = CRCSpec("CRC-32-IEEE", 32, 0x04C11DB7, init=0xFFFFFFFF)


class SerialCRC:
    """One CRC register, clocked one message bit at a time (msb-first)."""

    def __init__(self, spec: CRCSpec = CRC8_ATM) -> None:
        self.spec = spec
        self.reset()

    def reset(self) -> None:
        """Restore the spec's init value."""
        self.state = self.spec.init

    def feed_bit(self, bit: int) -> None:
        """Shift one message bit into the register."""
        top = (self.state >> (self.spec.width - 1)) & 1
        self.state = (self.state << 1) & ((1 << self.spec.width) - 1)
        if top ^ (bit & 1):
            self.state ^= self.spec.poly

    def feed_bits(self, bits) -> int:
        """Shift a whole bit sequence through; returns the state."""
        for b in as_bit_array(bits):
            self.feed_bit(int(b))
        return self.state

    def checksum(self, bits) -> int:
        """CRC of a complete message (resets first)."""
        self.reset()
        return self.feed_bits(bits)


def _byte_table(spec: CRCSpec) -> list[int]:
    """The 256-entry byte-at-a-time stepping table for *spec*."""
    if spec.width < 8:
        raise SpecificationError("table driver supports width >= 8")
    mask = (1 << spec.width) - 1
    table = []
    for byte in range(256):
        reg = byte << (spec.width - 8)
        for _ in range(8):
            top = (reg >> (spec.width - 1)) & 1
            reg = (reg << 1) & mask
            if top:
                reg ^= spec.poly
        table.append(reg)
    return table


def crc_table_lookup(spec: CRCSpec, data: np.ndarray) -> np.ndarray:
    """Byte-at-a-time table CRC over many messages (oracle for tests).

    ``data`` is ``(n_messages, n_bytes)`` uint8; bits are consumed
    msb-first within each byte.  Returns ``(n_messages,)`` checksums.
    """
    data = np.asarray(data, dtype=np.uint8)
    if data.ndim != 2:
        raise SpecificationError("expected (n_messages, n_bytes)")
    table = np.array(_byte_table(spec), dtype=np.uint64)
    mask = (1 << spec.width) - 1
    out = np.full(data.shape[0], spec.init, dtype=np.uint64)
    shift = np.uint64(spec.width - 8)
    m = np.uint64(mask)
    for j in range(data.shape[1]):
        idx = ((out >> shift) ^ data[:, j]).astype(np.uint64) & np.uint64(0xFF)
        out = ((out << np.uint64(8)) & m) ^ table[idx]
    return out
