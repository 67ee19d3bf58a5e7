"""Cyclic redundancy checks, bit-serial and bitsliced (paper §4.2).

The paper's second demonstration of the column-major representation: a
CRC shift register processed for many independent data streams at once,
with the per-cycle shift/mask work replaced by register renaming.
"""

from repro.crc.bitsliced import BitslicedCRC
from repro.crc.serial import (
    CRC8_ATM,
    CRC16_CCITT,
    CRC32_IEEE,
    SerialCRC,
    crc_table_lookup,
)

__all__ = [
    "SerialCRC",
    "BitslicedCRC",
    "CRC8_ATM",
    "CRC16_CCITT",
    "CRC32_IEEE",
    "crc_table_lookup",
]
