"""Single-touch output accounting: CRC-32 receipt + SP 800-90B bit census.

Before this module, a generated block was read three times on its way
out: once to pack it into the output buffer, once by the CRC-32 receipt
(:func:`repro.robust.supervisor.payload_crc`), and once by the health
layer's bit counting.  By the second and third pass the block has long
fallen out of cache, so each extra read costs full memory bandwidth —
on the measured box that is the difference between a kernel-bound and a
bandwidth-bound output path.

:class:`StreamTouch` folds the two accounting passes into the moment
the bytes are already hot: :meth:`BSRNG._take_bytes
<repro.core.generator.BSRNG.read_with_receipt>` invokes it
chunk-by-chunk right after each buffer copy, so a draw receipt rides
along with the draw itself.

The CRC here is *bit-identical* to ``payload_crc`` /
``table_crc_bytes(CRC32_IEEE, data)``: an MSB-first CRC-32-IEEE equals
the bit-reversal of zlib's reflected register over bit-reversed message
bytes, and ``zlib.crc32``'s running-value form makes that relation
incremental (``crc32(a + b) == crc32(b, crc32(a))``), so chunked
accumulation reproduces the one-shot checksum exactly.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

__all__ = ["StreamTouch", "Receipt"]

#: Bit-reversal of each byte value, as a ``bytes.translate`` table — maps
#: the repo's MSB-first CRC convention onto zlib's reflected (LSB-first)
#: register.  Same table as :mod:`repro.crc.serial`; duplicated here so
#: the core package stays import-light (no circular dependency on the crc
#: package).
_BITREV8 = bytes(int(f"{i:08b}"[::-1], 2) for i in range(256))

#: Population count of each byte value, for the 800-90B-style bit census.
_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)


def _as_flat_u8(data) -> np.ndarray:
    """Any bytes-like or ndarray → flat contiguous uint8 view (no copy
    when the input is already C-contiguous)."""
    if isinstance(data, (bytes, bytearray, memoryview)):
        return np.frombuffer(data, dtype=np.uint8)
    arr = np.ascontiguousarray(data)
    return arr.view(np.uint8).reshape(-1)


@dataclass(frozen=True)
class Receipt:
    """Immutable snapshot of a :class:`StreamTouch`'s accounting."""

    crc: int  #: MSB-first CRC-32-IEEE — equals ``payload_crc`` of the bytes
    nbytes: int  #: bytes accounted
    ones: int  #: set bits among them (SP 800-90B monobit census)

    @property
    def ones_fraction(self) -> float:
        """Fraction of set bits; 0.5 for an unbiased source."""
        return self.ones / (8 * self.nbytes) if self.nbytes else float("nan")


class StreamTouch:
    """Incremental single-pass CRC-32 receipt + set-bit census.

    Feed byte chunks in stream order via :meth:`update`; read the
    combined accounting from :attr:`crc` / :attr:`ones` / :attr:`nbytes`
    or as one :meth:`receipt`.  Not thread-safe — each accounting scope
    (a draw, a refill stream, a worker chunk) owns its own instance.
    """

    __slots__ = ("_z", "ones", "nbytes")

    def __init__(self) -> None:
        self._z = 0  # zlib's reflected running register (init folded in)
        self.ones = 0
        self.nbytes = 0

    def update(self, data) -> None:
        """Account one chunk (bytes-like or any-dtype ndarray view)."""
        arr = _as_flat_u8(data)
        if arr.size == 0:
            return
        self._z = zlib.crc32(arr.tobytes().translate(_BITREV8), self._z)
        self.ones += int(_POP8 @ np.bincount(arr, minlength=256))
        self.nbytes += arr.size

    @property
    def crc(self) -> int:
        """MSB-first CRC-32-IEEE of everything fed so far.

        Bit-identical to ``table_crc_bytes(CRC32_IEEE, data)`` over the
        concatenated chunks (see module docstring for the derivation).
        """
        raw = self._z ^ 0xFFFFFFFF
        return int(f"{raw:032b}"[::-1], 2)

    @property
    def ones_fraction(self) -> float:
        """Fraction of set bits so far; 0.5 for an unbiased source."""
        return self.ones / (8 * self.nbytes) if self.nbytes else float("nan")

    def receipt(self) -> Receipt:
        """Frozen snapshot of the current accounting."""
        return Receipt(crc=self.crc, nbytes=self.nbytes, ones=self.ones)

    def reset(self) -> None:
        """Forget everything; the next chunk starts a fresh receipt."""
        self._z = 0
        self.ones = 0
        self.nbytes = 0
