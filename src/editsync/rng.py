"""Deterministic counter-mode randomness.

Every randomized operation in this package draws its bits from a SHA-256
stream keyed by a seed, so runs are reproducible bit-for-bit across
platforms and independent of evaluation order.  Block ``j`` of the stream
is ``SHA256(key || j)`` where ``key = SHA256(domain and seed parts)``;
blocks can therefore be generated in any order.
"""

from __future__ import annotations

import hashlib


def _digest(parts) -> bytes:
    """SHA-256 of the parts' reprs, each followed by a 0x1f separator."""
    h = hashlib.sha256()
    for p in parts:
        h.update(repr(p).encode())
        h.update(b"\x1f")
    return h.digest()


def derive_seed(*parts) -> int:
    """Combine arbitrary parts (ints, strings) into a 128-bit sub-seed."""
    return int.from_bytes(_digest(parts)[:16], "little")


class CounterRng:
    """SHA-256 counter-mode bit stream keyed by seed parts."""

    def __init__(self, *seed_parts):
        self._key = _digest(seed_parts)
        self._counter = 0
        self._buf = 0
        self._buf_bits = 0

    def _refill(self) -> None:
        block = hashlib.sha256(
            self._key + self._counter.to_bytes(8, "little")
        ).digest()
        self._counter += 1
        self._buf |= int.from_bytes(block, "little") << self._buf_bits
        self._buf_bits += 256

    def bits(self, nbits: int) -> int:
        """Next ``nbits`` bits of the stream as an int (LSB = first bit)."""
        if nbits < 0:
            raise ValueError("nbits must be non-negative")
        while self._buf_bits < nbits:
            self._refill()
        out = self._buf & ((1 << nbits) - 1)
        self._buf >>= nbits
        self._buf_bits -= nbits
        return out

    def bit(self) -> int:
        return self.bits(1)

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n) via rejection sampling."""
        if n <= 0:
            raise ValueError("n must be positive")
        k = (n - 1).bit_length()
        while True:
            v = self.bits(k)
            if v < n:
                return v

    def randrange(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi)."""
        if hi <= lo:
            raise ValueError("empty range")
        return lo + self.randbelow(hi - lo)
