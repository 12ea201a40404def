"""Pluggable list-recoverable outer code over GF(2^symbol_bits).

Two desk-scale code families stand behind one interface: evaluation-style
Reed-Solomon codes and random systematic linear codes.  Both are linear
over GF(2), which keeps the whole concatenation GF(2)-linear.  Recovery is
an exhaustive codeword sweep, exact by construction, and errors out rather
than truncating when more codewords qualify than the configured bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .bitlinalg import BitVector
from .errors import CapExceeded, ListBoundExceeded
from .pseudorandom import get_field
from .records import Record
from .rng import CounterRng

MAX_CODEBOOK_ENTRIES = 1 << 24


@dataclass(frozen=True)
class RecoverySpec(Record):
    alpha: Fraction  # allowed disagreement fraction
    box_limit: int  # max candidates per position (l0)
    list_limit: int  # max recovered messages (L0)

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        if not 0 <= self.alpha <= 1:
            raise ValueError("alpha must be in [0, 1]")
        if self.box_limit < 1 or self.list_limit < 1:
            raise ValueError("box and list limits must be at least 1")


@dataclass(frozen=True)
class OuterCodeSpec(Record):
    symbol_bits: int
    block_count: int
    message_symbols: int
    kind: str = "brute_force_linear"  # or "reed_solomon"
    seed: int = 0  # selects the systematic generator for brute_force_linear
    recovery: RecoverySpec = field(kw_only=True)

    def __post_init__(self):
        if self.symbol_bits < 1:
            raise ValueError("symbol width must be at least 1")
        if not 1 <= self.message_symbols <= self.block_count:
            raise ValueError("need 1 <= message symbols <= block count")
        if self.kind not in ("brute_force_linear", "reed_solomon"):
            raise ValueError(f"unknown outer code kind {self.kind!r}")
        if self.kind == "reed_solomon" and self.block_count > (1 << self.symbol_bits):
            raise ValueError("reed_solomon needs block count <= field size")

    @property
    def message_bits(self) -> int:
        return self.message_symbols * self.symbol_bits


@lru_cache(maxsize=64)
def _systematic_generator(spec: OuterCodeSpec) -> tuple[tuple[int, ...], ...]:
    """Fixed k-by-n generator [I | P] with P drawn from the counter stream
    keyed by the spec, so the code is a pure function of its description."""
    k, n, w = spec.message_symbols, spec.block_count, spec.symbol_bits
    rng = CounterRng("outer_code.generator", w, n, k, spec.seed)
    rows = []
    for i in range(k):
        row = [0] * n
        row[i] = 1
        for j in range(k, n):
            row[j] = rng.bits(w)
        rows.append(tuple(row))
    return tuple(rows)


def outer_encode(spec: OuterCodeSpec, message: tuple[int, ...] | list[int]) -> tuple[int, ...]:
    """GF(2)-linear encoding of ``message_symbols`` field elements into
    ``block_count`` field elements."""
    if len(message) != spec.message_symbols:
        raise ValueError(
            f"message has {len(message)} symbols, expected {spec.message_symbols}"
        )
    fld = get_field(spec.symbol_bits)
    for m in message:
        if not 0 <= m < fld.size:
            raise ValueError("message symbol out of field range")
    if spec.kind == "reed_solomon":
        # evaluate the degree-(k-1) polynomial at the first n field elements
        out = []
        for point in range(spec.block_count):
            acc = 0
            for c in reversed(message):
                acc = fld.mul(acc, point) ^ c
            out.append(acc)
        return tuple(out)
    gen = _systematic_generator(spec)
    out = [0] * spec.block_count
    for i, m in enumerate(message):
        if m:
            row = gen[i]
            for j in range(spec.block_count):
                if row[j]:
                    out[j] ^= fld.mul(m, row[j])
    return tuple(out)


@lru_cache(maxsize=4)
def _codebook(spec: OuterCodeSpec) -> np.ndarray:
    """All codewords, position-major: entry [j, m] is symbol j of the
    codeword of packed message m, so the shape is (block_count,
    2^message_bits).  Stored as uint16 up to 16-bit symbols and uint32
    beyond.  Raises CapExceeded before building anything when the table
    would hold more than MAX_CODEBOOK_ENTRIES entries.
    """
    entries = spec.block_count << spec.message_bits
    if entries > MAX_CODEBOOK_ENTRIES:
        raise CapExceeded(
            f"outer codebook needs {entries} entries, cap is {MAX_CODEBOOK_ENTRIES}",
            required=entries,
        )
    k, w = spec.message_symbols, spec.symbol_bits
    dtype = np.uint16 if w <= 16 else np.uint32
    book = np.zeros((spec.block_count, 1 << spec.message_bits), dtype=dtype)
    # build by linearity: XOR single-symbol contributions along each axis
    for i in range(k):
        stride = 1 << (i * w)
        for m in range(1, 1 << w):
            msg = [0] * k
            msg[i] = m
            column = np.array(outer_encode(spec, msg), dtype=dtype)[:, None]
            base = m * stride
            book[:, base : base + stride] = book[:, :stride] ^ column
    return book


def message_to_symbols(spec: OuterCodeSpec, packed: int) -> tuple[int, ...]:
    """Split a packed message integer into symbols, lowest symbol first."""
    w = spec.symbol_bits
    mask = (1 << w) - 1
    return tuple((packed >> (i * w)) & mask for i in range(spec.message_symbols))


@dataclass(frozen=True)
class RecoveryInput:
    """Per-position candidate sets; an empty set disagrees with every
    codeword symbol.  Oversized sets must have been emptied upstream."""

    boxes: tuple[frozenset[int], ...]
    alpha: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(
            self, "boxes", tuple(frozenset(b) for b in self.boxes)
        )
        if not 0 <= self.alpha <= 1:
            raise ValueError("alpha must be in [0, 1]")


def list_recover(spec: OuterCodeSpec, inp: RecoveryInput) -> list[tuple[int, ...]]:
    """Exactly the messages whose codewords land outside the candidate sets
    in at most floor(alpha * n) positions, in ascending message order.

    Raises ListBoundExceeded when more than recovery.list_limit messages
    qualify; truncation would hide a parameter misconfiguration.
    """
    n = spec.block_count
    if len(inp.boxes) != n:
        raise ValueError(f"expected {n} candidate sets, got {len(inp.boxes)}")
    for box in inp.boxes:
        if len(box) > spec.recovery.box_limit:
            raise ValueError(
                "candidate set exceeds the per-position limit; "
                "oversized sets must be emptied before recovery"
            )
        for s in box:
            if not 0 <= s < (1 << spec.symbol_bits):
                raise ValueError("candidate symbol out of field range")
    budget = (inp.alpha * n).numerator // (inp.alpha * n).denominator
    book = _codebook(spec)
    member = np.zeros((n, 1 << spec.symbol_bits), dtype=bool)
    for j, box in enumerate(inp.boxes):
        for s in box:
            member[j, s] = True
    # agree[m] counts the positions where message m's codeword symbol lies
    # in the candidate set; the dtype holds block_count
    agree = np.zeros(book.shape[1], dtype=np.min_scalar_type(n))
    for j in range(n):
        agree += member[j].take(book[j])
    qualifying = np.nonzero(agree >= n - budget)[0]
    if len(qualifying) > spec.recovery.list_limit:
        raise ListBoundExceeded(
            f"{len(qualifying)} codewords qualify, limit is {spec.recovery.list_limit}"
        )
    return [message_to_symbols(spec, int(m)) for m in qualifying]


def fold_symbols(bits: BitVector, symbol_bits: int, pad: bool = False) -> tuple[int, ...]:
    """Regroup a bit string into GF(2^symbol_bits) symbols, lowest bits
    first; refuses indivisible lengths unless padding is requested."""
    if symbol_bits < 1:
        raise ValueError("symbol width must be at least 1")
    rem = bits.n % symbol_bits
    if rem and not pad:
        raise ValueError(
            f"length {bits.n} is not a multiple of {symbol_bits}; pass pad=True to zero-pad"
        )
    count = (bits.n + symbol_bits - 1) // symbol_bits
    mask = (1 << symbol_bits) - 1
    return tuple((bits.bits >> (i * symbol_bits)) & mask for i in range(count))


def unfold_symbols(
    symbols: tuple[int, ...] | list[int], symbol_bits: int, total_bits: int | None = None
) -> BitVector:
    """Inverse of fold_symbols; ``total_bits`` trims padding when given."""
    word = 0
    for i, s in enumerate(symbols):
        if not 0 <= s < (1 << symbol_bits):
            raise ValueError("symbol out of range")
        word |= s << (i * symbol_bits)
    n = len(symbols) * symbol_bits
    if total_bits is not None:
        if total_bits > n or total_bits < n - symbol_bits + 1:
            raise ValueError("total_bits inconsistent with symbol count")
        if word >> total_bits:
            raise ValueError("nonzero padding bits")
        n = total_bits
    return BitVector(word, n)
