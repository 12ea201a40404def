"""Bit-packed GF(2) vectors and matrices.

Vectors and matrix rows are packed into Python ints with bit ``i`` holding
coordinate ``i`` (least-significant bit = column 0 = leftmost position in
the string rendering).  All linear algebra is over GF(2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .rng import CounterRng


@dataclass(frozen=True, slots=True)
class BitVector:
    """Immutable bit string; ``bits`` packs coordinate i into bit i."""

    bits: int
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("length must be non-negative")
        if not 0 <= self.bits < (1 << self.n):
            raise ValueError(f"packed value out of range for length {self.n}")

    @classmethod
    def from_string(cls, s: str) -> "BitVector":
        """Parse "0101..."; the first character is coordinate 0."""
        word = 0
        for i, ch in enumerate(s):
            if ch == "1":
                word |= 1 << i
            elif ch != "0":
                raise ValueError(f"invalid bit character {ch!r}")
        return cls(word, len(s))

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitVector":
        word = 0
        n = 0
        for b in bits:
            if b not in (0, 1):
                raise ValueError("bits must be 0 or 1")
            word |= b << n
            n += 1
        return cls(word, n)

    @classmethod
    def zeros(cls, n: int) -> "BitVector":
        return cls(0, n)

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            start, stop, step = idx.indices(self.n)
            if step != 1:
                raise ValueError("only contiguous slices are supported")
            width = max(0, stop - start)
            return BitVector((self.bits >> start) & ((1 << width) - 1), width)
        if not 0 <= idx < self.n:
            raise IndexError(f"bit index {idx} out of range for length {self.n}")
        return (self.bits >> idx) & 1

    def __iter__(self) -> Iterator[int]:
        return ((self.bits >> i) & 1 for i in range(self.n))

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.n != other.n:
            raise ValueError("length mismatch in xor")
        return BitVector(self.bits ^ other.bits, self.n)

    def __str__(self) -> str:
        return "".join("1" if (self.bits >> i) & 1 else "0" for i in range(self.n))

    def weight(self) -> int:
        return self.bits.bit_count()

    def concat(self, other: "BitVector") -> "BitVector":
        return BitVector(self.bits | (other.bits << self.n), self.n + other.n)


@dataclass(frozen=True, slots=True)
class BitMatrix:
    """Row-major binary matrix; each row packed like a BitVector."""

    rows: tuple[int, ...]
    cols: int

    def __post_init__(self):
        if self.cols < 0:
            raise ValueError("column count must be non-negative")
        for r in self.rows:
            if not 0 <= r < (1 << self.cols):
                raise ValueError("row value out of range for column count")

    @classmethod
    def from_rows(cls, rows: Sequence, cols: int | None = None) -> "BitMatrix":
        """Build from BitVectors, bit lists, or strings (lengths must agree)."""
        packed = []
        width = cols
        for r in rows:
            v = r if isinstance(r, BitVector) else (
                BitVector.from_string(r) if isinstance(r, str) else BitVector.from_bits(r)
            )
            if width is None:
                width = v.n
            elif v.n != width:
                raise ValueError("rows of unequal length")
            packed.append(v.bits)
        if width is None:
            raise ValueError("cannot infer column count from empty rows")
        return cls(tuple(packed), width)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(tuple(1 << i for i in range(n)), n)

    @classmethod
    def zero(cls, a: int, b: int) -> "BitMatrix":
        return cls((0,) * a, b)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def dims(self) -> tuple[int, int]:
        return (len(self.rows), self.cols)

    def row(self, i: int) -> BitVector:
        return BitVector(self.rows[i], self.cols)

    def to_json(self) -> dict:
        """Rows as big-endian hex strings padded to ceil(cols/4) digits.

        Column i carries weight 2**i in the row's integer value; the hex
        string is that integer written most-significant digit first, which
        pins the byte order of serialized files.
        """
        width = max(1, (self.cols + 3) // 4)
        return {
            "a": len(self.rows),
            "b": self.cols,
            "rows": [format(r, f"0{width}x") for r in self.rows],
        }

    @classmethod
    def from_json(cls, obj) -> "BitMatrix":
        if not (
            isinstance(obj, dict)
            and type(obj.get("a")) is int
            and type(obj.get("b")) is int
            and isinstance(obj.get("rows"), list)
            and all(isinstance(s, str) for s in obj["rows"])
        ):
            raise ValueError(f"bit matrix needs integers a, b and hex-string rows, got {obj!r}")
        rows = tuple(int(s, 16) for s in obj["rows"])
        if len(rows) != obj["a"]:
            raise ValueError("row count disagrees with 'a'")
        return cls(rows, obj["b"])


def mat_vec_mul(x: BitVector, m: BitMatrix) -> BitVector:
    """Row vector times matrix over GF(2): XOR of rows selected by x."""
    if x.n != m.nrows:
        raise ValueError(f"vector length {x.n} != row count {m.nrows}")
    acc = 0
    w = x.bits
    for r in m.rows:
        if w & 1:
            acc ^= r
        w >>= 1
    return BitVector(acc, m.cols)


def _eliminate(rows: Iterable[int]) -> tuple[list[tuple[int, int, int]], int]:
    """Gauss-Jordan elimination that tracks which input rows make each row.

    Returns the reduced echelon basis as (pivot, row, combination) triples,
    pivots ascending, where the pivot is the lowest set bit (leftmost
    column), each pivot bit is set in exactly one basis row, and bit i of
    the combination marks input row i.  The second result is the
    combination exposed by the first input row that lies in the span of
    the rows above it (a nonzero left kernel vector), or 0 if the rows are
    independent.
    """
    basis: list[tuple[int, int, int]] = []
    dependent = 0
    for i, r in enumerate(rows):
        comb = 1 << i
        for p, br, bc in basis:
            if (r >> p) & 1:
                r ^= br
                comb ^= bc
        if r == 0:
            dependent = dependent or comb
            continue
        p = (r & -r).bit_length() - 1
        basis = [
            (q, br ^ r, bc ^ comb) if (br >> p) & 1 else (q, br, bc)
            for q, br, bc in basis
        ]
        basis.append((p, r, comb))
    basis.sort()
    return basis, dependent


def rank(m: BitMatrix) -> int:
    """GF(2) row rank via Gaussian elimination."""
    return len(_eliminate(m.rows)[0])


def row_space_basis(m: BitMatrix) -> list[int]:
    """Reduced echelon basis of the row space, as packed rows."""
    return [r for _, r, _ in _eliminate(m.rows)[0]]


def in_row_space(word: int, basis: Sequence[int]) -> bool:
    """Membership test against an echelon basis from row_space_basis."""
    for br in basis:
        p = (br & -br).bit_length() - 1
        if (word >> p) & 1:
            word ^= br
    return word == 0


def row_space_intersection(mats: Sequence[BitMatrix]) -> list[BitVector]:
    """Basis of the intersection of all row spaces (empty = {0}).

    Pairwise Zassenhaus: embed (u, u) for rows of the current intersection
    and (w, 0) for rows of the next matrix as 2b-bit rows with the first
    block in the low bits; echelon rows whose low block vanished have high
    blocks spanning the intersection.
    """
    if not mats:
        raise ValueError("need at least one matrix")
    b = mats[0].cols
    for m in mats:
        if m.cols != b:
            raise ValueError("matrices must share the column count")
    inter = row_space_basis(mats[0])
    for m in mats[1:]:
        combined = [u | (u << b) for u in inter] + row_space_basis(m)
        high = [
            r >> b
            for _, r, _ in _eliminate(combined)[0]
            if r & ((1 << b) - 1) == 0
        ]
        inter = [r for _, r, _ in _eliminate(high)[0]]
        if not inter:
            break
    return [BitVector(r, b) for r in inter]


def solve_left(m: BitMatrix, c: BitVector) -> BitVector | None:
    """The unique x with x*m = c for full-rank m, or None if c is outside
    the row space."""
    a, b = m.dims
    if c.n != b:
        raise ValueError(f"target length {c.n} != column count {b}")
    basis, dependent = _eliminate(m.rows)
    if dependent:
        raise ValueError("matrix is not full rank")
    r, comb = c.bits, 0
    for p, br, bc in basis:
        if (r >> p) & 1:
            r ^= br
            comb ^= bc
    if r != 0:
        return None
    return BitVector(comb, a)


def left_kernel_vector(m: BitMatrix) -> BitVector | None:
    """Some nonzero x with x*m = 0, or None when m has full row rank.

    Deterministic: returns the combination exposed by the first dependent
    row in top-to-bottom elimination order.
    """
    dependent = _eliminate(m.rows)[1]
    return BitVector(dependent, m.nrows) if dependent else None


@lru_cache(maxsize=256)
def codeword_table(mat: BitMatrix) -> tuple[int, ...]:
    """All 2^a codewords of the code generated by mat; entry x is x*mat."""
    table = [0] * (1 << mat.nrows)
    for i, row in enumerate(mat.rows):
        step = 1 << i
        for x in range(step):
            table[step + x] = table[x] ^ row
    return tuple(table)


def random_matrix(a: int, b: int, rng_seed) -> BitMatrix:
    """Uniform a-by-b matrix, a pure function of (a, b, seed).

    Bits come from the counter-mode SHA-256 stream keyed by
    ("bitlinalg.random_matrix", a, b, seed), so sequences of matrices can
    be generated in parallel from derived seeds without ordering effects.
    """
    if a < 1 or b < 1:
        raise ValueError("dimensions must be at least 1")
    rng = CounterRng("bitlinalg.random_matrix", a, b, rng_seed)
    return BitMatrix(tuple(rng.bits(b) for _ in range(a)), b)
