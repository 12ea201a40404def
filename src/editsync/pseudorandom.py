"""Small-bias generators and k-wise independent samplers.

GF(2^m) uses the published primitive polynomial per degree (the Martinian
table that ships with pyfinite and friends), so outputs are bit-exact
everywhere.  The small-bias expander is the classical powering
construction: seed (x, y) in GF(2^m)^2, output bit i = first coordinate of
x^i * y; its bias against any nonzero parity is at most n / 2^m.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .bitlinalg import BitVector

# degree -> exponents of the primitive polynomial (x^m + ... + 1)
_PRIMITIVE_POLY_EXPONENTS = {
    1: (1, 0),
    2: (2, 1, 0),
    3: (3, 1, 0),
    4: (4, 1, 0),
    5: (5, 2, 0),
    6: (6, 4, 3, 1, 0),
    7: (7, 1, 0),
    8: (8, 4, 3, 2, 0),
    9: (9, 4, 0),
    10: (10, 6, 5, 3, 2, 1, 0),
    11: (11, 2, 0),
    12: (12, 7, 6, 5, 3, 1, 0),
    13: (13, 4, 3, 1, 0),
    14: (14, 7, 5, 3, 0),
    15: (15, 5, 4, 2, 0),
    16: (16, 5, 3, 2, 0),
    17: (17, 3, 0),
    18: (18, 12, 10, 1, 0),
    19: (19, 5, 2, 1, 0),
    20: (20, 10, 9, 7, 6, 5, 4, 1, 0),
    21: (21, 6, 5, 2, 0),
    22: (22, 12, 11, 10, 9, 8, 6, 5, 0),
    23: (23, 5, 0),
    24: (24, 16, 15, 14, 13, 10, 9, 7, 5, 3, 0),
}

MAX_FIELD_LOG = max(_PRIMITIVE_POLY_EXPONENTS)


class GF2m:
    """Arithmetic in GF(2^m), elements as ints in polynomial basis
    (bit t = coefficient of z^t)."""

    def __init__(self, m: int):
        if m not in _PRIMITIVE_POLY_EXPONENTS:
            raise ValueError(f"no polynomial table entry for degree {m}")
        self.m = m
        self.size = 1 << m
        self.modulus = 0
        for e in _PRIMITIVE_POLY_EXPONENTS[m]:
            self.modulus |= 1 << e
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        if m <= 16:
            self._build_tables()

    def _build_tables(self) -> None:
        order = self.size - 1
        exp = [0] * order
        log = [0] * self.size
        v = 1
        for i in range(order):
            exp[i] = v
            log[v] = i
            v = self._mul_slow(v, 2)
        if v != 1 or len(set(exp)) != order:
            raise AssertionError("polynomial table entry is not primitive")
        self._exp, self._log = exp, log

    def _mul_slow(self, u: int, v: int) -> int:
        acc = 0
        top = 1 << self.m
        while v:
            if v & 1:
                acc ^= u
            v >>= 1
            u <<= 1
            if u & top:
                u ^= self.modulus
        return acc

    def mul(self, u: int, v: int) -> int:
        if u == 0 or v == 0:
            return 0
        if self._exp is not None:
            return self._exp[(self._log[u] + self._log[v]) % (self.size - 1)]
        return self._mul_slow(u, v)


@lru_cache(maxsize=None)
def get_field(m: int) -> GF2m:
    return GF2m(m)


def ceil_log2_frac(num: int, den: int) -> int:
    """Smallest k with 2^k >= num/den, computed exactly."""
    if num <= 0 or den <= 0:
        raise ValueError("arguments must be positive")
    k = num.bit_length() - den.bit_length()
    while (den << k if k >= 0 else den >> -k) < num:
        k += 1
    while k > 0 and (den << (k - 1)) >= num:
        k -= 1
    return k


@dataclass(frozen=True)
class BiasedGeneratorSpec:
    """Powering-construction generator for ``output_len`` bits at target
    bias ``epsilon``; seed length is 2*ceil(log2(n/epsilon)) bits."""

    output_len: int
    epsilon: Fraction

    def __post_init__(self):
        object.__setattr__(self, "epsilon", Fraction(self.epsilon))
        if self.output_len < 1:
            raise ValueError("output length must be at least 1")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")

    @property
    def field_log(self) -> int:
        # exact evaluation of ceil(log2(n/eps)); epsilon exponents may be
        # far beyond float range
        ratio = Fraction(self.output_len) / self.epsilon
        return max(1, ceil_log2_frac(ratio.numerator, ratio.denominator))

    @property
    def seed_len(self) -> int:
        return 2 * self.field_log


def eps_biased_expand(spec: BiasedGeneratorSpec, seed: BitVector) -> BitVector:
    if seed.n != spec.seed_len:
        raise ValueError(f"seed length {seed.n} != {spec.seed_len}")
    m = spec.field_log
    fld = get_field(m)
    mask = (1 << m) - 1
    x = seed.bits & mask
    y = seed.bits >> m
    out = 0
    cur = y
    for i in range(spec.output_len):
        out |= (cur & 1) << i
        cur = fld.mul(cur, x)
    return BitVector(out, spec.output_len)


def expand_all_seeds(spec: BiasedGeneratorSpec) -> list[int]:
    """Generator outputs (as packed ints) over every seed, guarded."""
    if spec.output_len > 20 or spec.seed_len > 24:
        raise ValueError("exhaustive enumeration is guarded to n <= 20, s <= 24")
    n, s = spec.output_len, spec.seed_len
    return [
        eps_biased_expand(spec, BitVector(w, s)).bits for w in range(1 << s)
    ]


def _as_words(outputs, n: int) -> list[int]:
    words = []
    for o in outputs:
        if isinstance(o, BitVector):
            if o.n != n:
                raise ValueError("output length mismatch")
            words.append(o.bits)
        else:
            if not 0 <= o < (1 << n):
                raise ValueError("output out of range")
            words.append(o)
    return words


def _parity_spectrum(outputs, n: int) -> np.ndarray:
    # Walsh-Hadamard transform of the output histogram: entry t equals
    # (#even-parity - #odd-parity) outputs against test vector t.
    hist = np.zeros(1 << n, dtype=np.int64)
    for w in _as_words(outputs, n):
        hist[w] += 1
    h = 1
    size = 1 << n
    while h < size:
        for start in range(0, size, h * 2):
            a = hist[start : start + h].copy()
            b = hist[start + h : start + 2 * h].copy()
            hist[start : start + h] = a + b
            hist[start + h : start + 2 * h] = a - b
        h *= 2
    return hist


def measure_bias(outputs, n: int) -> Fraction:
    """Max over nonzero test vectors of |Pr[parity = 1] - 1/2|, exact."""
    if n < 1 or n > 20:
        raise ValueError("exhaustive regime is guarded to 1 <= n <= 20")
    total = len(outputs)
    if total == 0 or total > (1 << 24):
        raise ValueError("need between 1 and 2^24 outputs")
    spectrum = _parity_spectrum(outputs, n)
    worst = int(np.max(np.abs(spectrum[1:])))
    return Fraction(worst, 2 * total)


@dataclass(frozen=True)
class KWiseSamplerSpec:
    """Degree-(k-1) polynomial sampler over GF(2^field_log): sample i is
    p(alpha_i) truncated to ``value_bits``, alpha_i = i-th field element.

    Any k samples are jointly uniform when the k*field_log seed is.
    """

    k: int
    domain_size: int
    value_bits: int
    field_log: int = 0

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("k must be non-negative")
        if self.domain_size < 1:
            raise ValueError("domain size must be at least 1")
        if self.value_bits < 1:
            raise ValueError("value bits must be at least 1")
        if self.field_log == 0:
            auto = max(
                self.value_bits,
                ceil_log2_frac(self.domain_size, 1),
                1,
            )
            object.__setattr__(self, "field_log", auto)
        if self.field_log < self.value_bits:
            raise ValueError("field must be at least as wide as the values")
        if (1 << self.field_log) < self.domain_size:
            raise ValueError("field too small for the domain")

    @property
    def seed_len(self) -> int:
        return self.k * self.field_log


def kwise_sample(spec: KWiseSamplerSpec, seed: BitVector, index: int) -> BitVector:
    if seed.n != spec.seed_len:
        raise ValueError(f"seed length {seed.n} != {spec.seed_len}")
    if not 0 <= index < spec.domain_size:
        raise ValueError(f"index {index} out of range")
    f = spec.field_log
    fld = get_field(f)
    mask = (1 << f) - 1
    coeffs = [(seed.bits >> (j * f)) & mask for j in range(spec.k)]
    acc = 0
    for c in reversed(coeffs):  # Horner at alpha = index
        acc = fld.mul(acc, index) ^ c
    return BitVector(acc & ((1 << spec.value_bits) - 1), spec.value_bits)


@dataclass(frozen=True)
class XorLemmaReport:
    n: int
    num_outputs: int
    distance: Fraction
    bias: Fraction
    passed: bool


def xor_lemma_report(outputs, n: int) -> XorLemmaReport:
    """Exact statistical distance from uniform vs. the bias * 2^(n/2) bound.

    The comparison squares both sides so odd n stays exact.
    """
    if n < 1 or n > 12:
        raise ValueError("exhaustive regime is guarded to 1 <= n <= 12")
    words = _as_words(outputs, n)
    total = len(words)
    if total == 0:
        raise ValueError("need at least one output")
    hist: dict[int, int] = {}
    for w in words:
        hist[w] = hist.get(w, 0) + 1
    dist = Fraction(0)
    size = 1 << n
    uniform = Fraction(1, size)
    for count in hist.values():
        dist += abs(Fraction(count, total) - uniform)
    dist += (size - len(hist)) * uniform
    dist /= 2
    bias = measure_bias(words, n)
    passed = dist * dist <= bias * bias * size
    return XorLemmaReport(n=n, num_outputs=total, distance=dist, bias=bias, passed=passed)


def xor_lemma_check(spec: BiasedGeneratorSpec) -> XorLemmaReport:
    if spec.seed_len > 20:
        raise ValueError("exhaustive regime is guarded to seed length <= 20")
    return xor_lemma_report(expand_all_seeds(spec), spec.output_len)
