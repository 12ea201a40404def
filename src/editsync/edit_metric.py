"""Insertion/deletion edit distance and edit balls.

Distance counts single-bit insertions and deletions only (a substitution
costs 2), so d_e(x, y) = |x| + |y| - 2*LCS(x, y).  Thresholds of the form
"distance <= delta * n" are evaluated with exact rationals and floored to
an integer radius by the caller.

LCS lengths come from the bit-parallel Allison-Dix row recurrence.  The
scalar ``_lcs_words`` compares one pair; it is the kernel of
``edit_distance_words`` (and so of the reference sync verifier) and the
test oracle for ``lcs_lanes``, which runs the same recurrence once for a
whole set of equal-length words packed side by side into one integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .bitlinalg import BitVector
from .errors import CapExceeded
from .records import Record
from .rng import CounterRng

DEFAULT_BALL_CAP = 1 << 24


def binary_entropy(p) -> float:
    """H(p) = -p*log2(p) - (1-p)*log2(1-p), with H(0) = H(1) = 0."""
    p = Fraction(p)
    if p < 0 or p > 1:
        raise ValueError("entropy argument must be in [0, 1]")
    if p == 0 or p == 1:
        return 0.0
    pf = float(p)
    return -pf * math.log2(pf) - (1 - pf) * math.log2(1 - pf)


def _lcs_words(xw: int, xn: int, yw: int, yn: int) -> int:
    # Bit-parallel LCS row recurrence (Allison-Dix); bit i of `row` marks a
    # +1 step of the DP row at position i, so popcount(row) is the LCS.
    if xn == 0 or yn == 0:
        return 0
    mask = (1 << xn) - 1
    match = (mask & ~xw, xw)
    row = 0
    for _ in range(yn):
        s = match[yw & 1] | row
        row = s & ~(s - ((row << 1) | 1))
        yw >>= 1
    return row.bit_count()


@dataclass(frozen=True)
class LcsLanes:
    """Words of one length ``xn`` packed into (xn + 1)-bit lanes, word i in
    lane i.  Each lane's top bit is a guard set in the minuend of the
    recurrence's subtraction.  Within a lane row is a subset of s, so the
    subtrahend (row << 1) | 1 is at most s + 2^xn = s | guard: no borrow
    leaves a lane, and the AND with s clears the guard again."""

    xn: int
    count: int
    match: tuple[int, int]  # the lanes' positions holding a 0 / a 1
    ones: int  # bit 0 of every lane
    guard: int  # bit xn of every lane


def pack_lanes(words, xn: int) -> LcsLanes:
    """Lane constants for ``lcs_lanes`` over the given xn-bit words."""
    width = xn + 1
    ones = sum(1 << (i * width) for i in range(len(words)))
    low = ones * ((1 << xn) - 1)
    match1 = sum(w << (i * width) for i, w in enumerate(words))
    if match1 & ~low:
        raise ValueError(f"every packed word must fit in {xn} bits")
    return LcsLanes(
        xn=xn, count=len(words), match=(low & ~match1, match1), ones=ones, guard=ones << xn
    )


def lcs_lanes(lanes: LcsLanes, yw: int, yn: int) -> list[int]:
    """LCS of (yw, yn) with every packed word, in packing order: one pass
    of ``_lcs_words``'s recurrence over y's bits for all lanes at once."""
    match0, match1 = lanes.match
    ones, guard = lanes.ones, lanes.guard
    row = 0
    for _ in range(yn):
        s = (match1 if yw & 1 else match0) | row
        row = s & ~((s | guard) - ((row << 1) | ones))
        yw >>= 1
    width, mask = lanes.xn + 1, (1 << lanes.xn) - 1
    return [((row >> (i * width)) & mask).bit_count() for i in range(lanes.count)]


def edit_distance_words(xw: int, xn: int, yw: int, yn: int) -> int:
    """Distance on packed (word, length) pairs; hot-path form."""
    return xn + yn - 2 * _lcs_words(xw, xn, yw, yn)


def edit_distance(x: BitVector, y: BitVector) -> int:
    return edit_distance_words(x.bits, x.n, y.bits, y.n)


@dataclass(frozen=True)
class EditBallQuery:
    """Ball of strings within ``radius`` edits of ``center``; optionally
    restricted to outputs of length ``length_filter``."""

    center: BitVector
    radius: int
    length_filter: int | None = None

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("radius must be non-negative")
        if self.length_filter is not None:
            if self.length_filter < 0:
                raise ValueError("length filter must be non-negative")
            if self.radius > self.center.n + self.length_filter:
                raise ValueError(
                    "radius exceeds center length + length filter; "
                    "the query is degenerate and is rejected rather than clamped"
                )


def ball_membership(x: BitVector, q: EditBallQuery) -> bool:
    if q.length_filter is not None and x.n != q.length_filter:
        return False
    return edit_distance(x, q.center) <= q.radius


def ball_words(word: int, n: int, radius: int, cap: int = DEFAULT_BALL_CAP):
    """All (word, length) pairs within ``radius`` single edits of the center.

    Breadth-first closure under one-bit deletion and insertion with
    deduplication; exceeding ``cap`` elements raises CapExceeded.
    """
    seen = {(n, word)}
    frontier = [(n, word)]
    for _ in range(radius):
        nxt = []
        for ln, w in frontier:
            for p in range(ln):
                low = w & ((1 << p) - 1)
                cand = (ln - 1, low | ((w >> (p + 1)) << p))
                if cand not in seen:
                    seen.add(cand)
                    nxt.append(cand)
            for p in range(ln + 1):
                low = w & ((1 << p) - 1)
                base = low | ((w >> p) << (p + 1))
                for bit in (0, 1):
                    cand = (ln + 1, base | (bit << p))
                    if cand not in seen:
                        seen.add(cand)
                        nxt.append(cand)
            if len(seen) > cap:
                raise CapExceeded(
                    f"edit ball exceeds cap of {cap} elements", required=len(seen)
                )
        frontier = nxt
    return seen


def ball_enumerate(q: EditBallQuery, cap: int = DEFAULT_BALL_CAP) -> set[BitVector]:
    """Exactly the set of strings x with ball_membership(x, q)."""
    pairs = ball_words(q.center.bits, q.center.n, q.radius, cap)
    if q.length_filter is not None:
        pairs = {(ln, w) for ln, w in pairs if ln == q.length_filter}
    return {BitVector(w, ln) for ln, w in pairs}


@dataclass(frozen=True)
class BallSizeReport(Record):
    n: int
    delta: Fraction
    radius: int
    trials: int
    max_ball_size: int
    max_center: BitVector | None
    bound: float
    passed: bool


def fixed_length_ball_size(center: BitVector, radius: int, n: int) -> int:
    """|{x in {0,1}^n : d_e(x, center) <= radius}| by exhaustive sweep."""
    if n > 16:
        raise ValueError("exhaustive ball sizing is guarded to n <= 16")
    cw, cn = center.bits, center.n
    count = 0
    for w in range(1 << n):
        if edit_distance_words(w, n, cw, cn) <= radius:
            count += 1
    return count


def check_ball_size_bound(n: int, delta, trials: int, rng_seed) -> BallSizeReport:
    """Probe the ball-size bound 2**(5*H(delta)*n) on random centers.

    Centers are drawn with lengths uniform in [n - radius, n + radius] and
    uniform bits; each fixed-length ball is counted exactly.
    """
    delta = Fraction(delta)
    if delta > Fraction(1, 2):
        raise ValueError("delta must be at most 1/2")
    if n > 16:
        raise ValueError("exhaustive regime is guarded to n <= 16")
    radius = math.floor(delta * n)
    rng = CounterRng("edit_metric.ball_size", n, str(delta), rng_seed)
    bound = 2.0 ** (5 * binary_entropy(delta) * n)
    best = -1
    best_center = None
    for _ in range(trials):
        ln = n - radius + rng.randbelow(2 * radius + 1)
        center = BitVector(rng.bits(ln), ln)
        size = fixed_length_ball_size(center, radius, n)
        if size > best:
            best = size
            best_center = center
    return BallSizeReport(
        n=n,
        delta=delta,
        radius=radius,
        trials=trials,
        max_ball_size=max(best, 0),
        max_center=best_center,
        bound=bound,
        passed=best <= bound,
    )
