"""Each sync matrix as a linear code: encoding, exhaustive list decoding
under edit distance by one lane-packed LCS pass, and the
random-linear-code capacity experiment."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .bitlinalg import (
    BitMatrix,
    BitVector,
    codeword_table,
    mat_vec_mul,
    random_matrix,
    rank,
)
# ball_words and edit_distance_words are unused here but stay part of this
# module's namespace: perfbench's tracer wraps inner_code.ball_words and
# inner_code.edit_distance_words.
from .edit_metric import (
    LcsLanes,
    ball_words,  # noqa: F401
    binary_entropy,
    edit_distance_words,  # noqa: F401
    lcs_lanes,
    pack_lanes,
)
from .records import Record
from .rng import derive_seed
from .sync import _ball_index, _runs, _target


@dataclass(frozen=True)
class InnerCode:
    """A full-rank generator matrix at position ``index`` of the sequence."""

    mat: BitMatrix
    index: int = 0

    def __post_init__(self):
        if rank(self.mat) != self.mat.nrows:
            raise ValueError("inner code matrix must have full rank")

    @property
    def msg_bits(self) -> int:
        return self.mat.nrows

    @property
    def block_bits(self) -> int:
        return self.mat.cols


def inner_encode(code: InnerCode, x: BitVector) -> BitVector:
    return mat_vec_mul(x, code.mat)


@lru_cache(maxsize=256)
def _nonzero_lanes(mat: BitMatrix) -> LcsLanes:
    """Every nonzero codeword of ``mat`` in its own lane, message x in
    lane x - 1."""
    return pack_lanes(codeword_table(mat)[1:], mat.cols)


def inner_list_decode(code: InnerCode, y: BitVector, radius: int) -> set[BitVector]:
    """All nonzero messages whose codeword lies within ``radius`` edits of
    y.  One lane-packed LCS pass over y's bits tests all 2^a - 1 nonzero
    codewords at once; codeword x qualifies when b + |y| - 2*LCS <= radius.

    The zero message is deliberately excluded; the window decoder accounts
    for it separately.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    a, b = code.msg_bits, code.block_bits
    if y.n > b + radius or y.n < b - radius:
        return set()
    need = b + y.n - radius
    lcs = lcs_lanes(_nonzero_lanes(code.mat), y.bits, y.n)
    return {BitVector(x, a) for x, common in enumerate(lcs, 1) if 2 * common >= need}


def measure_list_decodability(g: BitMatrix, radius: int) -> tuple[int, BitVector]:
    """Worst-case list size of the code generated by g at the given radius,
    with a string attaining it.

    The list size of a string is the number of messages the edit-ball
    index pairs with it; strings outside every ball have list size 0 and
    need no visit.
    """
    k, n = g.dims
    if k > 16 or n > 16:
        raise ValueError("exhaustive regime is guarded to k <= 16, n <= 16")
    if radius < 0:
        raise ValueError("radius must be non-negative")
    keys, _ = _ball_index(g, radius)
    starts, sizes = _runs(keys)
    ln, w = _target(keys[starts[sizes.argmax()]])  # the least key of largest list
    return int(sizes.max()), BitVector(w, ln)


@dataclass(frozen=True)
class CapacityReport(Record):
    k: int
    n: int
    radius: int
    trials: int
    list_bound: int
    seed: int
    failures: int
    empirical_failure: float
    lemma_bound: float
    delta: float
    epsilon_implied: float | None
    rate_threshold: float | None
    rate_condition_met: bool | None
    vacuous: bool
    max_list_histogram: dict[int, int]


def capacity_experiment(
    k: int, n: int, radius: int, trials: int, list_bound: int, rng_seed
) -> CapacityReport:
    """Sample uniform k-by-n generators and count how often the worst-case
    list size exceeds ``list_bound``.

    The failure-probability bound 2^(-0.5n+1) only has force when the rate
    condition k/n <= 1 - 5*H(radius/n) - epsilon holds, with epsilon read
    off from list_bound = 2^(2/epsilon + 1); the report flags the vacuous
    regime instead of asserting.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    delta = radius / n
    histogram: dict[int, int] = {}
    failures = 0
    for t in range(trials):
        g = random_matrix(k, n, derive_seed("capacity", rng_seed, t))
        max_list, _ = measure_list_decodability(g, radius)
        histogram[max_list] = histogram.get(max_list, 0) + 1
        if max_list > list_bound:
            failures += 1
    if list_bound > 2:
        eps = 2.0 / (math.log2(list_bound) - 1.0)
        rate_threshold = 1.0 - 5.0 * binary_entropy(delta) - eps
        rate_met = k / n <= rate_threshold
        vacuous = rate_threshold <= 0
    else:
        eps = None
        rate_threshold = None
        rate_met = None
        vacuous = True
    return CapacityReport(
        k=k,
        n=n,
        radius=radius,
        trials=trials,
        list_bound=list_bound,
        seed=rng_seed if isinstance(rng_seed, int) else 0,
        failures=failures,
        empirical_failure=failures / trials,
        lemma_bound=2.0 ** (-0.5 * n + 1),
        delta=delta,
        epsilon_implied=eps,
        rate_threshold=rate_threshold,
        rate_condition_met=rate_met,
        vacuous=vacuous,
        max_list_histogram=histogram,
    )
