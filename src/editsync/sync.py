"""Sync matrix sequences: verification, randomized search, derandomization.

A sequence S_1..S_n of a-by-b binary matrices is "sync" for (delta, l, L)
when (1) no string sits within radius = floor(delta*b) edits of nonzero
codewords of more than l distinct matrices, (2) every ball of that radius
captures at most L messages of any single matrix, and (3) every matrix has
full rank.

Two verification strategies are provided and must agree: the fast one
enumerates edit balls around the n * 2^a codewords and aggregates per
target string; the reference one sweeps every candidate target of length
within [b - radius, b + radius].  Refutations are canonical: condition 3
is checked first, then condition 1, then condition 2, and witnesses are
minimal in (length, value) order, so both strategies return identical
verdicts.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .bitlinalg import (
    BitMatrix,
    BitVector,
    codeword_table,
    in_row_space,
    left_kernel_vector,
    random_matrix,
    row_space_intersection,
)
from .edit_metric import ball_words, edit_distance_words
from .errors import CapExceeded
from .pseudorandom import BiasedGeneratorSpec, KWiseSamplerSpec, eps_biased_expand, kwise_sample
from .rng import derive_seed

DEFAULT_VERIFY_CAP = 200_000_000


@dataclass(frozen=True)
class SyncParams:
    """Parameters of a sync sequence; ``delta`` is an exact rational and
    the working radius is floor(delta * block_bits)."""

    n: int
    msg_bits: int
    block_bits: int
    delta: Fraction
    overlap_limit: int
    list_limit: int

    def __post_init__(self):
        object.__setattr__(self, "delta", Fraction(self.delta))
        if self.n < 1:
            raise ValueError("sequence length must be at least 1")
        if not 1 <= self.msg_bits <= self.block_bits:
            raise ValueError("need 1 <= msg_bits <= block_bits")
        if self.overlap_limit < 1 or self.list_limit < 1:
            raise ValueError("overlap and list limits must be at least 1")
        if not 0 <= self.radius <= self.block_bits:
            raise ValueError("radius must lie in [0, block_bits]")

    @property
    def radius(self) -> int:
        r = self.delta * self.block_bits
        return r.numerator // r.denominator

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "msg_bits": self.msg_bits,
            "block_bits": self.block_bits,
            "delta": str(self.delta),
            "overlap_limit": self.overlap_limit,
            "list_limit": self.list_limit,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SyncParams":
        return cls(
            n=obj["n"],
            msg_bits=obj["msg_bits"],
            block_bits=obj["block_bits"],
            delta=Fraction(obj["delta"]),
            overlap_limit=obj["overlap_limit"],
            list_limit=obj["list_limit"],
        )


@dataclass(frozen=True)
class AlignmentViolation:
    """More than overlap_limit distinct blocks reach the same target."""

    target: BitVector
    hits: tuple[tuple[int, BitVector], ...]  # (block index, nonzero message)
    kind: str = "condition1"

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "target": str(self.target),
            "hits": [[i, str(x)] for i, x in self.hits],
        }


@dataclass(frozen=True)
class ListSizeViolation:
    """A single block decodes more than list_limit messages at one target."""

    block: int
    target: BitVector
    messages: tuple[BitVector, ...]
    kind: str = "condition2"

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "block": self.block,
            "target": str(self.target),
            "messages": [str(x) for x in self.messages],
        }


@dataclass(frozen=True)
class RankViolation:
    """A matrix with a nonzero left kernel vector."""

    block: int
    kernel: BitVector
    kind: str = "condition3"

    def to_json(self) -> dict:
        return {"kind": self.kind, "block": self.block, "kernel": str(self.kernel)}


SyncViolation = AlignmentViolation | ListSizeViolation | RankViolation


def violation_from_json(obj: dict) -> SyncViolation:
    kind = obj["kind"]
    if kind == "condition1":
        return AlignmentViolation(
            target=BitVector.from_string(obj["target"]),
            hits=tuple((i, BitVector.from_string(x)) for i, x in obj["hits"]),
        )
    if kind == "condition2":
        return ListSizeViolation(
            block=obj["block"],
            target=BitVector.from_string(obj["target"]),
            messages=tuple(BitVector.from_string(x) for x in obj["messages"]),
        )
    if kind == "condition3":
        return RankViolation(
            block=obj["block"], kernel=BitVector.from_string(obj["kernel"])
        )
    raise ValueError(f"unknown violation kind {kind!r}")


@dataclass(frozen=True)
class SyncSequence:
    params: SyncParams
    mats: tuple[BitMatrix, ...]
    status: str = "unverified"  # unverified | verified | refuted
    violation: SyncViolation | None = None
    seed: int | None = None
    attempts: int | None = None

    def __post_init__(self):
        if self.status not in ("unverified", "verified", "refuted"):
            raise ValueError(f"unknown status {self.status!r}")
        if len(self.mats) != self.params.n:
            raise ValueError("matrix count disagrees with params")
        for m in self.mats:
            if m.dims != (self.params.msg_bits, self.params.block_bits):
                raise ValueError("matrix dimensions disagree with params")

    def content_hash(self) -> str:
        payload = json.dumps(
            {
                "params": self.params.to_json(),
                "matrices": [m.to_json() for m in self.mats],
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def to_json(self) -> dict:
        obj = {
            "params": self.params.to_json(),
            "matrices": [m.to_json() for m in self.mats],
            "status": self.status,
            "hash": self.content_hash(),
        }
        if self.violation is not None:
            obj["violation"] = self.violation.to_json()
        if self.seed is not None:
            obj["seed"] = self.seed
        if self.attempts is not None:
            obj["attempts"] = self.attempts
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "SyncSequence":
        seq = cls(
            params=SyncParams.from_json(obj["params"]),
            mats=tuple(BitMatrix.from_json(m) for m in obj["matrices"]),
            status=obj["status"],
            violation=violation_from_json(obj["violation"]) if "violation" in obj else None,
            seed=obj.get("seed"),
            attempts=obj.get("attempts"),
        )
        if obj.get("hash") and seq.content_hash() != obj["hash"]:
            raise ValueError("content hash mismatch; refusing tampered sequence file")
        return seq


def _ball_masks(mat: BitMatrix, radius: int) -> dict[tuple[int, int], int]:
    """{(length, word): bitmask of the messages x whose codeword x*mat lies
    within ``radius`` edits of the word}, over every ball around a codeword
    of mat (the zero message included)."""
    masks: dict[tuple[int, int], int] = {}
    for x, c in enumerate(codeword_table(mat)):
        for key in ball_words(c, mat.cols, radius):
            masks[key] = masks.get(key, 0) | (1 << x)
    return masks


def check_rowspace_condition(
    mats: Sequence[BitMatrix], overlap_limit: int
) -> AlignmentViolation | None:
    """Exact-alignment warm-up: every (overlap_limit+1)-subset of row
    spaces must intersect only in {0}.  None means pass.

    Detection maps nonzero codewords to the blocks producing them, with
    the least message of each; a candidate witness is re-validated through
    row_space_intersection.
    """
    if overlap_limit < 1:
        raise ValueError("overlap limit must be at least 1")
    if not mats:
        raise ValueError("need at least one matrix")
    b = mats[0].cols
    for m in mats:
        if m.cols != b:
            raise ValueError("matrices must share the column count")
    if len(mats) <= overlap_limit:
        return None
    hit_blocks: dict[int, dict[int, int]] = {}
    for i, m in enumerate(mats):
        for (_, v), xm in _ball_masks(m, 0).items():
            if v:  # zero target never witnesses a row-space overlap
                hit_blocks.setdefault(v, {})[i] = (xm & -xm).bit_length() - 1
    violating = [v for v, per in hit_blocks.items() if len(per) > overlap_limit]
    if not violating:
        return None
    v = min(violating)
    per = hit_blocks[v]
    chosen = sorted(per.items())[: overlap_limit + 1]
    subset = [mats[i] for i, _ in chosen]
    inter = row_space_intersection(subset)
    if not in_row_space(v, [bv.bits for bv in inter]):
        raise AssertionError("witness failed row-space re-validation")
    return AlignmentViolation(
        target=BitVector(v, b),
        hits=tuple((i, BitVector(x, mats[i].nrows)) for i, x in chosen),
    )


@dataclass
class _VerifyOutcome:
    condition1: AlignmentViolation | None
    condition2: ListSizeViolation | None
    condition3: RankViolation | None

    def violated_kinds(self) -> list[str]:
        kinds = []
        if self.condition1 is not None:
            kinds.append("condition1")
        if self.condition2 is not None:
            kinds.append("condition2")
        if self.condition3 is not None:
            kinds.append("condition3")
        return kinds

    def first(self) -> SyncViolation | None:
        # canonical priority: rank failures, then alignment, then list size
        return self.condition3 or self.condition1 or self.condition2


def _ball_work_bound(b: int, radius: int) -> int:
    est = 1
    for j in range(radius):
        est *= 3 * (b + j) + 2
    return est


def _alignment_witness(
    params: SyncParams, mats: Sequence[BitMatrix], v_len: int, v_word: int
) -> AlignmentViolation:
    hits = []
    for i, m in enumerate(mats):
        cw = codeword_table(m)
        for x in range(1, 1 << params.msg_bits):
            if (
                edit_distance_words(cw[x], params.block_bits, v_word, v_len)
                <= params.radius
            ):
                hits.append((i, BitVector(x, params.msg_bits)))
                break
        if len(hits) == params.overlap_limit + 1:
            break
    return AlignmentViolation(target=BitVector(v_word, v_len), hits=tuple(hits))


def _list_size_witness(
    params: SyncParams, mats: Sequence[BitMatrix], block: int, v_len: int, v_word: int
) -> ListSizeViolation:
    cw = codeword_table(mats[block])
    msgs = [
        BitVector(x, params.msg_bits)
        for x in range(1 << params.msg_bits)
        if edit_distance_words(cw[x], params.block_bits, v_word, v_len) <= params.radius
    ]
    return ListSizeViolation(
        block=block,
        target=BitVector(v_word, v_len),
        messages=tuple(msgs[: params.list_limit + 1]),
    )


def _verify_fast(
    params: SyncParams, mats: Sequence[BitMatrix], max_work: int
) -> tuple[AlignmentViolation | None, ListSizeViolation | None]:
    n, a, b, radius = params.n, params.msg_bits, params.block_bits, params.radius
    estimate = n * (1 << a) * _ball_work_bound(b, radius)
    if estimate > max_work:
        raise CapExceeded(
            f"fast verification needs about {estimate} steps (cap {max_work})",
            required=estimate,
        )
    # per target (len, word): bitmask of blocks with a nonzero message in
    # range; list-size breaches as (len, word, block)
    block_mask: dict[tuple[int, int], int] = {}
    bad2 = []
    for i, m in enumerate(mats):
        for key, xm in _ball_masks(m, radius).items():
            if xm > 1:
                block_mask[key] = block_mask.get(key, 0) | (1 << i)
            if xm.bit_count() > params.list_limit:
                bad2.append((*key, i))

    cond1 = None
    bad1 = [
        key for key, bm in block_mask.items() if bm.bit_count() > params.overlap_limit
    ]
    if bad1:
        ln, w = min(bad1)
        cond1 = _alignment_witness(params, mats, ln, w)

    cond2 = None
    if bad2:
        ln, w, i = min(bad2)
        cond2 = _list_size_witness(params, mats, i, ln, w)
    return cond1, cond2


def _verify_reference(
    params: SyncParams, mats: Sequence[BitMatrix], max_work: int
) -> tuple[AlignmentViolation | None, ListSizeViolation | None]:
    n, a, b, radius = params.n, params.msg_bits, params.block_bits, params.radius
    lo, hi = max(0, b - radius), b + radius
    estimate = n * (1 << a) * sum(1 << ln for ln in range(lo, hi + 1))
    if estimate > max_work:
        raise CapExceeded(
            f"reference verification needs about {estimate} steps (cap {max_work})",
            required=estimate,
        )
    tables = [codeword_table(m) for m in mats]
    cond1 = None
    cond2 = None
    for ln in range(lo, hi + 1):
        for w in range(1 << ln):
            blocks_hit = 0
            for i in range(n):
                cw = tables[i]
                count = 0
                nonzero_hit = False
                for x in range(1 << a):
                    if edit_distance_words(cw[x], b, w, ln) <= radius:
                        count += 1
                        if x:
                            nonzero_hit = True
                if nonzero_hit:
                    blocks_hit += 1
                if count > params.list_limit and cond2 is None:
                    cond2 = _list_size_witness(params, mats, i, ln, w)
            if blocks_hit > params.overlap_limit and cond1 is None:
                cond1 = _alignment_witness(params, mats, ln, w)
        if cond1 is not None and cond2 is not None:
            break
    return cond1, cond2


def verify_outcome(
    params: SyncParams,
    mats: Sequence[BitMatrix],
    strategy: str = "fast",
    max_work: int = DEFAULT_VERIFY_CAP,
) -> _VerifyOutcome:
    """Full three-condition sweep; exposed for tally-keeping callers."""
    for m in mats:
        if m.dims != (params.msg_bits, params.block_bits):
            raise ValueError("matrix dimensions disagree with params")
    if len(mats) != params.n:
        raise ValueError("matrix count disagrees with params")
    sweeps = {"fast": _verify_fast, "reference": _verify_reference}
    if strategy not in sweeps:
        raise ValueError(f"unknown strategy {strategy!r}")
    cond1, cond2 = sweeps[strategy](params, mats, max_work)
    cond3 = None
    for i, m in enumerate(mats):
        k = left_kernel_vector(m)
        if k is not None:
            cond3 = RankViolation(block=i, kernel=k)
            break
    return _VerifyOutcome(cond1, cond2, cond3)


def verify_sync(
    params: SyncParams,
    mats: Sequence[BitMatrix],
    strategy: str = "fast",
    max_work: int = DEFAULT_VERIFY_CAP,
) -> SyncViolation | None:
    """None when the sequence satisfies all three conditions, else the
    canonical violation (rank first, then alignment, then list size)."""
    return verify_outcome(params, mats, strategy, max_work).first()


@dataclass(frozen=True)
class SampleFailure:
    params: SyncParams
    seed: int
    attempts: int
    condition_tallies: dict[str, int] = field(hash=False, default_factory=dict)

    def to_json(self) -> dict:
        return {
            "params": self.params.to_json(),
            "seed": self.seed,
            "attempts": self.attempts,
            "condition_tallies": dict(self.condition_tallies),
        }


def sample_sync(
    params: SyncParams,
    rng_seed,
    max_retries: int,
    max_work: int = DEFAULT_VERIFY_CAP,
) -> SyncSequence | SampleFailure:
    """Draw i.i.d. uniform sequences until one verifies.

    Matrix i of attempt t is random_matrix(a, b, derive_seed(seed, t, i)),
    so reruns are bit-identical and attempts are independent.  Failure is
    data: the tallies count attempts on which each condition was violated.
    """
    tallies = {"condition1": 0, "condition2": 0, "condition3": 0}
    for attempt in range(max_retries):
        mats = tuple(
            random_matrix(
                params.msg_bits,
                params.block_bits,
                derive_seed("sample_sync", rng_seed, attempt, i),
            )
            for i in range(params.n)
        )
        outcome = verify_outcome(params, mats, "fast", max_work)
        kinds = outcome.violated_kinds()
        if not kinds:
            return SyncSequence(
                params=params,
                mats=mats,
                status="verified",
                seed=rng_seed,
                attempts=attempt + 1,
            )
        for k in kinds:
            tallies[k] += 1
    return SampleFailure(
        params=params, seed=rng_seed, attempts=max_retries, condition_tallies=tallies
    )


@dataclass(frozen=True)
class SearchResult:
    sequence: SyncSequence | None
    seeds_tried: int

    @property
    def exhausted(self) -> bool:
        return self.sequence is None


def search_over_seeds(
    params: SyncParams,
    seed_bits: int,
    expand: Callable[[int], Sequence[BitMatrix]],
    cap_bits: int = 20,
    max_work: int = DEFAULT_VERIFY_CAP,
) -> SearchResult:
    """Try every master seed of ``seed_bits`` bits in ascending order and
    return the first whose expansion verifies; lowest seed wins so results
    are schedule-independent."""
    if seed_bits > cap_bits:
        raise CapExceeded(
            f"seed space of {seed_bits} bits exceeds the {cap_bits}-bit cap",
            required=1 << seed_bits,
        )
    total = 1 << seed_bits if seed_bits >= 0 else 0
    tried = 0
    for master in range(total):
        mats = tuple(expand(master))
        tried += 1
        if verify_sync(params, mats, "fast", max_work) is None:
            return SearchResult(
                sequence=SyncSequence(
                    params=params,
                    mats=mats,
                    status="verified",
                    seed=master,
                    attempts=tried,
                ),
                seeds_tried=tried,
            )
    return SearchResult(sequence=None, seeds_tried=tried)


def derandomized_search(
    params: SyncParams,
    kwise_spec: KWiseSamplerSpec,
    bias_spec: BiasedGeneratorSpec,
    cap_bits: int = 20,
    max_work: int = DEFAULT_VERIFY_CAP,
) -> SearchResult:
    """Exhaust the k-wise master seeds; matrix i is the small-bias
    expansion of sample i reshaped to a-by-b.

    A zero-coefficient sampler (k = 0) has an empty seed space and returns
    exhausted immediately.
    """
    ab = params.msg_bits * params.block_bits
    if bias_spec.output_len != ab:
        raise ValueError("bias generator output length must equal msg_bits * block_bits")
    if kwise_spec.value_bits != bias_spec.seed_len:
        raise ValueError("sampler value width must equal the bias generator seed length")
    if kwise_spec.domain_size < params.n:
        raise ValueError("sampler domain is smaller than the sequence length")
    if kwise_spec.k == 0:
        return SearchResult(sequence=None, seeds_tried=0)

    b = params.block_bits
    mask = (1 << b) - 1

    def expand(master: int) -> list[BitMatrix]:
        seed = BitVector(master, kwise_spec.seed_len)
        mats = []
        for i in range(params.n):
            r_i = kwise_sample(kwise_spec, seed, i)
            flat = eps_biased_expand(bias_spec, r_i).bits
            rows = tuple((flat >> (r * b)) & mask for r in range(params.msg_bits))
            mats.append(BitMatrix(rows, b))
        return mats

    return search_over_seeds(params, kwise_spec.seed_len, expand, cap_bits, max_work)


@dataclass(frozen=True)
class RateBoundReport:
    ratio: Fraction
    ceiling: Fraction
    dimension_ok: bool

    def to_json(self) -> dict:
        return {
            "ratio": str(self.ratio),
            "ceiling": str(self.ceiling),
            "dimension_ok": self.dimension_ok,
        }


def sync_rate_bound(params: SyncParams) -> RateBoundReport:
    """Rate a/b against the l/(l+1) ceiling implied by the overlap bound;
    dimension_ok records (l+1)*a - l*b <= 0."""
    l = params.overlap_limit
    return RateBoundReport(
        ratio=Fraction(params.msg_bits, params.block_bits),
        ceiling=Fraction(l, l + 1),
        dimension_ok=(l + 1) * params.msg_bits - l * params.block_bits <= 0,
    )
