"""Concatenated encoder, window-scanning box decoder, and edit channel.

Encoding: fold the message into outer-code symbols, encode, regroup each
block's symbols into a-bit vectors, multiply by the block's sync matrix.

Decoding runs in two stages.  Stage 1 slides length-b windows across the
received string at a fixed step and, for every (window, block) pair, adds
the block's list-decoded candidates to that block's box; the zero vector
is then added to every box.  Stage 2 empties boxes that grew beyond the
per-position limit, folds the survivors into per-symbol candidate sets,
and hands them to outer list recovery.

Windows are 0-based half-open intervals [t*i, t*i + b) for every start
t*i < len(received), truncated at the end of the string; scanning stops at
the string end rather than running a fixed window count past it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

from .bitlinalg import BitVector
from .edit_metric import binary_entropy
from .inner_code import InnerCode, inner_encode, inner_list_decode
from .outer_code import (
    OuterCodeSpec,
    RecoveryInput,
    fold_symbols,
    list_recover,
    outer_encode,
    unfold_symbols,
)
from .rng import CounterRng
from .sync import SyncSequence


def _floor(x: Fraction) -> int:
    return x.numerator // x.denominator


def _derived_fields(gamma: Fraction, n: int) -> dict:
    """The parameter formulas: delta = 4*gamma, overlap limit
    ceil(1/gamma) - 1, list limit 2^(l+1), inner rate 1 - 2/(l+1) -
    5*H(delta), block width ceil(4*(l+1)*log2 n), message width
    floor(rate*b), box limit ceil(L/gamma^3), window step floor(gamma*b)
    (at least 1), threshold floor(delta*b), edit budget floor(gamma^2*b*n).

    Counts that explode (list and box limits) stay exact integers.
    """
    delta = 4 * gamma
    l = math.ceil(1 / gamma) - 1
    list_limit = 1 << (l + 1)
    rate = 1.0 - 2.0 / (l + 1) - 5.0 * binary_entropy(delta)
    b = math.ceil(4 * (l + 1) * math.log2(n))
    return {
        "delta": delta,
        "overlap_limit": l,
        "list_limit": list_limit,
        "inner_rate": rate,
        "msg_bits": math.floor(rate * b),
        "block_bits": b,
        "box_limit": math.ceil(list_limit / gamma**3),
        "window_step": max(1, _floor(gamma * b)),
        "threshold": _floor(delta * b),
        "edit_budget": _floor(gamma * gamma * b * n),
    }


@dataclass(frozen=True)
class ConcatParams:
    """Full parameter bundle for one concatenated-code instance.

    ``derived`` instances come out of derive_params and are re-checked
    against the derivation formulas; ``override`` instances carry
    hand-picked desk values and only basic consistency is enforced.
    """

    mode: str
    n: int
    msg_bits: int
    block_bits: int
    overlap_limit: int
    list_limit: int
    box_limit: int
    window_step: int
    threshold: int
    edit_budget: int
    gamma: Fraction | None = None
    delta: Fraction | None = None

    def __post_init__(self):
        if self.mode not in ("derived", "override"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.gamma is not None:
            object.__setattr__(self, "gamma", Fraction(self.gamma))
        if self.delta is not None:
            object.__setattr__(self, "delta", Fraction(self.delta))
        if self.n < 1:
            raise ValueError("block count must be at least 1")
        if not 1 <= self.msg_bits <= self.block_bits:
            raise ValueError("need 1 <= msg_bits <= block_bits")
        if self.window_step < 1:
            raise ValueError("window step must be at least 1")
        if not 0 <= self.threshold <= self.block_bits:
            raise ValueError("threshold must lie in [0, block_bits]")
        if self.edit_budget < 0:
            raise ValueError("edit budget must be non-negative")
        if self.mode == "derived":
            if self.gamma is None:
                raise ValueError("derived mode requires gamma")
            expected = _derived_fields(self.gamma, self.n)
            del expected["inner_rate"]
            for name, value in expected.items():
                if getattr(self, name) != value:
                    raise ValueError(
                        f"derived-mode field {name} disagrees with the formulas"
                    )

    def to_json(self) -> dict:
        obj = {
            "mode": self.mode,
            "n": self.n,
            "msg_bits": self.msg_bits,
            "block_bits": self.block_bits,
            "overlap_limit": self.overlap_limit,
            "list_limit": self.list_limit,
            "box_limit": self.box_limit,
            "window_step": self.window_step,
            "threshold": self.threshold,
            "edit_budget": self.edit_budget,
        }
        if self.gamma is not None:
            obj["gamma"] = str(self.gamma)
        if self.delta is not None:
            obj["delta"] = str(self.delta)
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "ConcatParams":
        return cls(
            mode=obj["mode"],
            n=obj["n"],
            msg_bits=obj["msg_bits"],
            block_bits=obj["block_bits"],
            overlap_limit=obj["overlap_limit"],
            list_limit=obj["list_limit"],
            box_limit=obj["box_limit"],
            window_step=obj["window_step"],
            threshold=obj["threshold"],
            edit_budget=obj["edit_budget"],
            gamma=Fraction(obj["gamma"]) if "gamma" in obj else None,
            delta=Fraction(obj["delta"]) if "delta" in obj else None,
        )


@dataclass(frozen=True)
class DeriveReport:
    """Evaluation of the derivation formulas at a given corruption rate."""

    gamma: Fraction
    n: int
    delta: Fraction
    overlap_limit: int
    list_limit: int
    inner_rate: float
    block_bits: int
    msg_bits: int
    box_limit: int
    window_step: int
    threshold: int
    edit_budget: int
    rate_lower_bound: float
    feasible: bool
    params: ConcatParams | None

    def to_json(self) -> dict:
        return {
            "gamma": str(self.gamma),
            "n": self.n,
            "delta": str(self.delta),
            "overlap_limit": self.overlap_limit,
            "list_limit_log2": self.overlap_limit + 1,
            "inner_rate": self.inner_rate,
            "block_bits": self.block_bits,
            "msg_bits": self.msg_bits,
            "box_limit_digits": len(str(self.box_limit)),
            "window_step": self.window_step,
            "threshold": self.threshold,
            "edit_budget": self.edit_budget,
            "rate_lower_bound": self.rate_lower_bound,
            "feasible": self.feasible,
            "params": self.params.to_json() if self.params is not None else None,
        }


def derive_params(gamma, n: int, c1: float = 1.0) -> DeriveReport:
    """Evaluate the parameter formulas at a corruption rate gamma; the
    instance is infeasible when the inner rate comes out non-positive."""
    gamma = Fraction(gamma)
    if not 0 < gamma < Fraction(1, 8):
        raise ValueError("gamma must lie strictly between 0 and 1/8")
    if n < 2:
        raise ValueError("need at least 2 blocks")
    f = _derived_fields(gamma, n)
    rate_bound = (1.0 - c1 * math.sqrt(float(2 * gamma))) * (
        1.0 - float(2 * gamma) - 5.0 * binary_entropy(f["delta"])
    )
    feasible = f["inner_rate"] > 0 and f["msg_bits"] >= 1
    params = None
    if feasible:
        concat_fields = {k: v for k, v in f.items() if k != "inner_rate"}
        params = ConcatParams(mode="derived", n=n, gamma=gamma, **concat_fields)
    return DeriveReport(
        gamma=gamma,
        n=n,
        **f,
        rate_lower_bound=rate_bound,
        feasible=feasible,
        params=params,
    )


@dataclass(frozen=True)
class Codeword:
    blocks: tuple[BitVector, ...]

    @property
    def bits(self) -> BitVector:
        acc = BitVector.zeros(0)
        for b in self.blocks:
            acc = acc.concat(b)
        return acc


def _check_compat(params: ConcatParams, sync: SyncSequence, outer: OuterCodeSpec) -> int:
    """Validate the parameter triple; returns symbols per block."""
    if sync.status != "verified":
        raise ValueError("sync sequence must be verified")
    sp = sync.params
    if (sp.n, sp.msg_bits, sp.block_bits) != (params.n, params.msg_bits, params.block_bits):
        raise ValueError("sync sequence dimensions disagree with codec params")
    if params.msg_bits % outer.symbol_bits != 0:
        raise ValueError("outer symbol width must divide msg_bits")
    per_block = params.msg_bits // outer.symbol_bits
    if outer.block_count != params.n * per_block:
        raise ValueError(
            f"outer code length {outer.block_count} != "
            f"{params.n} blocks * {per_block} symbols"
        )
    return per_block


def concat_encode(
    params: ConcatParams, sync: SyncSequence, outer: OuterCodeSpec, message: BitVector
) -> Codeword:
    """Outer-encode the message, then encode block j with sync matrix j.
    GF(2)-linear end to end."""
    per_block = _check_compat(params, sync, outer)
    if message.n != outer.message_bits:
        raise ValueError(f"message must have {outer.message_bits} bits")
    symbols = outer_encode(outer, fold_symbols(message, outer.symbol_bits))
    blocks = []
    for j in range(params.n):
        chunk = symbols[j * per_block : (j + 1) * per_block]
        x = unfold_symbols(chunk, outer.symbol_bits)
        blocks.append(inner_encode(InnerCode(mat=sync.mats[j], index=j), x))
    return Codeword(blocks=tuple(blocks))


def window_plan(params: ConcatParams, received_len: int) -> list[tuple[int, int]]:
    """Half-open windows [s, min(s + b, len)) for s = 0, t, 2t, ... < len."""
    return _windows(params.block_bits, params.window_step, received_len)


def _windows(width: int, step: int, length: int) -> list[tuple[int, int]]:
    if length < 0:
        raise ValueError("received length must be non-negative")
    if step < 1:
        raise ValueError("window step must be at least 1")
    return [(s, min(s + width, length)) for s in range(0, length, step)]


@dataclass(frozen=True)
class WindowStat:
    start: int
    end: int
    blocks_hit: tuple[tuple[int, int], ...]  # (block index, vectors inserted)

    @property
    def distinct_blocks(self) -> int:
        return len(self.blocks_hit)

    @property
    def max_vectors(self) -> int:
        return max((c for _, c in self.blocks_hit), default=0)


@dataclass(frozen=True)
class DecodeReport:
    windows: tuple[WindowStat, ...]
    box_sizes: tuple[int, ...]  # after stage 1 plus the zero vector
    emptied: tuple[int, ...]
    recovered: int
    stage1_seconds: float
    stage2_seconds: float

    @property
    def max_distinct_blocks_per_window(self) -> int:
        return max((w.distinct_blocks for w in self.windows), default=0)

    @property
    def max_vectors_per_block_window(self) -> int:
        return max((w.max_vectors for w in self.windows), default=0)

    @property
    def total_nonzero_insertions(self) -> int:
        return sum(c for w in self.windows for _, c in w.blocks_hit)

    def to_json(self) -> dict:
        return {
            "windows": [
                {"start": w.start, "end": w.end, "blocks_hit": [list(h) for h in w.blocks_hit]}
                for w in self.windows
            ],
            "box_sizes": list(self.box_sizes),
            "emptied": list(self.emptied),
            "recovered": self.recovered,
            "stage1_seconds": self.stage1_seconds,
            "stage2_seconds": self.stage2_seconds,
            "max_distinct_blocks_per_window": self.max_distinct_blocks_per_window,
            "max_vectors_per_block_window": self.max_vectors_per_block_window,
            "total_nonzero_insertions": self.total_nonzero_insertions,
        }


def scan_windows(
    sync: SyncSequence, y: BitVector, threshold: int, step: int
) -> tuple[list[set[BitVector]], list[WindowStat]]:
    """Stage 1 plus the zero-vector step: box[j] collects every message
    whose block-j codeword lies within ``threshold`` of some window, and
    then the zero vector."""
    n = sync.params.n
    b = sync.params.block_bits
    boxes: list[set[BitVector]] = [set() for _ in range(n)]
    stats: list[WindowStat] = []
    codes = [InnerCode(mat=sync.mats[j], index=j) for j in range(n)]
    for s, e in _windows(b, step, y.n):
        window = y[s:e]
        hits = []
        for j in range(n):
            found = inner_list_decode(codes[j], window, threshold)
            if found:
                boxes[j] |= found
                hits.append((j, len(found)))
        stats.append(WindowStat(start=s, end=e, blocks_hit=tuple(hits)))
    zero = BitVector.zeros(sync.params.msg_bits)
    for box in boxes:
        box.add(zero)
    return boxes, stats


def decode(
    params: ConcatParams, sync: SyncSequence, outer: OuterCodeSpec, y: BitVector
) -> tuple[list[BitVector], DecodeReport]:
    """Window-scanning list decoder; returns candidate messages in
    canonical ascending order plus an audit report."""
    per_block = _check_compat(params, sync, outer)
    if sync.params.radius < params.threshold:
        raise ValueError(
            "sync sequence is verified at a smaller radius than the decoding threshold"
        )
    t0 = time.perf_counter()
    boxes, stats = scan_windows(sync, y, params.threshold, params.window_step)
    t1 = time.perf_counter()
    box_sizes = tuple(len(b) for b in boxes)
    emptied = tuple(j for j, b in enumerate(boxes) if len(b) > params.box_limit)
    for j in emptied:
        boxes[j] = set()
    symbol_sets: list[set[int]] = []
    for j in range(params.n):
        per_symbol: list[set[int]] = [set() for _ in range(per_block)]
        for cand in boxes[j]:
            for pos, s in enumerate(fold_symbols(cand, outer.symbol_bits)):
                per_symbol[pos].add(s)
        symbol_sets.extend(per_symbol)
    recovered = list_recover(
        outer,
        RecoveryInput(
            boxes=tuple(frozenset(s) for s in symbol_sets),
            alpha=outer.recovery.alpha,
        ),
    )
    t2 = time.perf_counter()
    messages = sorted(
        (unfold_symbols(m, outer.symbol_bits) for m in recovered),
        key=lambda v: v.bits,
    )
    report = DecodeReport(
        windows=tuple(stats),
        box_sizes=box_sizes,
        emptied=emptied,
        recovered=len(messages),
        stage1_seconds=t1 - t0,
        stage2_seconds=t2 - t1,
    )
    return messages, report


@dataclass(frozen=True)
class EditOp:
    kind: str  # "delete" | "insert"
    pos: int
    bit: int | None = None

    def __post_init__(self):
        if self.kind not in ("delete", "insert"):
            raise ValueError(f"unknown edit kind {self.kind!r}")
        if self.kind == "insert" and self.bit not in (0, 1):
            raise ValueError("insert needs a bit")

    def to_json(self) -> list:
        return ["delete", self.pos] if self.kind == "delete" else ["insert", self.pos, self.bit]


@dataclass(frozen=True)
class EditScript:
    ops: tuple[EditOp, ...]

    @property
    def cost(self) -> int:
        return len(self.ops)

    def to_json(self) -> dict:
        return {"ops": [op.to_json() for op in self.ops], "cost": self.cost}

    @classmethod
    def from_json(cls, obj: dict) -> "EditScript":
        ops = []
        for raw in obj["ops"]:
            if raw[0] == "delete":
                ops.append(EditOp("delete", raw[1]))
            else:
                ops.append(EditOp("insert", raw[1], raw[2]))
        return cls(ops=tuple(ops))


def apply_edits(x: BitVector, script: EditScript) -> BitVector:
    """Apply operations in order; positions must be valid at application
    time."""
    word, n = x.bits, x.n
    for op in script.ops:
        p = op.pos
        if op.kind == "delete":
            if not 0 <= p < n:
                raise ValueError(f"delete position {p} invalid at length {n}")
            word = (word & ((1 << p) - 1)) | ((word >> (p + 1)) << p)
            n -= 1
        else:
            if not 0 <= p <= n:
                raise ValueError(f"insert position {p} invalid at length {n}")
            low = word & ((1 << p) - 1)
            word = low | (op.bit << p) | ((word >> p) << (p + 1))
            n += 1
    return BitVector(word, n)


def random_edit_script(x: BitVector, budget: int, rng_seed) -> EditScript:
    """Exactly ``budget`` operations; kind, position, and inserted bit are
    uniform at each step (forced to insert on an empty string)."""
    if budget < 0:
        raise ValueError("budget must be non-negative")
    rng = CounterRng("codec.edit_script", rng_seed)
    ops = []
    n = x.n
    for _ in range(budget):
        if n == 0 or rng.bit():
            ops.append(EditOp("insert", rng.randbelow(n + 1), rng.bit()))
            n += 1
        else:
            ops.append(EditOp("delete", rng.randbelow(n)))
            n -= 1
    return EditScript(ops=tuple(ops))


@dataclass(frozen=True)
class RateReport:
    achieved: Fraction
    message_bits: int
    codeword_bits: int
    asymptotic_lower_bound: float | None

    def to_json(self) -> dict:
        return {
            "achieved": str(self.achieved),
            "message_bits": self.message_bits,
            "codeword_bits": self.codeword_bits,
            "asymptotic_lower_bound": self.asymptotic_lower_bound,
        }


def overall_rate(params: ConcatParams, outer: OuterCodeSpec, c1: float = 1.0) -> RateReport:
    """Exact achieved rate of the concrete instance; when gamma is known
    the asymptotic lower-bound expression is evaluated for comparison."""
    msg = outer.message_bits
    total = params.n * params.block_bits
    bound = None
    if params.gamma is not None:
        g = float(params.gamma)
        bound = (1.0 - c1 * math.sqrt(2 * g)) * (
            1.0 - 2 * g - 5.0 * binary_entropy(Fraction(4) * params.gamma)
        )
    return RateReport(
        achieved=Fraction(msg, total),
        message_bits=msg,
        codeword_bits=total,
        asymptotic_lower_bound=bound,
    )
