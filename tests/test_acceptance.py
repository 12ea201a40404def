"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every tolerance is pinned here; nothing is deferred.
"""

import itertools
import math
from fractions import Fraction

from editsync.bitlinalg import BitMatrix, BitVector, codeword_table, random_matrix
from editsync.codec import concat_encode, decode, derive_params, scan_windows
from editsync.edit_metric import (
    EditBallQuery,
    ball_enumerate,
    check_ball_size_bound,
    edit_distance,
    edit_distance_words,
)
from editsync.inner_code import measure_list_decodability
from editsync.outer_code import fold_symbols, outer_encode, unfold_symbols
from editsync.pseudorandom import (
    BiasedGeneratorSpec,
    KWiseSamplerSpec,
    expand_all_seeds,
    kwise_sample,
    measure_bias,
    xor_lemma_report,
)
from editsync.rng import CounterRng, derive_seed
from editsync.sync import (
    SyncParams,
    SyncSequence,
    sample_sync,
    verify_sync,
)

from conftest import FIXTURE_DIR
from test_codec import corrupt_block
from test_sync import revalidate

# retry budget from the 1000-attempt calibration run (9.6% success rate per
# attempt): (1 - 0.096)^137 < 1e-6
DESK_RETRY_BUDGET = 137
DESK_FIXTURE_SEED = 0


def _criterion(cid: int, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] criterion {cid:02d}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def _indel_dp(x: BitVector, y: BitVector) -> int:
    # direct insertion/deletion dynamic program, the independent oracle
    xs, ys = list(x), list(y)
    n = len(ys)
    prev = list(range(n + 1))
    for i, xi in enumerate(xs, start=1):
        cur = [i] + [0] * n
        for j in range(1, n + 1):
            best = prev[j] + 1
            c = cur[j - 1] + 1
            if c < best:
                best = c
            if xi == ys[j - 1]:
                d = prev[j - 1]
                if d < best:
                    best = d
            cur[j] = best
        prev = cur
    return prev[n]


def test_criterion_01_edit_distance_oracle():
    rng = CounterRng("acceptance-1")
    mismatches = 0
    for _ in range(10_000):
        n1, n2 = rng.randbelow(65), rng.randbelow(65)
        x = BitVector(rng.bits(n1), n1)
        y = BitVector(rng.bits(n2), n2)
        if edit_distance(x, y) != _indel_dp(x, y):
            mismatches += 1
    _criterion(1, mismatches == 0, f"{mismatches} mismatches over 10^4 pairs")


def test_criterion_02_ball_correctness():
    bad = 0
    checked = 0
    for n in range(9):
        for cw in range(1 << n):
            center = BitVector(cw, n)
            # distance from the center to every candidate, computed once
            by_radius = {r: set() for r in range(4)}
            for ln in range(max(0, n - 3), n + 4):
                for w in range(1 << ln):
                    d = edit_distance_words(w, ln, cw, n)
                    for r in range(d, 4):
                        by_radius[r].add((ln, w))
            for r in range(4):
                got = {
                    (v.n, v.bits)
                    for v in ball_enumerate(EditBallQuery(center, r))
                }
                checked += 1
                if got != by_radius[r]:
                    bad += 1
    _criterion(2, bad == 0, f"{checked} (center, radius) pairs, {bad} mismatches")


def test_criterion_03_ball_size_bound():
    failures = []
    for n in (8, 10, 12):
        for delta in (Fraction(1, 10), Fraction(1, 5), Fraction(3, 10), Fraction(1, 2)):
            rep = check_ball_size_bound(n, delta, trials=100, rng_seed=("acc3", n))
            if not rep.passed:
                failures.append((n, delta, rep.max_ball_size, rep.bound))
    _criterion(3, not failures, f"12 (n, delta) combinations, failures: {failures}")


def test_criterion_04_small_bias_and_xor_distance():
    ok = True
    details = []
    for n in (8, 16):
        spec = BiasedGeneratorSpec(output_len=n, epsilon=Fraction(1, 8))
        bias = measure_bias(expand_all_seeds(spec), n)
        details.append(f"n={n}: bias {bias}")
        ok &= bias <= Fraction(1, 8)
    spec8 = BiasedGeneratorSpec(output_len=8, epsilon=Fraction(1, 8))
    rep = xor_lemma_report(expand_all_seeds(spec8), 8)
    ok &= rep.passed and rep.distance <= rep.bias * 16  # 2^(8/2) = 16 exactly
    details.append(f"xor distance {rep.distance} vs {rep.bias}*16")
    _criterion(4, ok, "; ".join(details))


def test_criterion_05_kwise_independence():
    ok = True
    for k in (2, 3):
        spec = KWiseSamplerSpec(k=k, domain_size=4, value_bits=1)
        total = 1 << spec.seed_len
        for subset in itertools.combinations(range(4), k):
            counts = {}
            for s in range(total):
                seed = BitVector(s, spec.seed_len)
                key = tuple(kwise_sample(spec, seed, i).bits for i in subset)
                counts[key] = counts.get(key, 0) + 1
            ok &= len(counts) == (1 << k) and set(counts.values()) == {total >> k}
    _criterion(5, ok, "pairs at k=2 and triples at k=3 exactly uniform")


def test_criterion_06_sync_verifier_cross_check():
    params = SyncParams(
        n=4, msg_bits=3, block_bits=6, delta=Fraction(1, 6),
        overlap_limit=2, list_limit=4,
    )
    assert params.radius == 1
    agree = 0
    fails = 0
    for seed in range(50):
        mats = tuple(
            random_matrix(3, 6, derive_seed("acc6", seed, i)) for i in range(4)
        )
        fast = verify_sync(params, mats, "fast")
        ref = verify_sync(params, mats, "reference")
        if fast is None and ref is None:
            agree += 1
            continue
        if fast is None or ref is None or fast.kind != ref.kind:
            break
        revalidate(params, mats, fast)
        revalidate(params, mats, ref)
        agree += 1
        fails += 1
    _criterion(6, agree == 50, f"{agree}/50 verdicts agree, {fails} refutations re-validated")


def test_criterion_07_deterministic_sync_fixtures():
    pair_params = SyncParams(
        n=2, msg_bits=2, block_bits=4, delta=Fraction(0), overlap_limit=1, list_limit=1
    )
    disjoint = (
        BitMatrix.from_rows(["1000", "0100"]),
        BitMatrix.from_rows(["0010", "0001"]),
    )
    dup = (
        BitMatrix.from_rows(["1000", "0100"]),
        BitMatrix.from_rows(["1000", "0100"]),
    )
    ok = verify_sync(pair_params, disjoint) is None
    v = verify_sync(pair_params, dup)
    ok &= v is not None and v.kind == "condition1"
    _criterion(7, ok, "disjoint pair verified; duplicated pair refuted via condition1")


def test_criterion_08_sync_search_at_desk_profile(desk_sync_params, desk_sync):
    result = sample_sync(desk_sync_params, DESK_FIXTURE_SEED, DESK_RETRY_BUDGET)
    ok = isinstance(result, SyncSequence) and result.status == "verified"
    detail = ""
    if ok:
        regenerated = result.to_json()
        shipped = __import__("json").loads(
            (FIXTURE_DIR / "sync_sequence.json").read_text()
        )
        ok &= regenerated == shipped
        ok &= result.content_hash() == desk_sync.content_hash()
        detail = (
            f"attempt {result.attempts} of budget {DESK_RETRY_BUDGET}, "
            f"fixture regenerated bit-exactly"
        )
    _criterion(8, ok, detail)


def test_criterion_09_capture_property(desk_params, desk_sync, desk_outer):
    misses = 0
    for r in (0, 1, 2):
        rng = CounterRng("acc9", r)
        for trial in range(100):
            msg = BitVector(rng.bits(16), 16)
            cw = concat_encode(desk_params, desk_sync, desk_outer, msg)
            block = rng.randbelow(8)
            y = corrupt_block(cw.bits, block, 16, r, ("acc9", r, trial))
            boxes, _ = scan_windows(desk_sync, y, threshold=2 * r, step=1)
            symbols = outer_encode(desk_outer, fold_symbols(msg, 4))
            true_x = unfold_symbols(symbols[block : block + 1], 4)
            if true_x not in boxes[block]:
                misses += 1
    _criterion(9, misses == 0, f"300 trials across r in {{0,1,2}}, {misses} misses")


def test_criterion_10_end_to_end_decoding(desk_params, desk_sync, desk_outer):
    missed = 0
    sync_breaches = 0
    for trial in range(100):
        rng = CounterRng("acc10", trial)
        msg = BitVector(rng.bits(16), 16)
        cw = concat_encode(desk_params, desk_sync, desk_outer, msg)
        b1 = rng.randbelow(8)
        b2 = (b1 + 1 + rng.randbelow(7)) % 8
        y = cw.bits
        for blk in sorted((b1, b2), reverse=True):
            y = corrupt_block(y, blk, 16, 1, ("acc10", trial, blk))
        out, report = decode(desk_params, desk_sync, desk_outer, y)
        if msg not in out:
            missed += 1
        if (
            report.max_distinct_blocks_per_window > desk_params.overlap_limit
            or report.max_vectors_per_block_window > desk_params.list_limit
        ):
            sync_breaches += 1
    _criterion(
        10,
        missed == 0 and sync_breaches == 0,
        f"100 trials: {100 - missed} recovered, {sync_breaches} window-budget breaches",
    )


def test_criterion_11_block_deletion_channel(desk_params, desk_sync, desk_outer):
    missed = 0
    for trial in range(100):
        rng = CounterRng("acc11", trial)
        msg = BitVector(rng.bits(16), 16)
        cw = concat_encode(desk_params, desk_sync, desk_outer, msg)
        blk = rng.randbelow(8)
        word, n = cw.bits.bits, cw.bits.n
        lo = word & ((1 << (blk * 16)) - 1)
        hi = word >> ((blk + 1) * 16)
        y = BitVector(lo | (hi << (blk * 16)), n - 16)
        out, _ = decode(desk_params, desk_sync, desk_outer, y)
        if msg not in out:
            missed += 1
    _criterion(11, missed == 0, f"100 trials, {100 - missed} recovered")


def test_criterion_12_parameter_calculator():
    rep16 = derive_params(Fraction(1, 16), 64)
    ok = not rep16.feasible and rep16.inner_rate < 0

    rep256 = derive_params(Fraction(1, 256), 1 << 20)
    ok &= rep256.delta == Fraction(1, 64)
    ok &= rep256.overlap_limit == 255
    ok &= rep256.block_bits == 20480
    # independent recomputation of 1 - 2/256 - 5*H(1/64)
    p = 1.0 / 64.0
    h = -p * math.log2(p) - (1 - p) * math.log2(1 - p)
    independent = 1.0 - 2.0 / 256.0 - 5.0 * h
    ok &= abs(rep256.inner_rate - independent) < 1e-3
    _criterion(
        12,
        ok,
        f"gamma=1/16 infeasible; gamma=1/256 rate {rep256.inner_rate:.4f} "
        f"vs independent {independent:.4f}",
    )


def test_criterion_13_capacity_experiment_consistency():
    k, n, radius = 4, 12, 1
    disagreements = 0
    for trial in range(20):
        g = random_matrix(k, n, derive_seed("acc13", trial))
        fast, _ = measure_list_decodability(g, radius)
        table = codeword_table(g)
        naive = 0
        for ln in range(n - radius, n + radius + 1):
            for w in range(1 << ln):
                count = 0
                for x in range(1 << k):
                    if edit_distance_words(table[x], n, w, ln) <= radius:
                        count += 1
                if count > naive:
                    naive = count
        if fast != naive:
            disagreements += 1
    _criterion(13, disagreements == 0, f"20 trials, {disagreements} disagreements")
