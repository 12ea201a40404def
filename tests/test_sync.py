import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from editsync import sync
from editsync.bitlinalg import BitMatrix, BitVector, codeword_table, mat_vec_mul, random_matrix
from editsync.edit_metric import ball_words, edit_distance
from editsync.errors import CapExceeded
from editsync.pseudorandom import BiasedGeneratorSpec, KWiseSamplerSpec
from editsync.rng import derive_seed
from editsync.sync import (
    AlignmentViolation,
    ListSizeViolation,
    RankViolation,
    SampleFailure,
    SyncParams,
    SyncSequence,
    check_rowspace_condition,
    derandomized_search,
    sample_sync,
    search_over_seeds,
    sync_rate_bound,
    verify_outcome,
    verify_sync,
)

DISJOINT = (
    BitMatrix.from_rows(["1000", "0100"]),
    BitMatrix.from_rows(["0010", "0001"]),
)
PAIR_PARAMS = SyncParams(
    n=2, msg_bits=2, block_bits=4, delta=Fraction(0), overlap_limit=1, list_limit=1
)


def revalidate(params: SyncParams, mats, violation) -> None:
    """Witnesses must hold under direct re-computation."""
    if isinstance(violation, AlignmentViolation):
        blocks = [i for i, _ in violation.hits]
        assert len(set(blocks)) == params.overlap_limit + 1
        for i, x in violation.hits:
            assert x.bits != 0
            d = edit_distance(mat_vec_mul(x, mats[i]), violation.target)
            assert d <= params.radius
    elif isinstance(violation, ListSizeViolation):
        assert len(violation.messages) == params.list_limit + 1
        assert len(set(violation.messages)) == params.list_limit + 1
        for x in violation.messages:
            d = edit_distance(mat_vec_mul(x, mats[violation.block]), violation.target)
            assert d <= params.radius
    elif isinstance(violation, RankViolation):
        assert violation.kernel.bits != 0
        assert mat_vec_mul(violation.kernel, mats[violation.block]).bits == 0
    else:
        raise AssertionError(f"unexpected violation {violation!r}")


class TestParams:
    def test_radius(self):
        p = SyncParams(4, 3, 9, Fraction(1, 4), 2, 4)
        assert p.radius == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            SyncParams(4, 5, 4, Fraction(0), 1, 1)  # msg_bits > block_bits
        with pytest.raises(ValueError):
            SyncParams(4, 2, 4, Fraction(3, 2), 1, 1)  # radius > block_bits

    def test_json_round_trip(self):
        p = SyncParams(4, 3, 9, Fraction(1, 4), 2, 4)
        assert SyncParams.from_json(p.to_json()) == p


def bfs_masks(mat: BitMatrix, radius: int) -> dict[tuple[int, int], int]:
    """{(length, word): bitmask of the messages within ``radius`` edits},
    from one breadth-first ``ball_words`` enumeration per codeword."""
    masks = {}
    for x, c in enumerate(codeword_table(mat)):
        for key in ball_words(c, mat.cols, radius):
            masks[key] = masks.get(key, 0) | (1 << x)
    return masks


def index_masks(mat: BitMatrix, radius: int) -> dict[tuple[int, int], int]:
    keys, msgs = sync._ball_index(mat, radius)
    pairs = list(zip(keys.tolist(), msgs.tolist()))
    assert pairs == sorted(set(pairs))  # distinct and sorted by key, then message
    masks = {}
    for key, x in pairs:
        target = sync._target(key)
        masks[target] = masks.get(target, 0) | (1 << x)
    return masks


@st.composite
def index_cases(draw):
    radius = draw(st.integers(0, 3))
    a = draw(st.integers(1, 3 if radius == 3 else 4))
    b = draw(st.integers(a, 7 if radius == 3 else 10))
    return random_matrix(a, b, draw(st.integers(0, 2**32))), radius


class TestBallIndex:
    @given(index_cases())
    def test_matches_bfs_masks(self, case):
        mat, radius = case
        assert index_masks(mat, radius) == bfs_masks(mat, radius)

    @pytest.mark.parametrize("entries", [29 * 11, 3 * 29 * 11])
    def test_message_chunks_do_not_change_the_index(self, monkeypatch, entries):
        # 4x9 at radius 2 bounds a message's round at 29 * 11 entries, so
        # these give chunks of 1 and of 3 messages (the last one short)
        mat = random_matrix(4, 9, 5)
        whole = sync._ball_index(mat, 2)
        monkeypatch.setattr(sync, "BALL_ROUND_ENTRIES", entries)
        chunked = sync._ball_index(mat, 2)
        assert all(map(np.array_equal, whole, chunked))

    def test_one_message_over_the_round_cap_raises(self, monkeypatch):
        monkeypatch.setattr(sync, "BALL_ROUND_ENTRIES", 100)
        with pytest.raises(CapExceeded) as exc:
            sync._ball_index(random_matrix(4, 9, 5), 2)
        assert exc.value.required > 100

    def test_62_bit_keys_are_exact(self):
        mat = random_matrix(1, 58, 3)  # 58 + radius 2 + 1 + 1 = 62 bits
        assert index_masks(mat, 2) == bfs_masks(mat, 2)

    @pytest.mark.parametrize("a, b, radius", [(1, 59, 2), (24, 36, 2)])
    def test_wider_keys_raise_before_building(self, monkeypatch, a, b, radius):
        def no_table(mat):
            raise AssertionError("codeword table built before the width check")

        monkeypatch.setattr(sync, "codeword_table", no_table)
        with pytest.raises(CapExceeded) as exc:
            sync._ball_index(random_matrix(a, b, 0), radius)
        assert exc.value.required == a + b + radius + 1 > 62

    @pytest.mark.parametrize(
        "l, L, seed, kinds",
        [
            (1, 6, 0, ["condition1"]),
            (1, 4, 2, ["condition1", "condition2", "condition3"]),
            (2, 6, 0, []),
        ],
    )
    def test_fast_matches_reference_at_128_messages(self, l, L, seed, kinds):
        params = SyncParams(
            n=2, msg_bits=7, block_bits=8, delta=Fraction(1, 8), overlap_limit=l, list_limit=L
        )
        mats = tuple(random_matrix(7, 8, derive_seed("a7", seed, i)) for i in range(2))
        fast = verify_outcome(params, mats, "fast")
        assert fast == verify_outcome(params, mats, "reference")
        assert fast.violated_kinds() == kinds

    def test_rowspace_matches_scalar_oracle_at_128_messages(self):
        def oracle(mats, limit):
            per = {}  # nonzero codeword -> {block: least message}
            for i, m in enumerate(mats):
                for x, c in enumerate(codeword_table(m)):
                    if c:
                        per.setdefault(c, {}).setdefault(i, x)
            bad = [v for v, blocks in per.items() if len(blocks) > limit]
            if not bad:
                return None
            v = min(bad)
            return AlignmentViolation(
                target=BitVector(v, 14),
                hits=tuple((i, BitVector(x, 7)) for i, x in sorted(per[v].items())[: limit + 1]),
            )

        verdicts = set()
        for seed in range(8):
            mats = [random_matrix(7, 14, derive_seed("rs7", seed, i)) for i in range(3)]
            for limit in (1, 2):
                got = check_rowspace_condition(mats, limit)
                assert got == oracle(mats, limit)
                verdicts.add(got is None)
        assert verdicts == {True, False}


class TestRowspaceCondition:
    def test_disjoint_pass(self):
        assert check_rowspace_condition(DISJOINT, 1) is None

    def test_duplicate_violates(self):
        m = BitMatrix.from_rows(["1000", "0100"])
        v = check_rowspace_condition([m, m], 1)
        assert isinstance(v, AlignmentViolation)
        assert v.target.bits != 0

    def test_zero_matrix_block_hits_nothing(self):
        m = BitMatrix.from_rows(["1000", "0100"])
        v = check_rowspace_condition([BitMatrix.zero(2, 4), m, m], 1)
        assert v == AlignmentViolation(
            target=BitVector(1, 4),  # row 0, the least nonzero codeword
            hits=((1, BitVector(1, 2)), (2, BitVector(1, 2))),
        )

    def test_vacuous_below_subset_size(self):
        m = BitMatrix.from_rows(["1000", "0100"])
        assert check_rowspace_condition([m, m], 2) is None

    def test_agrees_with_subset_enumeration(self):
        import itertools

        from editsync.bitlinalg import row_space_intersection

        for seed in range(15):
            mats = [random_matrix(3, 9, derive_seed("rs", seed, i)) for i in range(5)]
            got = check_rowspace_condition(mats, 2)
            some_nontrivial = any(
                row_space_intersection([mats[i] for i in subset])
                for subset in itertools.combinations(range(5), 3)
            )
            assert (got is not None) == some_nontrivial


class TestVerifySync:
    def test_disjoint_pair_passes_both_strategies(self):
        assert verify_sync(PAIR_PARAMS, DISJOINT, "fast") is None
        assert verify_sync(PAIR_PARAMS, DISJOINT, "reference") is None

    def test_duplicate_pair_condition1(self):
        m = BitMatrix.from_rows(["1000", "0100"])
        v = verify_sync(PAIR_PARAMS, (m, m))
        assert isinstance(v, AlignmentViolation)
        revalidate(PAIR_PARAMS, (m, m), v)

    def test_rank_deficient_condition3(self):
        mats = (
            BitMatrix.from_rows(["1000", "0100"]),
            BitMatrix.from_rows(["0010", "0010"]),
        )
        v = verify_sync(PAIR_PARAMS, mats)
        assert isinstance(v, RankViolation)
        assert v.block == 1
        revalidate(PAIR_PARAMS, mats, v)

    def test_strategies_agree_on_seeded_instances(self):
        params = SyncParams(
            n=4, msg_bits=3, block_bits=6, delta=Fraction(1, 6), overlap_limit=2, list_limit=4
        )
        assert params.radius == 1
        verdicts = {"pass": 0, "fail": 0}
        for seed in range(50):
            mats = tuple(
                random_matrix(3, 6, derive_seed("xcheck", seed, i)) for i in range(4)
            )
            fast = verify_sync(params, mats, "fast")
            ref = verify_sync(params, mats, "reference")
            if fast is None:
                assert ref is None
                verdicts["pass"] += 1
            else:
                assert ref is not None
                assert fast.kind == ref.kind
                assert fast == ref  # canonical witnesses coincide
                revalidate(params, mats, fast)
                verdicts["fail"] += 1
        assert verdicts["fail"] > 0  # instance family is small enough to fail sometimes

    @pytest.mark.parametrize(
        "n,a,b,delta,l,L",
        [
            (3, 2, 4, Fraction(0), 1, 1),
            (4, 2, 5, Fraction(1, 5), 1, 2),
            (3, 3, 5, Fraction(0), 2, 2),
            (4, 3, 6, Fraction(1, 6), 1, 2),
            (2, 2, 6, Fraction(1, 3), 1, 4),
        ],
    )
    def test_strategy_agreement_across_dimension_grid(self, n, a, b, delta, l, L):
        params = SyncParams(
            n=n, msg_bits=a, block_bits=b, delta=delta, overlap_limit=l, list_limit=L
        )
        passes = 0
        for seed in range(12):
            mats = tuple(
                random_matrix(a, b, derive_seed("grid", n, a, b, seed, i))
                for i in range(n)
            )
            fast = verify_sync(params, mats, "fast")
            ref = verify_sync(params, mats, "reference")
            assert fast == ref
            if fast is None:
                passes += 1
            else:
                revalidate(params, mats, fast)

    def test_monotone_in_radius(self, desk_sync):
        # a sequence verified at radius 2 passes at radius 1 and 0
        for delta in (Fraction(1, 16), Fraction(0)):
            shrunk = SyncParams(
                n=8, msg_bits=4, block_bits=16, delta=delta,
                overlap_limit=3, list_limit=8,
            )
            assert verify_sync(shrunk, desk_sync.mats) is None

    def test_verified_radius0_l1_implies_rowspace_pass(self):
        assert verify_sync(PAIR_PARAMS, DISJOINT) is None
        assert check_rowspace_condition(DISJOINT, 1) is None

    def test_list_size_counts_the_zero_message(self):
        # target "0" is one edit from both the zero codeword and "10", so
        # the list at radius 1 has two messages and overflows L=1; counting
        # excludes nothing
        params = SyncParams(
            n=1, msg_bits=1, block_bits=2, delta=Fraction(1, 2),
            overlap_limit=1, list_limit=1,
        )
        m = BitMatrix.from_rows(["10"])
        v = verify_sync(params, (m,))
        assert isinstance(v, ListSizeViolation)
        assert str(v.target) == "0"
        assert {x.bits for x in v.messages} == {0, 1}
        assert verify_sync(params, (m,), "reference") == v

    def test_reference_cap(self):
        params = SyncParams(
            n=8, msg_bits=4, block_bits=16, delta=Fraction(1, 8), overlap_limit=3, list_limit=8
        )
        mats = tuple(random_matrix(4, 16, derive_seed("cap", i)) for i in range(8))
        with pytest.raises(CapExceeded) as exc:
            verify_sync(params, mats, "reference", max_work=10_000)
        assert exc.value.required > 10_000


class TestSampleSync:
    def test_zero_retries_fails_immediately(self):
        res = sample_sync(PAIR_PARAMS, 0, 0)
        assert isinstance(res, SampleFailure)
        assert res.attempts == 0

    def test_finds_small_instance(self):
        params = SyncParams(
            n=4, msg_bits=2, block_bits=10, delta=Fraction(0), overlap_limit=3, list_limit=4
        )
        res = sample_sync(params, 0, 50)
        assert isinstance(res, SyncSequence)
        assert res.status == "verified"
        assert verify_sync(params, res.mats) is None

    def test_radius_zero_desk_dims_succeed_quickly(self):
        params = SyncParams(
            n=8, msg_bits=4, block_bits=16, delta=Fraction(0), overlap_limit=3, list_limit=8
        )
        res = sample_sync(params, 1, 100)
        assert isinstance(res, SyncSequence)
        assert res.attempts <= 100

    def test_failure_reports_tallies(self):
        # length-1 blocks cannot separate anything: always fails
        params = SyncParams(
            n=4, msg_bits=1, block_bits=1, delta=Fraction(0), overlap_limit=1, list_limit=1
        )
        res = sample_sync(params, 0, 5)
        assert isinstance(res, SampleFailure)
        assert res.attempts == 5
        assert sum(res.condition_tallies.values()) >= 5


class TestDerandomizedSearch:
    def test_planted_sequence_found_at_seed_zero(self):
        params = PAIR_PARAMS

        def expand(master):
            return DISJOINT  # every seed expands to a known-good sequence

        res = search_over_seeds(params, seed_bits=4, expand=expand)
        assert res.sequence is not None
        assert res.sequence.seed == 0
        assert res.seeds_tried == 1

    def test_matches_direct_sweep(self):
        from editsync.pseudorandom import eps_biased_expand, kwise_sample

        params = SyncParams(
            n=2, msg_bits=1, block_bits=2, delta=Fraction(0), overlap_limit=1, list_limit=1
        )
        bias = BiasedGeneratorSpec(output_len=2, epsilon=Fraction(1, 2))
        kwise = KWiseSamplerSpec(k=2, domain_size=2, value_bits=bias.seed_len)
        res = derandomized_search(params, kwise, bias, cap_bits=20)
        # direct sweep over the same master seeds
        found = None
        for master in range(1 << kwise.seed_len):
            seed = BitVector(master, kwise.seed_len)
            mats = []
            for i in range(2):
                r = kwise_sample(kwise, seed, i)
                flat = eps_biased_expand(bias, r).bits
                mats.append(BitMatrix((flat & 3,), 2))
            if verify_sync(params, tuple(mats)) is None:
                found = master
                break
        if found is None:
            assert res.exhausted
        else:
            assert res.sequence is not None and res.sequence.seed == found

    def test_finds_verified_sequence_through_real_generators(self):
        params = SyncParams(
            n=2, msg_bits=1, block_bits=2, delta=Fraction(0), overlap_limit=1, list_limit=2
        )
        bias = BiasedGeneratorSpec(output_len=2, epsilon=Fraction(1, 2))
        kwise = KWiseSamplerSpec(k=2, domain_size=2, value_bits=bias.seed_len)
        res = derandomized_search(params, kwise, bias)
        assert res.sequence is not None
        assert verify_sync(params, res.sequence.mats) is None
        assert res.sequence.seed == 20  # frozen regression value; generators are bit-exact

    def test_k_zero_is_exhausted(self):
        params = PAIR_PARAMS
        bias = BiasedGeneratorSpec(output_len=8, epsilon=Fraction(1, 8))
        kwise = KWiseSamplerSpec(k=0, domain_size=2, value_bits=bias.seed_len)
        res = derandomized_search(params, kwise, bias)
        assert res.exhausted
        assert res.seeds_tried == 0

    def test_cap(self):
        params = PAIR_PARAMS
        bias = BiasedGeneratorSpec(output_len=8, epsilon=Fraction(1, 1024))
        kwise = KWiseSamplerSpec(k=3, domain_size=2, value_bits=bias.seed_len)
        with pytest.raises(CapExceeded):
            derandomized_search(params, kwise, bias, cap_bits=20)


class TestRateBound:
    def test_half(self):
        p = SyncParams(2, 2, 4, Fraction(0), 1, 1)
        rep = sync_rate_bound(p)
        assert rep.ratio == Fraction(1, 2) == rep.ceiling
        assert rep.dimension_ok

    def test_three_quarters(self):
        p = SyncParams(2, 3, 4, Fraction(0), 3, 1)
        rep = sync_rate_bound(p)
        assert rep.ratio == Fraction(3, 4) == rep.ceiling
        assert rep.dimension_ok

    def test_violation_flagged(self):
        p = SyncParams(2, 4, 4, Fraction(0), 1, 1)
        rep = sync_rate_bound(p)
        assert not rep.dimension_ok


class TestSequenceSerialization:
    def test_round_trip_and_hash(self, desk_sync):
        obj = desk_sync.to_json()
        again = SyncSequence.from_json(obj)
        assert again == desk_sync
        assert again.content_hash() == obj["hash"]

    def test_tamper_detection(self, desk_sync):
        obj = json.loads(json.dumps(desk_sync.to_json()))
        row = obj["matrices"][0]["rows"][0]
        obj["matrices"][0]["rows"][0] = format(int(row, 16) ^ 1, f"0{len(row)}x")
        with pytest.raises(ValueError, match="hash"):
            SyncSequence.from_json(obj)

    @pytest.mark.parametrize("tampered", [False, True])
    @pytest.mark.parametrize("hash_value", ["missing", None])
    def test_missing_or_null_hash_rejected(self, desk_sync, hash_value, tampered):
        obj = json.loads(json.dumps(desk_sync.to_json()))
        if hash_value == "missing":
            del obj["hash"]
        else:
            obj["hash"] = hash_value
        if tampered:
            row = obj["matrices"][0]["rows"][0]
            obj["matrices"][0]["rows"][0] = format(int(row, 16) ^ 1, f"0{len(row)}x")
        with pytest.raises(ValueError, match="hash"):
            SyncSequence.from_json(obj)

    def test_refuted_round_trip(self):
        m = BitMatrix.from_rows(["1000", "0100"])
        v = verify_sync(PAIR_PARAMS, (m, m))
        seq = SyncSequence(
            params=PAIR_PARAMS, mats=(m, m), status="refuted", violation=v
        )
        again = SyncSequence.from_json(seq.to_json())
        assert again.violation == v
