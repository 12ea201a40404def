import pytest

from editsync.bitlinalg import (
    BitMatrix,
    BitVector,
    codeword_table,
    random_matrix,
    rank,
    solve_left,
)
from editsync.codec import apply_edits, concat_encode, random_edit_script, window_plan
from editsync.edit_metric import (
    EditBallQuery,
    ball_enumerate,
    ball_words,
    edit_distance,
    edit_distance_words,
)
from editsync.inner_code import (
    InnerCode,
    capacity_experiment,
    inner_encode,
    inner_list_decode,
    measure_list_decodability,
)
from editsync.rng import CounterRng, derive_seed


def full_rank_matrix(a: int, b: int, tag) -> BitMatrix:
    seed = 0
    while True:
        m = random_matrix(a, b, derive_seed("fullrank", tag, seed))
        if rank(m) == a:
            return m
        seed += 1


class TestInnerEncode:
    def test_zero(self):
        code = InnerCode(full_rank_matrix(4, 10, "z"))
        assert inner_encode(code, BitVector.zeros(4)).bits == 0

    def test_identity(self):
        code = InnerCode(BitMatrix.identity(4))
        v = BitVector.from_string("1011")
        assert inner_encode(code, v) == v

    def test_round_trip_through_solve(self):
        code = InnerCode(full_rank_matrix(4, 10, "rt"))
        for xw in range(16):
            x = BitVector(xw, 4)
            assert solve_left(code.mat, inner_encode(code, x)) == x

    def test_rank_checked(self):
        with pytest.raises(ValueError):
            InnerCode(BitMatrix.from_rows(["11", "11"]))


class TestInnerListDecode:
    def test_exact_codeword_radius_zero(self):
        code = InnerCode(full_rank_matrix(4, 10, "ex"))
        x = BitVector.from_string("1010")
        assert inner_list_decode(code, inner_encode(code, x), 0) == {x}

    def test_long_received_is_empty(self):
        code = InnerCode(full_rank_matrix(4, 10, "lg"))
        y = BitVector((1 << 12) - 1, 12)
        assert inner_list_decode(code, y, 1) == set()

    def test_zero_message_excluded(self):
        code = InnerCode(full_rank_matrix(4, 10, "zx"))
        assert inner_list_decode(code, BitVector.zeros(10), 0) == set()

    def test_against_ball_and_solve_oracle(self):
        code = InnerCode(full_rank_matrix(4, 10, "orc"))
        rng = CounterRng("ild-oracle")
        for _ in range(25):
            n = 9 + rng.randbelow(3)
            y = BitVector(rng.bits(n), n)
            got = inner_list_decode(code, y, 1)
            ball = ball_enumerate(EditBallQuery(y, 1, length_filter=10))
            expected = set()
            for v in ball:
                x = solve_left(code.mat, v)
                if x is not None and x.bits != 0:
                    expected.add(x)
            assert got == expected

    def test_constructive_soundness(self):
        # x survives any corruption within the decode radius
        code = InnerCode(full_rank_matrix(4, 10, "cs"))
        rng = CounterRng("soundness")
        for trial in range(1000):
            x = BitVector(1 + rng.randbelow(15), 4)
            c = inner_encode(code, x)
            r = rng.randbelow(3)
            y = apply_edits(c, random_edit_script(c, r, ("sound", trial)))
            assert x in inner_list_decode(code, y, r)


def scalar_list_decode(code: InnerCode, y: BitVector, radius: int) -> set[BitVector]:
    """One scalar edit distance per nonzero codeword."""
    a, b = code.msg_bits, code.block_bits
    if y.n > b + radius or y.n < b - radius:
        return set()
    table = codeword_table(code.mat)
    return {
        BitVector(x, a)
        for x in range(1, 1 << a)
        if edit_distance_words(table[x], b, y.bits, y.n) <= radius
    }


class TestListDecodeMatchesScalar:
    def test_every_window_of_corrupted_desk_codewords(
        self, desk_params, desk_sync, desk_outer
    ):
        codes = [InnerCode(mat=m, index=j) for j, m in enumerate(desk_sync.mats)]
        rng = CounterRng("lanes-vs-scalar")
        hits = 0
        for trial in range(3):
            msg = BitVector(rng.bits(desk_outer.message_bits), desk_outer.message_bits)
            cw = concat_encode(desk_params, desk_sync, desk_outer, msg).bits
            y = apply_edits(cw, random_edit_script(cw, 1 + trial, ("lanes", trial)))
            plan = window_plan(desk_params, y.n)
            assert plan[-1][1] - plan[-1][0] < desk_params.block_bits  # truncated tail
            for s, e in plan:
                window = y[s:e]
                for code in codes:
                    for radius in range(5):
                        want = scalar_list_decode(code, window, radius)
                        assert inner_list_decode(code, window, radius) == want
                        hits += len(want)
        assert hits > 0


class TestVerifiedSequenceListBound:
    def test_lists_never_exceed_limit(self, desk_sync):
        # consequence of the verified list-size condition at the sequence's
        # own radius, for every code in the sequence
        radius = desk_sync.params.radius
        limit = desk_sync.params.list_limit
        rng = CounterRng("list-bound")
        codes = [InnerCode(mat=m, index=j) for j, m in enumerate(desk_sync.mats)]
        for _ in range(200):
            ln = 16 - radius + rng.randbelow(2 * radius + 1)
            y = BitVector(rng.bits(ln), ln)
            for code in codes:
                assert len(inner_list_decode(code, y, radius)) <= limit


class TestMeasureListDecodability:
    def test_full_rank_radius_zero(self):
        g = full_rank_matrix(4, 10, "m0")
        size, _ = measure_list_decodability(g, 0)
        assert size == 1

    def test_rank_deficient_radius_zero(self):
        g = BitMatrix.from_rows(["110011", "110011"])
        size, witness = measure_list_decodability(g, 0)
        assert size >= 2
        assert witness.n == 6

    def test_monotone_in_radius(self):
        g = random_matrix(4, 10, 17)
        sizes = [measure_list_decodability(g, r)[0] for r in range(3)]
        assert sizes == sorted(sizes)

    def test_guard(self):
        with pytest.raises(ValueError):
            measure_list_decodability(random_matrix(4, 17, 0), 1)

    @pytest.mark.parametrize("radius", [1, 2])
    def test_matches_ball_oracle_at_128_messages(self, radius):
        for seed in range(3):
            g = random_matrix(7, 9, derive_seed("list7", seed))
            lists = {}  # (length, word) -> messages within radius
            for x, c in enumerate(codeword_table(g)):
                for key in ball_words(c, 9, radius):
                    lists.setdefault(key, set()).add(x)
            best = max(map(len, lists.values()))
            ln, w = min(key for key, xs in lists.items() if len(xs) == best)
            assert best > 1
            assert measure_list_decodability(g, radius) == (best, BitVector(w, ln))

    def test_against_naive_double_loop(self):
        k, n, radius = 3, 8, 1
        for seed in range(5):
            g = random_matrix(k, n, derive_seed("naive", seed))
            fast, _ = measure_list_decodability(g, radius)
            # direct loop over every y and every message
            table = codeword_table(g)
            best = 0
            for ln in range(n - radius, n + radius + 1):
                for w in range(1 << ln):
                    y = BitVector(w, ln)
                    count = sum(
                        1
                        for x in range(1 << k)
                        if edit_distance(BitVector(table[x], n), y) <= radius
                    )
                    best = max(best, count)
            assert fast == best


class TestCapacityExperiment:
    def test_radius_zero_matches_rank_oracle(self):
        rep = capacity_experiment(k=3, n=8, radius=0, trials=40, list_bound=1, rng_seed=5)
        deficient = sum(
            1
            for t in range(40)
            if rank(random_matrix(3, 8, derive_seed("capacity", 5, t))) < 3
        )
        assert rep.failures == deficient

    def test_list_bound_full_space_never_fails(self):
        rep = capacity_experiment(k=3, n=8, radius=1, trials=20, list_bound=8, rng_seed=1)
        assert rep.failures == 0
        assert rep.empirical_failure == 0.0

    def test_histogram_totals(self):
        rep = capacity_experiment(k=3, n=8, radius=1, trials=20, list_bound=2, rng_seed=2)
        assert sum(rep.max_list_histogram.values()) == 20

    def test_vacuous_flag_for_desk_radius(self):
        # 5*H(delta) pushes the rate condition negative at any desk radius >= 1
        rep = capacity_experiment(k=4, n=12, radius=1, trials=2, list_bound=4, rng_seed=3)
        assert rep.vacuous
        assert rep.rate_threshold is not None and rep.rate_threshold <= 0
