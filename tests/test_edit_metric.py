from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from editsync.bitlinalg import BitVector
from editsync.edit_metric import (
    EditBallQuery,
    _lcs_words,
    ball_enumerate,
    ball_membership,
    binary_entropy,
    check_ball_size_bound,
    edit_distance,
    fixed_length_ball_size,
    lcs_lanes,
    pack_lanes,
)
from editsync.errors import CapExceeded
from editsync.rng import CounterRng


def bv(s: str) -> BitVector:
    return BitVector.from_string(s)


def indel_dp(x: BitVector, y: BitVector) -> int:
    """Direct insertion/deletion dynamic program (no substitutions)."""
    xs, ys = list(x), list(y)
    m, n = len(xs), len(ys)
    prev = list(range(n + 1))
    for i in range(1, m + 1):
        cur = [i] + [0] * n
        xi = xs[i - 1]
        for j in range(1, n + 1):
            best = min(prev[j] + 1, cur[j - 1] + 1)
            if xi == ys[j - 1]:
                best = min(best, prev[j - 1])
            cur[j] = best
        prev = cur
    return prev[n]


bitstrings = st.integers(0, 31).flatmap(
    lambda n: st.integers(0, (1 << n) - 1).map(lambda w: BitVector(w, n))
)


class TestBinaryEntropy:
    def test_endpoints(self):
        assert binary_entropy(0) == 0.0
        assert binary_entropy(1) == 0.0

    def test_half(self):
        assert binary_entropy(Fraction(1, 2)) == 1.0

    def test_quarter(self):
        assert binary_entropy(Fraction(1, 4)) == pytest.approx(0.811278, abs=1e-6)

    def test_domain(self):
        with pytest.raises(ValueError):
            binary_entropy(Fraction(3, 2))


class TestEditDistance:
    def test_identity(self):
        assert edit_distance(bv("0101"), bv("0101")) == 0

    def test_pure_insertions(self):
        assert edit_distance(bv(""), bv("111")) == 3

    def test_substitution_costs_two(self):
        assert edit_distance(bv("01"), bv("10")) == 2

    def test_shift(self):
        assert edit_distance(bv("0101"), bv("011")) == 1

    def test_exhaustive_small_against_dp(self):
        strs = [BitVector(w, n) for n in range(6) for w in range(1 << n)]
        for a in strs:
            for b in strs:
                assert edit_distance(a, b) == indel_dp(a, b)

    @given(bitstrings, bitstrings)
    def test_symmetry_and_parity(self, a, b):
        d = edit_distance(a, b)
        assert d == edit_distance(b, a)
        assert d % 2 == (a.n - b.n) % 2
        assert d >= abs(a.n - b.n)
        assert (d == 0) == (a == b)

    def test_triangle_inequality_random(self):
        rng = CounterRng("triangle")
        for _ in range(10_000):
            vs = []
            for _ in range(3):
                n = rng.randbelow(33)
                vs.append(BitVector(rng.bits(n), n))
            x, y, z = vs
            assert edit_distance(x, z) <= edit_distance(x, y) + edit_distance(y, z)


class TestLcsLanes:
    @given(
        st.integers(0, 63).flatmap(
            lambda xn: st.tuples(
                st.just(xn), st.lists(st.integers(0, (1 << xn) - 1), min_size=1, max_size=16)
            )
        ),
        st.integers(0, 70).flatmap(
            lambda yn: st.tuples(st.integers(0, (1 << yn) - 1), st.just(yn))
        ),
    )
    def test_matches_scalar_oracle(self, xs, y):
        xn, words = xs
        yw, yn = y
        got = lcs_lanes(pack_lanes(words, xn), yw, yn)
        assert got == [_lcs_words(w, xn, yw, yn) for w in words]

    def test_word_wider_than_lane_rejected(self):
        with pytest.raises(ValueError):
            pack_lanes([1, 8], 3)


class TestBallMembership:
    def test_center_radius_zero(self):
        q = EditBallQuery(bv("0101"), 0)
        assert ball_membership(bv("0101"), q)

    def test_substitution_outside_radius_one(self):
        assert not ball_membership(bv("1"), EditBallQuery(bv("0"), 1))

    def test_single_deletion(self):
        assert ball_membership(bv(""), EditBallQuery(bv("0"), 1))

    def test_length_filter(self):
        q = EditBallQuery(bv("0"), 1, length_filter=1)
        assert ball_membership(bv("0"), q)
        assert not ball_membership(bv(""), q)

    def test_degenerate_query_rejected(self):
        with pytest.raises(ValueError):
            EditBallQuery(bv("01"), radius=5, length_filter=2)


class TestBallEnumerate:
    def test_radius_zero(self):
        assert ball_enumerate(EditBallQuery(bv("01"), 0)) == {bv("01")}

    def test_radius_one(self):
        got = {str(v) for v in ball_enumerate(EditBallQuery(bv("0"), 1))}
        assert got == {"", "0", "00", "01", "10"}

    def test_length_filter(self):
        got = ball_enumerate(EditBallQuery(bv("0"), 1, length_filter=1))
        assert got == {bv("0")}

    def test_cap(self):
        with pytest.raises(CapExceeded):
            ball_enumerate(EditBallQuery(bv("01010101"), 3), cap=10)

    @pytest.mark.parametrize("center", ["", "0", "10", "0110", "101001"])
    @pytest.mark.parametrize("radius", [0, 1, 2, 3])
    def test_matches_membership_filter(self, center, radius):
        c = bv(center)
        q = EditBallQuery(c, radius)
        ball = ball_enumerate(q)
        universe = [
            BitVector(w, n)
            for n in range(max(0, c.n - radius), c.n + radius + 1)
            for w in range(1 << n)
        ]
        expected = {x for x in universe if ball_membership(x, q)}
        assert ball == expected


class TestBallSizeBound:
    def test_delta_zero(self):
        rep = check_ball_size_bound(8, Fraction(0), trials=10, rng_seed=1)
        assert rep.passed
        assert rep.max_ball_size == 1
        assert rep.bound == 1.0

    def test_small_sweep(self):
        rep = check_ball_size_bound(10, Fraction(1, 5), trials=25, rng_seed=2)
        assert rep.passed
        assert rep.max_ball_size >= 1
        assert rep.max_ball_size <= rep.bound

    def test_center_too_short_gives_empty_ball(self):
        # fixed-length ball is empty when the length gap exceeds the radius
        center = bv("01")
        assert fixed_length_ball_size(center, radius=2, n=8) == 0

    def test_delta_guard(self):
        with pytest.raises(ValueError):
            check_ball_size_bound(8, Fraction(3, 4), trials=1, rng_seed=0)

    def test_ball_size_matches_enumeration(self):
        rng = CounterRng("ballsize-oracle")
        for _ in range(10):
            n = 6 + rng.randbelow(3)
            ln = n - 1 + rng.randbelow(3)
            center = BitVector(rng.bits(ln), ln)
            radius = rng.randbelow(3)
            by_sweep = fixed_length_ball_size(center, radius, n)
            by_enum = len(ball_enumerate(EditBallQuery(center, radius, length_filter=n)))
            assert by_sweep == by_enum
