import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from editsync.bitlinalg import (
    BitMatrix,
    BitVector,
    in_row_space,
    left_kernel_vector,
    mat_vec_mul,
    random_matrix,
    rank,
    row_space_basis,
    row_space_intersection,
    solve_left,
)
from editsync.rng import derive_seed


def bv(s: str) -> BitVector:
    return BitVector.from_string(s)


def _all_matrices(a: int, b: int):
    mask = (1 << b) - 1
    for packed in range(1 << (a * b)):
        yield BitMatrix(tuple((packed >> (i * b)) & mask for i in range(a)), b)


def _span(rows) -> set[int]:
    span = {0}
    for r in rows:
        span |= {v ^ r for v in span}
    return span


class TestBitVector:
    def test_string_round_trip(self):
        for s in ["", "0", "1", "0101", "111000"]:
            assert str(bv(s)) == s

    def test_indexing(self):
        v = bv("0110")
        assert [v[i] for i in range(4)] == [0, 1, 1, 0]
        with pytest.raises(IndexError):
            v[4]
        with pytest.raises(IndexError):
            v[-1]

    def test_slice(self):
        v = bv("011010")
        assert str(v[1:4]) == "110"
        assert str(v[4:10]) == "10"
        with pytest.raises(ValueError):
            v[0:4:2]

    def test_xor_length_mismatch(self):
        with pytest.raises(ValueError):
            bv("01") ^ bv("011")

    def test_out_of_range_word(self):
        with pytest.raises(ValueError):
            BitVector(4, 2)

    @given(st.lists(st.integers(0, 1), max_size=40))
    def test_from_bits_round_trip(self, bits):
        v = BitVector.from_bits(bits)
        assert list(v) == bits


class TestMatVecMul:
    def test_zero_vector(self):
        assert mat_vec_mul(bv("000"), BitMatrix.identity(3)) == bv("000")

    def test_identity(self):
        assert mat_vec_mul(bv("101"), BitMatrix.identity(3)) == bv("101")

    def test_hand_xor(self):
        m = BitMatrix.from_rows(["110", "011"])
        assert mat_vec_mul(bv("11"), m) == bv("101")

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mat_vec_mul(bv("1"), BitMatrix.identity(3))

    @given(st.integers(0, 255), st.integers(0, 255), st.integers())
    def test_linearity(self, xw, yw, seed):
        m = random_matrix(8, 12, seed)
        x, y = BitVector(xw, 8), BitVector(yw, 8)
        assert mat_vec_mul(x ^ y, m) == mat_vec_mul(x, m) ^ mat_vec_mul(y, m)


def _minor_ranks_all_matrices(a: int, b: int) -> np.ndarray:
    """Rank of every a-by-b binary matrix by minor enumeration.

    Largest k with an odd-determinant k x k submatrix; determinant parity
    over the integers equals the GF(2) determinant.  Matrix index packs row
    i into bits [i*b, (i+1)*b).
    """
    count = 1 << (a * b)
    idx = np.arange(count, dtype=np.int64)
    grid = np.zeros((count, a, b), dtype=np.float64)
    for i in range(a):
        for j in range(b):
            grid[:, i, j] = (idx >> (i * b + j)) & 1
    ranks = np.zeros(count, dtype=np.int64)
    for k in range(min(a, b), 0, -1):
        has_odd = np.zeros(count, dtype=bool)
        for rows in itertools.combinations(range(a), k):
            sub = grid[:, rows, :]
            for cols in itertools.combinations(range(b), k):
                dets = np.rint(np.linalg.det(sub[:, :, cols])).astype(np.int64)
                has_odd |= (dets & 1) == 1
        ranks = np.where((ranks == 0) & has_odd, k, ranks)
    return ranks


class TestRank:
    def test_identity(self):
        assert rank(BitMatrix.identity(3)) == 3

    def test_zero(self):
        assert rank(BitMatrix.zero(2, 4)) == 0

    def test_dependent_rows(self):
        assert rank(BitMatrix.from_rows(["110", "011", "101"])) == 2

    @pytest.mark.parametrize("a", [1, 2, 3, 4])
    @pytest.mark.parametrize("b", [1, 2, 3, 4])
    def test_exhaustive_against_minor_oracle(self, a, b):
        oracle = _minor_ranks_all_matrices(a, b)
        mask = (1 << b) - 1
        for packed in range(1 << (a * b)):
            rows = tuple((packed >> (i * b)) & mask for i in range(a))
            assert rank(BitMatrix(rows, b)) == oracle[packed]


class TestRowSpaceIntersection:
    def test_disjoint_supports(self):
        a = BitMatrix.from_rows(["1000", "0100"])
        b = BitMatrix.from_rows(["0010", "0001"])
        assert row_space_intersection([a, b]) == []

    def test_identical_spaces(self):
        m = BitMatrix.identity(2)
        assert len(row_space_intersection([m, m])) == 2

    def test_empty_input(self):
        with pytest.raises(ValueError):
            row_space_intersection([])

    def test_random_triples_against_enumeration(self):
        for seed in range(20):
            mats = [random_matrix(3, 4, derive_seed("inter", seed, i)) for i in range(3)]
            basis = row_space_intersection(mats)
            bases = [row_space_basis(m) for m in mats]
            members = {
                w
                for w in range(16)
                if all(in_row_space(w, bs) for bs in bases)
            }
            # members form a subspace of size 2^len(basis)
            assert len(members) == 1 << len(basis)
            for v in basis:
                assert all(in_row_space(v.bits, bs) for bs in bases)

    def test_enumeration_cross_check_b6(self):
        for seed in range(10):
            mats = [random_matrix(3, 6, derive_seed("inter6", seed, i)) for i in range(2)]
            basis = row_space_intersection(mats)
            bases = [row_space_basis(m) for m in mats]
            count = sum(
                1 for w in range(64) if all(in_row_space(w, bs) for bs in bases)
            )
            assert count == 1 << len(basis)


class TestRowSpaceBasis:
    @pytest.mark.parametrize("a", [1, 2, 3])
    @pytest.mark.parametrize("b", [1, 2, 3, 4])
    def test_spans_and_reduced_exhaustive(self, a, b):
        for m in _all_matrices(a, b):
            basis = row_space_basis(m)
            assert _span(basis) == _span(m.rows)
            pivots = [(r & -r).bit_length() - 1 for r in basis]
            assert all(basis) and pivots == sorted(set(pivots))
            for p in pivots:
                assert sum((r >> p) & 1 for r in basis) == 1


class TestSolveLeft:
    def test_identity(self):
        assert solve_left(BitMatrix.identity(3), bv("011")) == bv("011")

    def test_outside_row_space(self):
        m = BitMatrix.from_rows(["1000", "0100"])
        assert solve_left(m, bv("0011")) is None

    def test_not_full_rank(self):
        with pytest.raises(ValueError):
            solve_left(BitMatrix.from_rows(["11", "11"]), bv("11"))

    def test_round_trip_exhaustive_messages(self):
        # all x for sampled full-rank matrices across the small dim grid
        for a, b in [(1, 2), (2, 3), (2, 4), (3, 5), (4, 6), (4, 8)]:
            found = 0
            seed = 0
            while found < 10:
                m = random_matrix(a, b, derive_seed("solve", a, b, seed))
                seed += 1
                if rank(m) != a:
                    continue
                found += 1
                for xw in range(1 << a):
                    x = BitVector(xw, a)
                    assert solve_left(m, mat_vec_mul(x, m)) == x


class TestLeftKernel:
    def test_full_rank_has_none(self):
        assert left_kernel_vector(BitMatrix.identity(4)) is None

    def test_kernel_vector_annihilates(self):
        m = BitMatrix.from_rows(["110", "011", "101"])
        k = left_kernel_vector(m)
        assert k is not None and k.bits != 0
        assert mat_vec_mul(k, m).bits == 0

    @pytest.mark.parametrize("a", [1, 2, 3])
    @pytest.mark.parametrize("b", [1, 2, 3, 4])
    def test_first_dependency_witness_exhaustive(self, a, b):
        # the witness is pinned: for the first row i in the span of the rows
        # above it, the unique x with bit i set, no higher bits, and x*m = 0
        for m in _all_matrices(a, b):
            expected = None
            for i in range(a):
                sols = [
                    x | (1 << i)
                    for x in range(1 << i)
                    if mat_vec_mul(BitVector(x | (1 << i), a), m).bits == 0
                ]
                if sols:
                    assert len(sols) == 1
                    expected = BitVector(sols[0], a)
                    break
            assert left_kernel_vector(m) == expected


class TestRandomMatrix:
    def test_deterministic(self):
        assert random_matrix(3, 5, 7) == random_matrix(3, 5, 7)

    def test_seed_collisions(self):
        seen = {random_matrix(4, 8, s) for s in range(100)}
        assert len(seen) == 100

    def test_1x1_covers_both_values(self):
        values = {random_matrix(1, 1, s).rows[0] for s in range(64)}
        assert values == {0, 1}

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            random_matrix(0, 3, 1)


class TestSerialization:
    def test_json_round_trip(self):
        m = random_matrix(3, 13, 99)
        assert BitMatrix.from_json(m.to_json()) == m

    def test_hex_is_big_endian(self):
        m = BitMatrix.from_rows(["100000001"])  # bits 0 and 8 set -> 0x101
        assert m.to_json()["rows"] == ["101"]

    def test_schema(self):
        from conftest import validate_against_schema

        validate_against_schema(random_matrix(4, 9, 5).to_json(), "bit_matrix.schema.json")
