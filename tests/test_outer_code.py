from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from editsync.bitlinalg import BitVector
from editsync.errors import ListBoundExceeded
from editsync.outer_code import (
    OuterCodeSpec,
    RecoveryInput,
    RecoverySpec,
    fold_symbols,
    list_recover,
    message_to_symbols,
    outer_encode,
    unfold_symbols,
)
from editsync.rng import CounterRng

RS_GF4 = OuterCodeSpec(
    symbol_bits=2,
    block_count=3,
    message_symbols=2,
    kind="reed_solomon",
    recovery=RecoverySpec(alpha=Fraction(0), box_limit=2, list_limit=4),
)

LINEAR_SMALL = OuterCodeSpec(
    symbol_bits=2,
    block_count=5,
    message_symbols=2,
    kind="brute_force_linear",
    recovery=RecoverySpec(alpha=Fraction(1, 5), box_limit=3, list_limit=16),
)


class TestOuterEncode:
    def test_zero_message(self):
        assert outer_encode(RS_GF4, (0, 0)) == (0, 0, 0)
        assert outer_encode(LINEAR_SMALL, (0, 0)) == (0,) * 5

    def test_rs_degree_zero_repeats(self):
        spec = OuterCodeSpec(
            symbol_bits=3, block_count=5, message_symbols=1, kind="reed_solomon",
            recovery=RecoverySpec(alpha=Fraction(0), box_limit=1, list_limit=2),
        )
        assert outer_encode(spec, (6,)) == (6,) * 5

    def test_rs_gf4_hand_example(self):
        # evaluation points 0, 1, w (w = 2 in the z-basis): codeword is
        # (m0, m0 + m1, m0 + w*m1)
        from editsync.pseudorandom import get_field

        f = get_field(2)
        for m0 in range(4):
            for m1 in range(4):
                got = outer_encode(RS_GF4, (m0, m1))
                assert got == (m0, m0 ^ m1, m0 ^ f.mul(2, m1))

    def test_systematic_prefix(self):
        for msg in [(1, 2), (3, 1), (2, 0)]:
            cw = outer_encode(LINEAR_SMALL, msg)
            assert cw[:2] == msg

    def test_length_checked(self):
        with pytest.raises(ValueError):
            outer_encode(RS_GF4, (1,))

    def test_rs_needs_enough_points(self):
        with pytest.raises(ValueError):
            OuterCodeSpec(
                symbol_bits=2, block_count=5, message_symbols=2, kind="reed_solomon",
                recovery=RecoverySpec(alpha=Fraction(0), box_limit=1, list_limit=2),
            )

    @given(st.integers(0, 15), st.integers(0, 15))
    def test_gf2_linearity(self, a, b):
        for spec in (RS_GF4, LINEAR_SMALL):
            ma = message_to_symbols(spec, a)
            mb = message_to_symbols(spec, b)
            mab = message_to_symbols(spec, a ^ b)
            ca = outer_encode(spec, ma)
            cb = outer_encode(spec, mb)
            cab = outer_encode(spec, mab)
            assert tuple(x ^ y for x, y in zip(ca, cb)) == cab


def naive_recover(spec, boxes, alpha):
    """Independent per-codeword disagreement counter."""
    budget = int(Fraction(alpha) * spec.block_count)
    out = []
    for packed in range(1 << spec.message_bits):
        msg = message_to_symbols(spec, packed)
        cw = outer_encode(spec, msg)
        bad = sum(1 for j, s in enumerate(cw) if s not in boxes[j])
        if bad <= budget:
            out.append(msg)
    return out


class TestListRecover:
    @pytest.mark.parametrize("kind", ["brute_force_linear", "reed_solomon"])
    def test_symbols_wider_than_16_bits(self, kind):
        spec = OuterCodeSpec(
            symbol_bits=17, block_count=3, message_symbols=1, kind=kind,
            recovery=RecoverySpec(alpha=Fraction(0), box_limit=1, list_limit=1),
        )
        msg = ((1 << 17) - 3,)
        boxes = tuple(frozenset({s}) for s in outer_encode(spec, msg))
        assert list_recover(spec, RecoveryInput(boxes=boxes, alpha=Fraction(0))) == [msg]

    def test_singleton_boxes_unique_decode(self):
        msg = (3, 1)
        cw = outer_encode(RS_GF4, msg)
        boxes = tuple(frozenset({s}) for s in cw)
        got = list_recover(RS_GF4, RecoveryInput(boxes=boxes, alpha=Fraction(0)))
        assert got == [msg]

    def test_all_empty_alpha_one_returns_everything(self):
        spec = OuterCodeSpec(
            symbol_bits=2, block_count=3, message_symbols=1, kind="reed_solomon",
            recovery=RecoverySpec(alpha=Fraction(1), box_limit=2, list_limit=4),
        )
        boxes = (frozenset(), frozenset(), frozenset())
        got = list_recover(spec, RecoveryInput(boxes=boxes, alpha=Fraction(1)))
        assert len(got) == 4

    def test_overflow_is_an_error(self):
        boxes = (frozenset(), frozenset(), frozenset())
        with pytest.raises(ListBoundExceeded):
            list_recover(
                OuterCodeSpec(
                    symbol_bits=2, block_count=3, message_symbols=2, kind="reed_solomon",
                    recovery=RecoverySpec(alpha=Fraction(1), box_limit=1, list_limit=4),
                ),
                RecoveryInput(boxes=boxes, alpha=Fraction(1)),
            )

    def test_oversized_box_rejected(self):
        boxes = (frozenset({0, 1, 2}), frozenset({1}), frozenset({2}))
        with pytest.raises(ValueError, match="per-position"):
            list_recover(RS_GF4, RecoveryInput(boxes=boxes, alpha=Fraction(0)))

    def test_planted_codeword_with_corrupted_boxes(self):
        rng = CounterRng("plant")
        spec = LINEAR_SMALL
        budget = 1  # floor(1/5 * 5)
        for trial in range(30):
            packed = rng.randbelow(1 << spec.message_bits)
            msg = message_to_symbols(spec, packed)
            cw = outer_encode(spec, msg)
            boxes = []
            corrupted = rng.randbelow(spec.block_count)
            for j, s in enumerate(cw):
                if j == corrupted:
                    boxes.append(frozenset({(s + 1) % 4}))  # exclude the truth
                else:
                    decoy = rng.randbelow(4)
                    boxes.append(frozenset({s, decoy}))
            got = list_recover(
                spec, RecoveryInput(boxes=tuple(boxes), alpha=spec.recovery.alpha)
            )
            assert msg in got
            assert got == naive_recover(spec, boxes, spec.recovery.alpha)

    def test_matches_naive_on_random_boxes(self):
        rng = CounterRng("naive-recover")
        spec = LINEAR_SMALL
        for _ in range(20):
            boxes = tuple(
                frozenset(rng.randbelow(4) for _ in range(rng.randbelow(3)))
                for _ in range(spec.block_count)
            )
            got = list_recover(spec, RecoveryInput(boxes=boxes, alpha=Fraction(2, 5)))
            assert got == naive_recover(spec, boxes, Fraction(2, 5))

    def test_rs_alpha_zero_is_classical_decoding(self):
        msg = (2, 3)
        cw = outer_encode(RS_GF4, msg)
        boxes = tuple(frozenset({s}) for s in cw)
        assert list_recover(RS_GF4, RecoveryInput(boxes=boxes, alpha=Fraction(0))) == [msg]


class TestFold:
    def test_identity_width(self):
        v = BitVector.from_string("1011")
        assert fold_symbols(v, 4) == (0b1101,)

    def test_hand_example(self):
        v = BitVector.from_string("1011")
        syms = fold_symbols(v, 2)
        assert syms == (0b01, 0b11)  # "10" then "11" in string order
        assert unfold_symbols(syms, 2) == v

    def test_indivisible_needs_pad(self):
        v = BitVector.from_string("101")
        with pytest.raises(ValueError):
            fold_symbols(v, 2)
        assert fold_symbols(v, 2, pad=True) == (0b01, 0b1)

    def test_pad_round_trip(self):
        v = BitVector.from_string("10110")
        syms = fold_symbols(v, 3, pad=True)
        assert unfold_symbols(syms, 3, total_bits=5) == v

    @given(st.integers(0, (1 << 24) - 1), st.integers(1, 8))
    def test_round_trip_fuzz(self, word, width):
        v = BitVector(word, 24)
        assert unfold_symbols(fold_symbols(v, width, pad=True), width, total_bits=24) == v
