import time
from fractions import Fraction

import pytest

from editsync.bitlinalg import BitVector
from editsync import codec
from editsync.codec import (
    ConcatParams,
    EditOp,
    EditScript,
    apply_edits,
    concat_encode,
    decode,
    derive_params,
    overall_rate,
    random_edit_script,
    scan_windows,
    window_plan,
)
from editsync.edit_metric import binary_entropy, edit_distance
from editsync.errors import CapExceeded
from editsync.rng import CounterRng


def corrupt_block(bits: BitVector, block: int, block_bits: int, n_edits: int, seed) -> BitVector:
    """Apply n_edits random edits confined to one block of the codeword."""
    rng = CounterRng("block-corrupt", seed)
    word, n = bits.bits, bits.n
    lo = block * block_bits
    hi = lo + block_bits  # exclusive; tracks the block's image as it resizes
    for _ in range(n_edits):
        if hi == lo or rng.bit():
            p = lo + rng.randbelow(hi - lo + 1)
            b = rng.bit()
            word = (word & ((1 << p) - 1)) | (b << p) | ((word >> p) << (p + 1))
            n += 1
            hi += 1
        else:
            p = lo + rng.randbelow(hi - lo)
            word = (word & ((1 << p) - 1)) | ((word >> (p + 1)) << p)
            n -= 1
            hi -= 1
    return BitVector(word, n)


class TestDeriveParams:
    def test_gamma_sixteenth_infeasible(self):
        rep = derive_params(Fraction(1, 16), 64)
        assert rep.delta == Fraction(1, 4)
        assert rep.overlap_limit == 15
        assert rep.list_limit == 1 << 16
        assert rep.inner_rate < 0
        assert not rep.feasible
        assert rep.params is None

    def test_gamma_256_reference_values(self):
        rep = derive_params(Fraction(1, 256), 1 << 20)
        assert rep.delta == Fraction(1, 64)
        assert rep.overlap_limit == 255
        assert rep.block_bits == 20480
        expected_rate = 1 - 2 / 256 - 5 * binary_entropy(Fraction(1, 64))
        assert rep.inner_rate == pytest.approx(expected_rate, abs=1e-12)
        assert rep.msg_bits == int(expected_rate * 20480)
        assert rep.feasible
        assert rep.list_limit == 1 << 256
        # window machinery: step floor(gamma*b), threshold floor(4*gamma*b)
        assert rep.window_step == 80
        assert rep.threshold == 320
        assert rep.edit_budget == (20480 << 20) // (256 * 256)

    def test_boundary_rejected(self):
        with pytest.raises(ValueError):
            derive_params(Fraction(1, 8), 64)
        with pytest.raises(ValueError):
            derive_params(Fraction(0), 64)

    def test_derived_mode_fields_rechecked(self):
        rep = derive_params(Fraction(1, 256), 1 << 20)
        good = rep.params
        assert good is not None
        assert ConcatParams.from_json(good.to_json()) == good
        with pytest.raises(ValueError, match="disagrees"):
            ConcatParams.from_json({**good.to_json(), "window_step": 81})


class TestEncode:
    def test_zero_message(self, desk_params, desk_sync, desk_outer):
        cw = concat_encode(desk_params, desk_sync, desk_outer, BitVector.zeros(16))
        assert cw.bits.bits == 0
        assert cw.bits.n == 128

    def test_linearity(self, desk_params, desk_sync, desk_outer):
        rng = CounterRng("enc-lin")
        for _ in range(100):
            a = BitVector(rng.bits(16), 16)
            b = BitVector(rng.bits(16), 16)
            ca = concat_encode(desk_params, desk_sync, desk_outer, a)
            cb = concat_encode(desk_params, desk_sync, desk_outer, b)
            cab = concat_encode(desk_params, desk_sync, desk_outer, a ^ b)
            assert ca.bits ^ cb.bits == cab.bits

    def test_blocks_match_inner_encoding(self, desk_params, desk_sync, desk_outer):
        from editsync.bitlinalg import mat_vec_mul
        from editsync.outer_code import fold_symbols, outer_encode, unfold_symbols

        msg = BitVector.from_string("1100101001011110")
        cw = concat_encode(desk_params, desk_sync, desk_outer, msg)
        symbols = outer_encode(desk_outer, fold_symbols(msg, 4))
        for j, block in enumerate(cw.blocks):
            x = unfold_symbols(symbols[j : j + 1], 4)
            assert block == mat_vec_mul(x, desk_sync.mats[j])

    def test_unverified_sync_rejected(self, desk_params, desk_sync, desk_outer):
        from editsync.sync import SyncSequence

        unverified = SyncSequence(params=desk_sync.params, mats=desk_sync.mats)
        with pytest.raises(ValueError, match="verified"):
            concat_encode(desk_params, unverified, desk_outer, BitVector.zeros(16))


class TestWindowPlan:
    def test_single_window(self):
        p = ConcatParams(
            mode="override", n=1, msg_bits=2, block_bits=10, overlap_limit=1,
            list_limit=2, box_limit=2, window_step=3, threshold=0, edit_budget=0,
        )
        assert window_plan(p, 10) == [(0, 10), (3, 10), (6, 10), (9, 10)]

    def test_disjoint_when_step_equals_width(self):
        p = ConcatParams(
            mode="override", n=2, msg_bits=2, block_bits=10, overlap_limit=1,
            list_limit=2, box_limit=2, window_step=10, threshold=0, edit_budget=0,
        )
        assert window_plan(p, 20) == [(0, 10), (10, 20)]

    def test_truncation_rule(self):
        p = ConcatParams(
            mode="override", n=2, msg_bits=2, block_bits=10, overlap_limit=1,
            list_limit=2, box_limit=2, window_step=4, threshold=0, edit_budget=0,
        )
        assert window_plan(p, 25) == [
            (0, 10), (4, 14), (8, 18), (12, 22), (16, 25), (20, 25), (24, 25),
        ]

    def test_empty_received(self):
        p = ConcatParams(
            mode="override", n=1, msg_bits=1, block_bits=4, overlap_limit=1,
            list_limit=1, box_limit=1, window_step=1, threshold=0, edit_budget=0,
        )
        assert window_plan(p, 0) == []


class TestEditScripts:
    def test_empty_script(self):
        v = BitVector.from_string("0110")
        assert apply_edits(v, EditScript(ops=())) == v

    def test_delete_insert_inverse(self):
        v = BitVector.from_string("0110")
        script = EditScript(ops=(EditOp("delete", 0), EditOp("insert", 0, v[0])))
        assert apply_edits(v, script) == v

    def test_invalid_position(self):
        with pytest.raises(ValueError):
            apply_edits(BitVector.from_string("01"), EditScript(ops=(EditOp("delete", 2),)))

    def test_cost_bounds_distance(self):
        rng = CounterRng("script-cost")
        for trial in range(1000):
            n = rng.randbelow(24)
            x = BitVector(rng.bits(n), n)
            budget = rng.randbelow(5)
            script = random_edit_script(x, budget, ("cost", trial))
            y = apply_edits(x, script)
            assert script.cost == budget
            assert edit_distance(x, y) <= script.cost

    def test_deterministic(self):
        x = BitVector.from_string("010101")
        assert random_edit_script(x, 3, 9) == random_edit_script(x, 3, 9)

    def test_json_round_trip(self):
        x = BitVector.from_string("0101")
        script = random_edit_script(x, 4, 11)
        assert EditScript.from_json(script.to_json()) == script


class TestCaptureProperty:
    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_single_block_corruption(self, r, desk_params, desk_sync, desk_outer):
        # threshold 2r suffices at step 1 for a block with at most r edits
        from editsync.outer_code import fold_symbols, outer_encode, unfold_symbols

        rng = CounterRng("capture", r)
        for trial in range(25):
            msg = BitVector(rng.bits(16), 16)
            cw = concat_encode(desk_params, desk_sync, desk_outer, msg)
            block = rng.randbelow(8)
            y = corrupt_block(cw.bits, block, 16, r, (r, trial))
            boxes, _ = scan_windows(desk_sync, y, threshold=2 * r, step=1)
            symbols = outer_encode(desk_outer, fold_symbols(msg, 4))
            true_x = unfold_symbols(symbols[block : block + 1], 4)
            assert true_x in boxes[block]


class TestDecode:
    def test_zero_edit_contains_message(self, desk_params, desk_sync, desk_outer):
        rng = CounterRng("decode-clean")
        for _ in range(5):
            msg = BitVector(rng.bits(16), 16)
            cw = concat_encode(desk_params, desk_sync, desk_outer, msg)
            out, report = decode(desk_params, desk_sync, desk_outer, cw.bits)
            assert msg in out
            assert report.recovered == len(out)

    def test_output_sorted_and_deduplicated(self, desk_params, desk_sync, desk_outer):
        msg = BitVector.zeros(16)
        cw = concat_encode(desk_params, desk_sync, desk_outer, msg)
        out, _ = decode(desk_params, desk_sync, desk_outer, cw.bits)
        packed = [m.bits for m in out]
        assert packed == sorted(set(packed))

    def test_block_deletion(self, desk_params, desk_sync, desk_outer):
        rng = CounterRng("blockdel")
        for trial in range(10):
            msg = BitVector(rng.bits(16), 16)
            cw = concat_encode(desk_params, desk_sync, desk_outer, msg)
            blk = rng.randbelow(8)
            word, n = cw.bits.bits, cw.bits.n
            lo = word & ((1 << (blk * 16)) - 1)
            hi = word >> ((blk + 1) * 16)
            y = BitVector(lo | (hi << (blk * 16)), n - 16)
            out, _ = decode(desk_params, desk_sync, desk_outer, y)
            assert msg in out

    def test_reed_solomon_outer_end_to_end(self, desk_params, desk_sync):
        from editsync.outer_code import OuterCodeSpec, RecoverySpec

        rs_outer = OuterCodeSpec(
            symbol_bits=4, block_count=8, message_symbols=4, kind="reed_solomon",
            recovery=RecoverySpec(alpha=Fraction(1, 4), box_limit=8, list_limit=16384),
        )
        rng = CounterRng("rs-e2e")
        for trial in range(5):
            msg = BitVector(rng.bits(16), 16)
            cw = concat_encode(desk_params, desk_sync, rs_outer, msg)
            y = corrupt_block(cw.bits, rng.randbelow(8), 16, 1, ("rs", trial))
            out, _ = decode(desk_params, desk_sync, rs_outer, y)
            assert msg in out

    def test_window_stats_match_window_plan(self, desk_params, desk_sync, desk_outer):
        msg = BitVector.from_string("0110100101101001")
        cw = concat_encode(desk_params, desk_sync, desk_outer, msg)
        y = apply_edits(cw.bits, random_edit_script(cw.bits, 3, 21))
        _, report = decode(desk_params, desk_sync, desk_outer, y)
        got = [(w.start, w.end) for w in report.windows]
        assert got == window_plan(desk_params, y.n)

    def test_empty_received_yields_zero_candidate_boxes(
        self, desk_params, desk_sync, desk_outer
    ):
        out, report = decode(desk_params, desk_sync, desk_outer, BitVector.zeros(0))
        assert report.windows == ()
        assert report.box_sizes == (1,) * 8  # just the zero vector
        assert out == [BitVector.zeros(16)]

    def test_short_received_does_not_crash(self, desk_params, desk_sync, desk_outer):
        out, report = decode(
            desk_params, desk_sync, desk_outer, BitVector.from_string("1011")
        )
        assert len(report.windows) == 4
        assert BitVector.zeros(16) in out

    def test_sync_consequences_in_report(self, desk_params, desk_sync, desk_outer):
        msg = BitVector.from_string("1001011010010110")
        cw = concat_encode(desk_params, desk_sync, desk_outer, msg)
        y = apply_edits(cw.bits, random_edit_script(cw.bits, 2, 3))
        _, report = decode(desk_params, desk_sync, desk_outer, y)
        assert report.max_distinct_blocks_per_window <= desk_params.overlap_limit
        assert report.max_vectors_per_block_window <= desk_params.list_limit
        # total nonzero insertions across all windows
        bound = desk_params.overlap_limit * desk_params.list_limit * len(report.windows)
        assert report.total_nonzero_insertions <= bound

    def test_threshold_above_verified_radius_rejected(
        self, desk_params, desk_sync, desk_outer
    ):
        params = ConcatParams(
            mode="override", n=8, msg_bits=4, block_bits=16, overlap_limit=3,
            list_limit=8, box_limit=8, window_step=1, threshold=3, edit_budget=2,
        )
        with pytest.raises(ValueError, match="radius"):
            decode(params, desk_sync, desk_outer, BitVector.zeros(8))

    def test_work_cap_checked_before_scanning(
        self, monkeypatch, desk_params, desk_sync, desk_outer
    ):
        def no_scan(*args):
            raise AssertionError("scanned past the work cap")

        monkeypatch.setattr(codec, "scan_windows", no_scan)
        y = BitVector(0, 2_000_000)
        t0 = time.perf_counter()
        with pytest.raises(CapExceeded) as info:
            decode(desk_params, desk_sync, desk_outer, y)
        assert time.perf_counter() - t0 < 1.0
        assert info.value.required == 2_000_000 * 8 * 15 > codec.DECODE_WORK_CAP


class TestOverallRate:
    def test_identity_like_full_rate(self):
        from editsync.outer_code import OuterCodeSpec, RecoverySpec

        params = ConcatParams(
            mode="override", n=4, msg_bits=4, block_bits=4, overlap_limit=1,
            list_limit=2, box_limit=2, window_step=1, threshold=0, edit_budget=0,
        )
        outer = OuterCodeSpec(
            symbol_bits=4, block_count=4, message_symbols=4,
            recovery=RecoverySpec(alpha=Fraction(0), box_limit=2, list_limit=4),
        )
        assert overall_rate(params, outer).achieved == 1

    def test_desk_profile_eighth(self, desk_params, desk_outer):
        rep = overall_rate(desk_params, desk_outer)
        assert rep.achieved == Fraction(1, 8)

    def test_asymptotic_expression_at_gamma_256(self):
        import math

        rep = derive_params(Fraction(1, 256), 1 << 20)
        expected = (1 - math.sqrt(2 / 256)) * (
            1 - 2 / 256 - 5 * binary_entropy(Fraction(1, 64))
        )
        assert rep.rate_lower_bound == pytest.approx(expected, abs=1e-9)
        assert rep.rate_lower_bound == pytest.approx(0.375, abs=2e-3)
