import json
from fractions import Fraction

import pytest

from editsync.bitlinalg import BitMatrix, BitVector
from editsync.codec import (
    ConcatParams,
    DeriveReport,
    EditScript,
    RateReport,
    apply_edits,
    concat_encode,
    decode,
    derive_params,
    random_edit_script,
)
from editsync.edit_metric import BallSizeReport
from editsync.inner_code import CapacityReport
from editsync.outer_code import OuterCodeSpec, RecoverySpec
from editsync.sync import (
    AlignmentViolation,
    ListSizeViolation,
    RankViolation,
    SampleFailure,
    SyncParams,
    SyncSequence,
)

v = BitVector.from_string
SP = SyncParams(n=2, msg_bits=2, block_bits=4, delta=Fraction(1, 4), overlap_limit=1, list_limit=2)
MATS = (BitMatrix.from_rows(["1000", "0100"]), BitMatrix.from_rows(["0010", "0001"]))
HITS = AlignmentViolation(target=v("0110"), hits=((0, v("01")), (1, v("11"))))

CONCAT = ConcatParams(
    mode="override", n=2, msg_bits=2, block_bits=4, overlap_limit=1, list_limit=2,
    box_limit=2, window_step=1, threshold=1, edit_budget=1,
)
PLAIN_SEQ = SyncSequence(params=SP, mats=MATS)
REFUTED_SEQ = SyncSequence(
    params=SP, mats=MATS, status="refuted", violation=HITS, seed=5, attempts=2
)
RATE = RateReport(
    achieved=Fraction(1, 8), message_bits=16, codeword_bits=128, asymptotic_lower_bound=None
)
BALL = BallSizeReport(
    n=4, delta=Fraction(1, 4), radius=1, trials=0, max_ball_size=0, max_center=None,
    bound=2.5, passed=True,
)
CAPACITY = CapacityReport(
    k=2, n=4, radius=1, trials=3, list_bound=4, seed=0, failures=1,
    empirical_failure=1 / 3, lemma_bound=0.5, delta=0.25, epsilon_implied=None,
    rate_threshold=None, rate_condition_met=None, vacuous=True,
    max_list_histogram={3: 2, 10: 1},
)

RECORDS = [
    SP,
    CONCAT,
    derive_params(Fraction(1, 256), 1 << 20).params,
    OuterCodeSpec(
        symbol_bits=4, block_count=8, message_symbols=4, kind="reed_solomon", seed=3,
        recovery=RecoverySpec(alpha=Fraction(1, 4), box_limit=8, list_limit=16),
    ),
    HITS,
    ListSizeViolation(block=1, target=v("011"), messages=(v("00"), v("10"), v("11"))),
    RankViolation(block=0, kernel=v("11")),
    PLAIN_SEQ,
    REFUTED_SEQ,
    SampleFailure(params=SP, seed=1, attempts=3, condition_tallies={"condition1": 2}),
    EditScript(ops=()),
    RATE,
    BALL,
    CAPACITY,
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_round_trip_through_json_text(record):
    text = json.dumps(record.to_json())
    assert type(record).from_json(json.loads(text)) == record


def test_decode_report_and_edit_script_round_trip(desk_params, desk_sync, desk_outer):
    cw = concat_encode(desk_params, desk_sync, desk_outer, v("1011001110001111")).bits
    script = random_edit_script(cw, 2, 7)
    _, report = decode(desk_params, desk_sync, desk_outer, apply_edits(cw, script))
    obj = report.to_json()
    assert list(obj)[-3:] == [
        "max_distinct_blocks_per_window",
        "max_vectors_per_block_window",
        "total_nonzero_insertions",
    ]
    assert type(report).from_json(json.loads(json.dumps(obj))) == report
    assert EditScript.from_json(json.loads(json.dumps(script.to_json()))) == script


def test_none_is_omitted_only_where_the_default_is_none():
    assert "gamma" not in CONCAT.to_json()
    assert "violation" not in PLAIN_SEQ.to_json()
    assert RATE.to_json()["asymptotic_lower_bound"] is None
    assert BALL.to_json()["max_center"] is None
    assert CAPACITY.to_json()["max_list_histogram"] == {"3": 2, "10": 1}


def test_violation_union_reads_by_kind():
    seq = REFUTED_SEQ.to_json()
    seq["violation"]["kind"] = "condition3"
    with pytest.raises(ValueError, match="RankViolation.block: missing"):
        SyncSequence.from_json(seq)
    seq["violation"]["kind"] = "condition9"
    with pytest.raises(ValueError, match="none of"):
        SyncSequence.from_json(seq)
    with pytest.raises(ValueError, match="RankViolation"):
        RankViolation.from_json(HITS.to_json())


@pytest.mark.parametrize(
    "change",
    [
        {"n": "2"},
        {"n": True},
        {"n": 2.0},
        {"delta": None},
        {"delta": 0.25},
        {"delta": "1/0"},
        {"delta": "x"},
    ],
    ids=repr,
)
def test_wrong_value_types_rejected(change):
    with pytest.raises(ValueError):
        SyncParams.from_json({**SP.to_json(), **change})


def test_missing_key_and_non_object_rejected():
    obj = SP.to_json()
    del obj["list_limit"]
    with pytest.raises(ValueError, match="list_limit"):
        SyncParams.from_json(obj)
    for bad in ([], "x", None, 3):
        with pytest.raises(ValueError, match="JSON object"):
            SyncParams.from_json(bad)


def test_bad_nested_values_rejected():
    seq = REFUTED_SEQ.to_json()
    for path, bad in [
        (("matrices",), {"a": 2}),
        (("violation", "hits"), [[0, "01", 1]]),
        (("violation", "target"), 5),
        (("params",), [1]),
    ]:
        obj = json.loads(json.dumps(seq))
        node = obj
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = bad
        with pytest.raises(ValueError):
            SyncSequence.from_json(obj)


@pytest.mark.parametrize("raw", [["delete"], ["insert", 1], ["delete", "1"], ["swap", 1, 0], 3])
def test_malformed_edit_ops_rejected(raw):
    with pytest.raises(ValueError):
        EditScript.from_json({"ops": [raw]})


def test_derive_report_is_written_only():
    with pytest.raises(ValueError, match="written only"):
        DeriveReport.from_json(derive_params(Fraction(1, 16), 64).to_json())
