import importlib.util
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import editsync
from editsync.bitlinalg import BitMatrix, BitVector, random_matrix
from editsync.cli import EXIT_CAP, EXIT_OK, EXIT_PRECONDITION, EXIT_REFUTED, main
from editsync.codec import apply_edits, concat_encode, decode, random_edit_script
from editsync.sync import (
    AlignmentViolation,
    ListSizeViolation,
    SyncParams,
    SyncSequence,
    sample_sync,
)

from conftest import FIXTURE_DIR, REPO_ROOT, SCHEMA_DIR, validate_against_schema

PARAMS = str(FIXTURE_DIR / "concat_params.json")
SYNC = str(FIXTURE_DIR / "sync_sequence.json")
SYNC_PARAMS = str(FIXTURE_DIR / "sync_params.json")
OUTER = str(FIXTURE_DIR / "outer_spec.json")
MESSAGE = "1011001110001111"


def run_cli(*argv) -> int:
    return main(list(argv))


def fixture_doc(name: str):
    return json.loads((FIXTURE_DIR / name).read_text())


def key_order_breaks(obj, schema: dict, path: str = "$") -> list[str]:
    """Paths of the objects inside ``obj`` whose keys leave the order of
    their schema's ``properties``; ``$ref``, ``oneOf`` and ``anyOf`` are
    followed to the branch whose properties hold every key."""
    if "$ref" in schema:
        schema = json.loads((SCHEMA_DIR / schema["$ref"]).read_text())
    for branch in schema.get("oneOf", []) + schema.get("anyOf", []):
        if "$ref" in branch:
            branch = json.loads((SCHEMA_DIR / branch["$ref"]).read_text())
        if isinstance(obj, dict) and set(obj) <= set(branch.get("properties", {})):
            schema = branch
    breaks = []
    if isinstance(obj, dict) and "properties" in schema:
        props = schema["properties"]
        if list(obj) != [k for k in props if k in obj]:
            breaks.append(path)
        for k, v in obj.items():
            breaks += key_order_breaks(v, props.get(k, {}), f"{path}.{k}")
    elif isinstance(obj, list) and "items" in schema:
        for i, v in enumerate(obj):
            breaks += key_order_breaks(v, schema["items"], f"{path}[{i}]")
    return breaks


class TestBall:
    def test_prints_ball(self, capsys):
        assert run_cli("ball", "--center", "0", "--radius", "1") == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert sorted(lines) == sorted(["", "0", "00", "01", "10"])

    def test_length_filter(self, capsys):
        assert run_cli("ball", "--center", "0", "--radius", "1", "--len", "1") == EXIT_OK
        assert capsys.readouterr().out.splitlines() == ["0"]


class TestBias:
    def test_report_schema(self, tmp_path):
        out = tmp_path / "bias.json"
        code = run_cli(
            "bias", "--n", "8", "--eps", "1/8", "--exhaustive", "--out", str(out)
        )
        assert code == EXIT_OK
        obj = json.loads(out.read_text())
        validate_against_schema(obj, "bias_report.schema.json")
        assert obj["within_target"] is True


class TestSync:
    def test_verify_fixture(self, capsys):
        assert (
            run_cli("sync", "verify", "--params", SYNC_PARAMS, "--sequence", SYNC)
            == EXIT_OK
        )
        assert "verified" in capsys.readouterr().out

    def test_verify_zeroed_matrix_refuted(self, tmp_path, desk_sync):
        from editsync.bitlinalg import BitMatrix
        from editsync.sync import SyncSequence

        zeroed = SyncSequence(
            params=desk_sync.params,
            mats=(BitMatrix.zero(4, 16),) + desk_sync.mats[1:],
        )
        tampered = tmp_path / "zeroed.json"
        tampered.write_text(json.dumps(zeroed.to_json()))
        witness = tmp_path / "witness.json"
        code = run_cli(
            "sync", "verify", "--params", SYNC_PARAMS,
            "--sequence", str(tampered), "--witness", str(witness),
        )
        assert code == EXIT_REFUTED
        w = json.loads(witness.read_text())
        validate_against_schema(w, "sync_witness.schema.json")
        assert w["kind"] == "condition3"

    def test_verify_params_mismatch_rejected(self, tmp_path):
        other = tmp_path / "other_params.json"
        other.write_text(
            json.dumps(
                {
                    "n": 8, "msg_bits": 4, "block_bits": 16, "delta": "1/16",
                    "overlap_limit": 3, "list_limit": 8,
                }
            )
        )
        code = run_cli("sync", "verify", "--params", str(other), "--sequence", SYNC)
        assert code == EXIT_PRECONDITION

    def test_sample_writes_valid_sequence(self, tmp_path):
        params = tmp_path / "params.json"
        params.write_text(
            json.dumps(
                {
                    "n": 4, "msg_bits": 2, "block_bits": 10, "delta": "0",
                    "overlap_limit": 3, "list_limit": 4,
                }
            )
        )
        out = tmp_path / "seq.json"
        code = run_cli(
            "sync", "sample", "--params", str(params), "--seed", "3",
            "--retries", "50", "--out", str(out),
        )
        assert code == EXIT_OK
        obj = json.loads(out.read_text())
        validate_against_schema(obj, "sync_sequence.schema.json")
        assert obj["status"] == "verified"

    def test_sample_exhausted_budget(self, tmp_path):
        params = tmp_path / "params.json"
        params.write_text(
            json.dumps(
                {
                    "n": 4, "msg_bits": 1, "block_bits": 1, "delta": "0",
                    "overlap_limit": 1, "list_limit": 1,
                }
            )
        )
        out = tmp_path / "fail.json"
        code = run_cli(
            "sync", "sample", "--params", str(params), "--retries", "3",
            "--out", str(out),
        )
        assert code == EXIT_CAP
        obj = json.loads(out.read_text())
        validate_against_schema(obj, "sample_failure.schema.json")

    def test_search_tiny_instance(self, tmp_path):
        params = tmp_path / "params.json"
        params.write_text(
            json.dumps(
                {
                    "n": 2, "msg_bits": 1, "block_bits": 2, "delta": "0",
                    "overlap_limit": 1, "list_limit": 1,
                }
            )
        )
        out = tmp_path / "seq.json"
        code = run_cli(
            "sync", "search", "--params", str(params), "--bias-eps", "1/2",
            "--kwise-k", "2", "--out", str(out),
        )
        if code == EXIT_OK:
            obj = json.loads(out.read_text())
            validate_against_schema(obj, "sync_sequence.schema.json")
        else:
            assert code == EXIT_CAP


class TestParams:
    def test_report_schema(self, tmp_path):
        out = tmp_path / "params.json"
        assert run_cli("params", "--gamma", "1/16", "--n", "64", "--out", str(out)) == EXIT_OK
        obj = json.loads(out.read_text())
        validate_against_schema(obj, "params_report.schema.json")
        assert obj["feasible"] is False


class TestCapacity:
    def test_report_schema(self, tmp_path):
        out = tmp_path / "cap.json"
        code = run_cli(
            "capacity", "--k", "3", "--n", "8", "--radius", "1", "--trials", "5",
            "--L", "4", "--seed", "1", "--out", str(out),
        )
        assert code == EXIT_OK
        validate_against_schema(json.loads(out.read_text()), "capacity_report.schema.json")


class TestPipeline:
    def test_encode_corrupt_decode_matches_library(
        self, tmp_path, desk_params, desk_sync, desk_outer
    ):
        msg_file = tmp_path / "msg.txt"
        msg_file.write_text(MESSAGE + "\n")
        cw_file = tmp_path / "cw.txt"
        rx_file = tmp_path / "rx.txt"
        script_file = tmp_path / "script.json"
        report_file = tmp_path / "report.json"

        assert run_cli(
            "encode", "--params", PARAMS, "--sync", SYNC, "--outer", OUTER,
            "--message", str(msg_file), "--out", str(cw_file),
        ) == EXIT_OK
        assert run_cli(
            "corrupt", "--input", str(cw_file), "--budget", "2", "--seed", "7",
            "--out", str(rx_file), "--script", str(script_file),
        ) == EXIT_OK
        assert run_cli(
            "decode", "--params", PARAMS, "--sync", SYNC, "--outer", OUTER,
            "--received", str(rx_file), "--report", str(report_file),
        ) == EXIT_OK

        script_obj = json.loads(script_file.read_text())
        validate_against_schema(script_obj, "edit_script.schema.json")
        report_obj = json.loads(report_file.read_text())
        validate_against_schema(report_obj, "decode_report.schema.json")

        # library-level rerun must agree bit for bit
        msg = BitVector.from_string(MESSAGE)
        cw = concat_encode(desk_params, desk_sync, desk_outer, msg)
        assert cw_file.read_text().strip() == str(cw.bits)
        script = random_edit_script(cw.bits, 2, 7)
        y = apply_edits(cw.bits, script)
        assert rx_file.read_text().strip() == str(y)
        out, _ = decode(desk_params, desk_sync, desk_outer, y)
        assert report_obj["messages"] == [str(m) for m in out]
        assert MESSAGE in report_obj["messages"]

    def test_fixture_files_validate(self):
        validate_against_schema(
            json.loads((FIXTURE_DIR / "sync_sequence.json").read_text()),
            "sync_sequence.schema.json",
        )
        validate_against_schema(
            json.loads((FIXTURE_DIR / "sync_params.json").read_text()),
            "sync_params.schema.json",
        )
        validate_against_schema(
            json.loads((FIXTURE_DIR / "concat_params.json").read_text()),
            "concat_params.schema.json",
        )
        validate_against_schema(
            json.loads((FIXTURE_DIR / "outer_spec.json").read_text()),
            "outer_spec.schema.json",
        )


class TestRecoverAndRate:
    def test_recover_schema(self, tmp_path, desk_outer):
        from editsync.outer_code import outer_encode

        cw = outer_encode(desk_outer, (1, 2, 3, 4))
        boxes_file = tmp_path / "boxes.json"
        boxes_doc = [[format(s, "x")] for s in cw]
        validate_against_schema(boxes_doc, "boxes.schema.json")
        boxes_file.write_text(json.dumps(boxes_doc))
        out = tmp_path / "rec.json"
        code = run_cli(
            "recover", "--spec", OUTER, "--boxes", str(boxes_file),
            "--alpha", "0", "--out", str(out),
        )
        assert code == EXIT_OK
        obj = json.loads(out.read_text())
        validate_against_schema(obj, "recover_report.schema.json")
        assert obj["count"] == 1

    def test_rate_schema(self, tmp_path):
        out = tmp_path / "rate.json"
        assert run_cli("rate", "--params", PARAMS, "--outer", OUTER, "--out", str(out)) == EXIT_OK
        obj = json.loads(out.read_text())
        validate_against_schema(obj, "rate_report.schema.json")
        assert obj["achieved"] == "1/8"


class TestErrors:
    def test_bad_rational(self):
        assert run_cli("params", "--gamma", "1/8", "--n", "64") == EXIT_PRECONDITION

    @pytest.mark.parametrize(
        "argv",
        [
            ["params", "--gamma", "1/0", "--n", "64"],
            ["bias", "--n", "8", "--eps", "1/0"],
            ["recover", "--spec", OUTER, "--boxes", "boxes.json", "--alpha", "1/0"],
            ["sync", "search", "--params", SYNC_PARAMS, "--bias-eps", "1/0"],
        ],
        ids=["gamma", "eps", "alpha", "bias-eps"],
    )
    def test_zero_denominator_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert "invalid _fraction value: '1/0'" in err and "Traceback" not in err

    def test_verify_over_index_key_width(self, tmp_path, capsys):
        # 61 columns at radius 2 with one message bit need 65-bit index keys
        params = SyncParams(
            n=1, msg_bits=1, block_bits=61, delta=Fraction(2, 61), overlap_limit=1, list_limit=1
        )
        params_file, seq_file = tmp_path / "params.json", tmp_path / "seq.json"
        params_file.write_text(json.dumps(params.to_json()))
        seq = SyncSequence(params=params, mats=(random_matrix(1, 61, 0),))
        seq_file.write_text(json.dumps(seq.to_json()))
        assert run_cli(
            "sync", "verify", "--params", str(params_file), "--sequence", str(seq_file)
        ) == EXIT_CAP
        err = capsys.readouterr().err
        assert "resource cap exceeded" in err and "Traceback" not in err

    def test_decode_over_work_cap(self, tmp_path, capsys):
        rx_file = tmp_path / "rx.txt"
        rx_file.write_text("0" * 2_000_000 + "\n")
        assert run_cli(
            "decode", "--params", PARAMS, "--sync", SYNC, "--outer", OUTER,
            "--received", str(rx_file),
        ) == EXIT_CAP
        err = capsys.readouterr().err
        assert "resource cap exceeded" in err and "Traceback" not in err

    def test_recover_over_codebook_cap(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({
            "symbol_bits": 24, "block_count": 3, "message_symbols": 1,
            "recovery": {"alpha": "0", "box_limit": 1, "list_limit": 1},
        }))
        boxes_file = tmp_path / "boxes.json"
        boxes_file.write_text(json.dumps([["1"], ["1"], ["1"]]))
        assert run_cli(
            "recover", "--spec", str(spec_file), "--boxes", str(boxes_file), "--alpha", "0",
        ) == EXIT_CAP
        err = capsys.readouterr().err
        assert "resource cap exceeded" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "doc, argv",
        [
            ({**fixture_doc("concat_params.json"), "n": "8"}, ["rate", "--params", "BAD", "--outer", OUTER]),
            ([1, 2], ["rate", "--params", "BAD", "--outer", OUTER]),
            (
                {**fixture_doc("sync_params.json"), "delta": None},
                ["sync", "verify", "--params", "BAD", "--sequence", SYNC],
            ),
            ({**fixture_doc("outer_spec.json"), "recovery": [1]}, ["rate", "--params", PARAMS, "--outer", "BAD"]),
            ([[1, 2], [3]], ["recover", "--spec", OUTER, "--boxes", "BAD", "--alpha", "0"]),
            (
                {**fixture_doc("sync_sequence.json"), "matrices": [1]},
                ["sync", "verify", "--params", SYNC_PARAMS, "--sequence", "BAD"],
            ),
        ],
        ids=[
            "string-block-count", "array-params", "null-delta", "array-recovery",
            "integer-box-symbols", "integer-matrix",
        ],
    )
    def test_malformed_input_exits_2(self, tmp_path, capsys, doc, argv):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run_cli(*(str(bad) if a == "BAD" else a for a in argv)) == EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_missing_file(self):
        assert run_cli(
            "decode", "--params", "/nonexistent.json", "--sync", SYNC,
            "--outer", OUTER, "--received", "/nonexistent.txt",
        ) == EXIT_PRECONDITION


class TestKeyOrder:
    def test_fixture_text_matches_generator(self):
        spec = importlib.util.spec_from_file_location(
            "make_desk_profile", REPO_ROOT / "scripts" / "make_desk_profile.py"
        )
        gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
        seq = sample_sync(gen.SYNC_PARAMS, gen.FIXTURE_SEED, gen.RETRY_BUDGET)
        assert isinstance(seq, SyncSequence)
        for name, record in [
            ("sync_params.json", gen.SYNC_PARAMS),
            ("sync_sequence.json", seq),
            ("concat_params.json", gen.CONCAT_PARAMS),
            ("outer_spec.json", gen.OUTER_SPEC),
        ]:
            text = (FIXTURE_DIR / name).read_text()
            assert text == json.dumps(record.to_json(), indent=2) + "\n", name

    def test_cli_records_follow_schema_order(self, tmp_path, desk_sync):
        t = tmp_path
        (t / "msg.txt").write_text(MESSAGE + "\n")
        (t / "sp.json").write_text(json.dumps({
            "n": 4, "msg_bits": 2, "block_bits": 10, "delta": "0",
            "overlap_limit": 3, "list_limit": 4,
        }))
        (t / "hopeless.json").write_text(json.dumps({
            "n": 4, "msg_bits": 1, "block_bits": 1, "delta": "0",
            "overlap_limit": 1, "list_limit": 1,
        }))
        zeroed = SyncSequence(
            params=desk_sync.params, mats=(BitMatrix.zero(4, 16),) + desk_sync.mats[1:]
        )
        (t / "zeroed.json").write_text(json.dumps(zeroed.to_json()))
        (t / "boxes.json").write_text(json.dumps([["0"]] * 8))
        runs = [
            (EXIT_OK, "bias_report", ["bias", "--n", "8", "--eps", "1/8", "--exhaustive"]),
            (EXIT_OK, "capacity_report", [
                "capacity", "--k", "3", "--n", "8", "--radius", "1", "--trials", "3",
                "--L", "4", "--seed", "1",
            ]),
            (EXIT_OK, "params_report", ["params", "--gamma", "1/256", "--n", "1048576"]),
            (EXIT_OK, "rate_report", ["rate", "--params", PARAMS, "--outer", OUTER]),
            (EXIT_OK, "recover_report", [
                "recover", "--spec", OUTER, "--boxes", str(t / "boxes.json"), "--alpha", "0",
            ]),
            (EXIT_OK, "sync_sequence", [
                "sync", "sample", "--params", str(t / "sp.json"), "--seed", "3",
            ]),
            (EXIT_CAP, "sample_failure", [
                "sync", "sample", "--params", str(t / "hopeless.json"), "--retries", "3",
            ]),
        ]
        written = {}
        for code, schema, argv in runs:
            out = t / f"{schema}.json"
            assert run_cli(*argv, "--out", str(out)) == code, schema
            written[schema] = json.loads(out.read_text())
        assert run_cli(
            "sync", "verify", "--params", SYNC_PARAMS, "--sequence", str(t / "zeroed.json"),
            "--witness", str(t / "witness.json"),
        ) == EXIT_REFUTED
        assert run_cli(
            "encode", "--params", PARAMS, "--sync", SYNC, "--outer", OUTER,
            "--message", str(t / "msg.txt"), "--out", str(t / "cw.txt"),
        ) == EXIT_OK
        assert run_cli(
            "corrupt", "--input", str(t / "cw.txt"), "--budget", "2", "--seed", "7",
            "--out", str(t / "rx.txt"), "--script", str(t / "edit_script.json"),
        ) == EXIT_OK
        assert run_cli(
            "decode", "--params", PARAMS, "--sync", SYNC, "--outer", OUTER,
            "--received", str(t / "rx.txt"), "--report", str(t / "decode_report.json"),
        ) == EXIT_OK
        for schema, name in [
            ("sync_witness", "witness.json"),
            ("edit_script", "edit_script.json"),
            ("decode_report", "decode_report.json"),
        ]:
            written[schema] = json.loads((t / name).read_text())
        assert written["params_report"]["params"] is not None
        assert len(written) == 10
        v = BitVector.from_string
        witnesses = [
            AlignmentViolation(target=v("01"), hits=((0, v("1")), (1, v("1")))),
            ListSizeViolation(block=2, target=v("0"), messages=(v("0"), v("1"))),
        ]
        for schema, obj in [*written.items(), *(("sync_witness", w.to_json()) for w in witnesses)]:
            validate_against_schema(obj, f"{schema}.schema.json")
            schema_doc = json.loads((SCHEMA_DIR / f"{schema}.schema.json").read_text())
            assert key_order_breaks(obj, schema_doc) == [], schema


def test_console_entry_point_subprocess():
    # the child imports the package under test, whether or not it is installed
    src = str(Path(editsync.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "editsync.cli", "ball", "--center", "01", "--radius", "0"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "01"
