"""Command-line entry point.

Subcommands: ball, bias, sync (sample|search|verify), capacity, params,
encode, corrupt, decode, recover, rate.  Numeric parameters are exact
rationals ("p/q" or integers).  Randomized runs record their seed in the
output so reruns are bit-identical.

Exit codes: 0 success, 2 bad input or precondition failure, 3 resource cap
or retry budget exhausted, 4 verification refuted (witness written).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .bitlinalg import BitVector
from .codec import (
    ConcatParams,
    apply_edits,
    concat_encode,
    decode,
    derive_params,
    overall_rate,
    random_edit_script,
)
from .edit_metric import EditBallQuery, ball_enumerate
from .errors import CapExceeded, ListBoundExceeded
from .inner_code import capacity_experiment
from .outer_code import OuterCodeSpec, RecoveryInput, list_recover, unfold_symbols
from .pseudorandom import (
    BiasedGeneratorSpec,
    KWiseSamplerSpec,
    expand_all_seeds,
    measure_bias,
)
from .sync import (
    SampleFailure,
    SyncParams,
    SyncSequence,
    derandomized_search,
    sample_sync,
    verify_sync,
)

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_CAP = 3
EXIT_REFUTED = 4


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:  # argparse maps ValueError, not this, to exit 2
        raise ValueError(str(exc)) from None


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _write_json(path: str | None, obj: dict) -> None:
    _write_text(path, json.dumps(obj, indent=2, sort_keys=False) + "\n")


def _read_bitstring(path: str) -> BitVector:
    return BitVector.from_string(Path(path).read_text().strip())


def _cmd_ball(args) -> int:
    q = EditBallQuery(
        center=BitVector.from_string(args.center),
        radius=args.radius,
        length_filter=args.len,
    )
    ball = ball_enumerate(q, cap=args.cap)
    for v in sorted(ball, key=lambda b: (b.n, b.bits)):
        print(str(v))
    return EXIT_OK


def _cmd_bias(args) -> int:
    spec = BiasedGeneratorSpec(output_len=args.n, epsilon=args.eps)
    report = {
        "n": spec.output_len,
        "epsilon": str(spec.epsilon),
        "field_log": spec.field_log,
        "seed_len": spec.seed_len,
    }
    if args.exhaustive:
        bias = measure_bias(expand_all_seeds(spec), spec.output_len)
        report["measured_bias"] = str(bias)
        report["within_target"] = bias <= spec.epsilon
    _write_json(args.out, report)
    return EXIT_OK


def _cmd_sync(args) -> int:
    params = SyncParams.from_json(_read_json(args.params))
    if args.action == "verify":
        if args.sequence is None:
            print("verify needs --sequence", file=sys.stderr)
            return EXIT_PRECONDITION
        seq = SyncSequence.from_json(_read_json(args.sequence))
        if seq.params != params:
            print("sequence params disagree with --params file", file=sys.stderr)
            return EXIT_PRECONDITION
        violation = verify_sync(params, seq.mats, strategy=args.strategy)
        if violation is None:
            print("verified")
            return EXIT_OK
        witness_path = args.witness or "sync_witness.json"
        _write_json(witness_path, violation.to_json())
        print(f"refuted: {violation.kind} (witness written to {witness_path})")
        return EXIT_REFUTED
    if args.action == "sample":
        result = sample_sync(params, args.seed, args.retries)
        if isinstance(result, SampleFailure):
            _write_json(args.out, result.to_json())
            print(
                f"no verified sequence within {args.retries} attempts",
                file=sys.stderr,
            )
            return EXIT_CAP
        _write_json(args.out, result.to_json())
        return EXIT_OK
    # search
    bias_spec = BiasedGeneratorSpec(
        output_len=params.msg_bits * params.block_bits, epsilon=args.bias_eps
    )
    kwise = KWiseSamplerSpec(
        k=args.kwise_k if args.kwise_k is not None else params.overlap_limit + 1,
        domain_size=params.n,
        value_bits=bias_spec.seed_len,
    )
    result = derandomized_search(params, kwise, bias_spec, cap_bits=args.cap_bits)
    if result.sequence is None:
        print(f"exhausted after {result.seeds_tried} seeds", file=sys.stderr)
        return EXIT_CAP
    _write_json(args.out, result.sequence.to_json())
    return EXIT_OK


def _cmd_capacity(args) -> int:
    report = capacity_experiment(
        k=args.k,
        n=args.n,
        radius=args.radius,
        trials=args.trials,
        list_bound=args.L,
        rng_seed=args.seed,
    )
    _write_json(args.out, report.to_json())
    return EXIT_OK


def _cmd_params(args) -> int:
    report = derive_params(args.gamma, args.n, c1=args.c1)
    _write_json(args.out, report.to_json())
    return EXIT_OK


def _cmd_encode(args) -> int:
    params = ConcatParams.from_json(_read_json(args.params))
    sync = SyncSequence.from_json(_read_json(args.sync))
    outer = OuterCodeSpec.from_json(_read_json(args.outer))
    message = _read_bitstring(args.message)
    cw = concat_encode(params, sync, outer, message)
    _write_text(args.out, str(cw.bits) + "\n")
    return EXIT_OK


def _cmd_corrupt(args) -> int:
    x = _read_bitstring(args.input)
    script = random_edit_script(x, args.budget, args.seed)
    y = apply_edits(x, script)
    _write_text(args.out, str(y) + "\n")
    if args.script:
        obj = script.to_json()
        obj["seed"] = args.seed
        _write_json(args.script, obj)
    return EXIT_OK


def _cmd_decode(args) -> int:
    params = ConcatParams.from_json(_read_json(args.params))
    sync = SyncSequence.from_json(_read_json(args.sync))
    outer = OuterCodeSpec.from_json(_read_json(args.outer))
    y = _read_bitstring(args.received)
    messages, report = decode(params, sync, outer, y)
    obj = report.to_json()
    obj["messages"] = [str(m) for m in messages]
    _write_json(args.report, obj)
    for m in messages:
        print(str(m))
    return EXIT_OK


def _cmd_recover(args) -> int:
    outer = OuterCodeSpec.from_json(_read_json(args.spec))
    raw = _read_json(args.boxes)
    if not (
        isinstance(raw, list)
        and all(isinstance(box, list) and all(isinstance(s, str) for s in box) for box in raw)
    ):
        raise ValueError("boxes must be an array of arrays of hex strings")
    boxes = tuple(frozenset(int(s, 16) for s in box) for box in raw)
    messages = list_recover(outer, RecoveryInput(boxes=boxes, alpha=args.alpha))
    obj = {
        "alpha": str(Fraction(args.alpha)),
        "count": len(messages),
        "messages": [str(unfold_symbols(m, outer.symbol_bits)) for m in messages],
    }
    _write_json(args.out, obj)
    return EXIT_OK


def _cmd_rate(args) -> int:
    params = ConcatParams.from_json(_read_json(args.params))
    outer = OuterCodeSpec.from_json(_read_json(args.outer))
    _write_json(args.out, overall_rate(params, outer, c1=args.c1).to_json())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="editsync", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ball", help="enumerate an edit ball")
    p.add_argument("--center", required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--len", type=int, default=None)
    p.add_argument("--cap", type=int, default=1 << 24)
    p.set_defaults(func=_cmd_ball)

    p = sub.add_parser("bias", help="small-bias generator report")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=_fraction, required=True)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_bias)

    p = sub.add_parser("sync", help="sample, search, or verify sync sequences")
    p.add_argument("action", choices=["sample", "search", "verify"])
    p.add_argument("--params", required=True, help="SyncParams JSON file")
    p.add_argument("--sequence", help="sequence file (verify)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--retries", type=int, default=100)
    p.add_argument("--strategy", choices=["fast", "reference"], default="fast")
    p.add_argument("--bias-eps", type=_fraction, default=Fraction(1, 8))
    p.add_argument("--kwise-k", type=int, default=None)
    p.add_argument("--cap-bits", type=int, default=20)
    p.add_argument("--witness", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sync)

    p = sub.add_parser("capacity", help="random linear code list-size experiment")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_capacity)

    p = sub.add_parser("params", help="evaluate the parameter formulas")
    p.add_argument("--gamma", type=_fraction, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c1", type=float, default=1.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_params)

    p = sub.add_parser("encode", help="concatenated encode")
    p.add_argument("--params", required=True)
    p.add_argument("--sync", required=True)
    p.add_argument("--outer", required=True)
    p.add_argument("--message", required=True, help="bitstring file")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("corrupt", help="apply a random edit script")
    p.add_argument("--input", required=True, help="bitstring file")
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--script", default=None, help="write the edit script JSON here")
    p.set_defaults(func=_cmd_corrupt)

    p = sub.add_parser("decode", help="window-scanning list decode")
    p.add_argument("--params", required=True)
    p.add_argument("--sync", required=True)
    p.add_argument("--outer", required=True)
    p.add_argument("--received", required=True, help="bitstring file")
    p.add_argument("--report", default=None, help="write the decode report JSON here")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("recover", help="outer-code list recovery from boxes")
    p.add_argument("--spec", required=True)
    p.add_argument("--boxes", required=True, help="JSON array of arrays of hex symbols")
    p.add_argument("--alpha", type=_fraction, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("rate", help="achieved vs. target rate")
    p.add_argument("--params", required=True)
    p.add_argument("--outer", required=True)
    p.add_argument("--c1", type=float, default=1.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_rate)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ListBoundExceeded as exc:
        print(f"list bound exceeded: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    raise SystemExit(main())
