#!/usr/bin/env python3
"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Run it from the repository root.  It runs every workload named in
BENCHMARK.json for a few ops, untraced and traced, and asserts that the
result line carries every metric BENCHMARK.json names with its unit, that
every op passed and that the traced exact-count self-checks ran.  Then it
injects a wrong answer into each workload, by patching the package from
here (nothing under src/ changes), and asserts that every op is counted as
failed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OPS = 3


def run_cli(workload: str, trace: int) -> tuple[dict, str]:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "60", "--trace", str(trace), "--max-ops", str(OPS)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def check_output(spec: dict) -> None:
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, stdout = run_cli(w["name"], trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, stdout
            assert result["attempted"] >= OPS, result
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (w["name"], trace, set(got) ^ set(want))
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), (name, m)
                assert f"\n{name} {m['value']} {m['unit']}\n" in stdout, name
            assert "\nfail_frac 0.0 ratio\n" in stdout, stdout
            if trace and w["name"] != "sync_sample":
                checked = stdout.split("exact-count self-check: ")[1].split(" ops")[0]
                assert int(checked) > 0, stdout
            print(f"ok  {w['name']} --trace {trace}: {len(got)} metrics, {result['attempted']} ops")


def inject_wrong_answers() -> None:
    """Each patch corrupts one output that the workload's check inspects."""
    sys.path.insert(0, str(BENCH_DIR))
    import run

    workloads = run.import_workloads()
    from editsync import codec, sync
    from editsync.bitlinalg import BitVector
    from editsync.sync import RankViolation

    real_decode, real_outcome, real_verify = codec.decode, sync.verify_outcome, sync.verify_sync

    def decode_to_empty_list(params, seq, outer, y):
        _, report = real_decode(params, seq, outer, y)
        return [], report

    def outcome_with_zero_kernel(params, mats, *args, **kwargs):
        out = real_outcome(params, mats, *args, **kwargs)
        out.condition3 = RankViolation(block=0, kernel=BitVector(0, params.msg_bits))
        return out

    def flipped_reference_verdict(params, mats, strategy="fast", *args, **kwargs):
        verdict = real_verify(params, mats, strategy, *args, **kwargs)
        if strategy != "reference":
            return verdict
        if verdict is None:
            return RankViolation(block=0, kernel=BitVector(1, params.msg_bits))
        return None

    cases = (
        ("desk_roundtrip", codec, "decode", decode_to_empty_list),
        ("sync_sample", sync, "verify_outcome", outcome_with_zero_kernel),
        ("reference_verify", sync, "verify_sync", flipped_reference_verdict),
    )
    for name, module, attr, fake in cases:
        real = getattr(module, attr)
        setattr(module, attr, fake)
        try:
            # patch first: sync_sample's own capture must wrap the fake
            wl = workloads.WORKLOADS[name](seed=1)
            result = run.measure(wl, seconds=60, max_ops=OPS)
        finally:
            setattr(module, attr, real)
        assert result.attempted == OPS and result.failed == OPS, (name, result.failed)
        assert result.fail_frac == 1.0, (name, result.fail_frac)
        print(f"ok  {name}: injected wrong answer counted, fail_frac {result.fail_frac}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_output(spec)
    inject_wrong_answers()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
