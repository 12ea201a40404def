#!/usr/bin/env python3
"""editsync benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the package from ``src/`` and
reads the desk fixture from ``fixtures/``, and needs nothing installed but
numpy.  Workloads are described in ``perfbench/README.md``.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
prints the per-layer metrics from a traced pass, plus the tracing overhead
against an untraced pass over the same ops.  Every op's output is checked
outside the timed interval.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

T_START = time.perf_counter()

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# Set-up is timed in this many fresh processes and reported as the median.
SETUP_RUNS = 7
SETUP_PROBE_TIMEOUT_S = 60

# Op timings are reported at a reference machine speed.  On a shared host the
# machine's own speed drifts by a third for minutes at a time, longer than a
# run.  A fixed kernel timed just before and after every op measures that
# drift, and the op's wall time is scaled by REFERENCE_CALIBRATION_MS over the
# kernel's mean time.  The kernel is bit-parallel LCS on Python ints, the work
# most ops spend their time on.  It defines the unit: never change it.
REFERENCE_CALIBRATION_MS = 8.0


def _calibration_pairs() -> tuple[tuple[int, int], ...]:
    rng = random.Random(0)
    return tuple((rng.getrandbits(16), rng.getrandbits(16)) for _ in range(2000))


CALIBRATION_PAIRS = _calibration_pairs()


def calibration_ms() -> float:
    """Wall time of the fixed calibration kernel, in ms."""
    t0 = time.perf_counter()
    for xw, yw in CALIBRATION_PAIRS:
        match = (0xFFFF & ~xw, xw)
        row = 0
        for _ in range(16):
            s = match[yw & 1] | row
            row = s & ~(s - ((row << 1) | 1))
            yw >>= 1
    return (time.perf_counter() - t0) * 1e3


@dataclass
class Run:
    """Outcome of one timed loop: per op, its wall time, its time at the
    reference machine speed and the calibration kernel's time after it;
    ``records`` holds the outputs of the leading ops that the digest covers."""

    latencies_ms: list[float] = field(default_factory=list)
    ref_ms: list[float] = field(default_factory=list)
    kernel_ms: list[float] = field(default_factory=list)
    failed: int = 0
    records: list[dict] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies_ms)

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted


def import_workloads():
    """Import the workloads from this checkout's ``src/``; a directory
    without the package is an error, never a silent fallback."""
    if not (SRC / "editsync" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'editsync'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import editsync
    import workloads

    if Path(editsync.__file__).resolve().parent != SRC / "editsync":
        raise SystemExit(f"error: imported editsync from {editsync.__file__}, not {SRC}")
    return workloads


def measure(wl, seconds: float, max_ops: int | None = None, tracer=None, between=None) -> Run:
    """Run ops 0, 1, ... until their summed wall time reaches ``seconds``
    (or ``max_ops`` ops).  The calibration kernel runs between ops; each op
    is checked after its timer stops, and then ``between(summed op
    seconds)`` is called, also untimed."""
    run = Run()
    busy = 0.0
    i = 0
    cal_before = calibration_ms()
    while busy < seconds and (max_ops is None or i < max_ops):
        inp = wl.make_input(i)
        if tracer is not None:
            tracer.begin_op(i)
        error = None
        t0 = time.perf_counter()
        try:
            out = wl.op(inp)
        except Exception as exc:  # any raised error is a failed op
            error = exc
        t1 = time.perf_counter()
        cal_after = calibration_ms()
        if tracer is not None:
            tracer.end_op(t0, t1)
        busy += t1 - t0
        run.latencies_ms.append((t1 - t0) * 1e3)
        run.ref_ms.append(
            (t1 - t0) * 1e3 * REFERENCE_CALIBRATION_MS * 2 / (cal_before + cal_after)
        )
        run.kernel_ms.append(cal_after)
        cal_before = cal_after
        if error is None:
            ok, record = wl.check(inp, out)
        else:
            if run.failed == 0:
                traceback.print_exception(error, file=sys.stderr)
            ok, record = False, {"error": f"{type(error).__name__}: {error}"}
        run.failed += not ok
        if i < wl.digest_ops:
            run.records.append(record)
        if between is not None:
            between(busy)
        i += 1
    return run


def digest(run: Run) -> tuple[int, str]:
    """SHA-256 over the canonical JSON of the kept outputs: the first
    ``digest_ops`` ops, fewer than any full run completes, so that runs of
    one seed compare whatever their length."""
    h = hashlib.sha256()
    for i, record in enumerate(run.records):
        h.update(json.dumps([i, record], sort_keys=True, separators=(",", ":")).encode())
        h.update(b"\n")
    return len(run.records), h.hexdigest()


def setup_and_warm_up(workloads, name: str, seed: int):
    """Fixture load (with its hash check) plus one untimed warm-up op, which
    also fills lazy caches such as the outer codebook."""
    wl = workloads.WORKLOADS[name](seed)
    out = wl.op(wl.make_input(-1))
    ok, _ = wl.check(wl.make_input(-1), out)
    if not ok:
        raise SystemExit(f"error: warm-up op of {name} gave a wrong answer")
    return wl


def setup_probe_seconds(name: str, seed: int) -> float:
    """Wall time from starting a fresh process to its 'ready' line: imports,
    fixture load and hash check, and one warm-up op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
        proc.wait(timeout=SETUP_PROBE_TIMEOUT_S)
    if line.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"error: set-up probe exited {proc.returncode}")
    return t1 - t0


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); the lone value for one op."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def op_timings(latencies_ms: list[float], ms: str, per_s: str) -> dict[str, tuple[float, str]]:
    return {
        "ops_per_s": (len(latencies_ms) / (sum(latencies_ms) / 1e3), per_s),
        "op_ms_p50": (statistics.median(latencies_ms), ms),
        "op_ms_p90": (quantile(latencies_ms, 90), ms),
    }


def end_to_end(run: Run, setup_s: float) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (setup_s, "s"),
        **op_timings(run.ref_ms, "ref-ms", "ops/ref-s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--max-ops", type=int, default=None,
                    help="stop after this many ops (self-test)")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    workloads = import_workloads()
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    wl = setup_and_warm_up(workloads, args.workload, args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    in_process_setup_s = time.perf_counter() - T_START

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    problems = []
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            run = measure(wl, args.seconds, args.max_ops, tracer)
        finally:
            tracer.uninstall()
        plain = measure(wl, float("inf"), run.attempted)
        metrics = tracing.layer_metrics(tracer)
        traced_p50 = statistics.median(run.ref_ms)
        plain_p50 = statistics.median(plain.ref_ms)
        metrics["trace.op_ms_p50"] = (traced_p50, "ref-ms")
        metrics["trace.overhead_ratio"] = (traced_p50 / plain_p50, "ratio")
        checked, problems = tracing.self_check(tracer, wl)
        print(f"tracing overhead: traced op_ms_p50 {traced_p50:.3f} ref-ms, "
              f"untraced {plain_p50:.3f} ref-ms over the same {run.attempted} ops")
        print(f"exact-count self-check: {checked} ops checked, {len(problems)} mismatched")
        for p in problems:
            print(f"  self-check mismatch: {p}")
        OUT_DIR.mkdir(exist_ok=True)
        trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        with trace_file.open("w") as f:
            for rec in tracer.records(T_START):
                f.write(json.dumps(rec) + "\n")
        print(f"spans written to {trace_file.relative_to(ROOT)}")
        run.failed += plain.failed
        run.latencies_ms += plain.latencies_ms
        run.ref_ms += plain.ref_ms
        run.kernel_ms += plain.kernel_ms
    else:
        probes = []

        def probe_when_due(busy):
            # Spread the probes over the timed loop so that one slow spell of
            # a shared machine reaches few of them.
            while len(probes) < SETUP_RUNS and busy >= args.seconds * len(probes) / SETUP_RUNS:
                probes.append(setup_probe_seconds(args.workload, args.seed))

        run = measure(wl, args.seconds, args.max_ops, between=probe_when_due)
        probe_when_due(float("inf"))
        print(f"set-up in this process {in_process_setup_s:.3f} s; "
              f"fresh processes {', '.join(f'{t:.3f}' for t in probes)} s")
        metrics = end_to_end(run, statistics.median(probes))

    k, hexdigest = digest(run)
    print(f"ops {run.attempted}, failed {run.failed}")
    print(f"fail_frac {run.fail_frac} ratio")
    print(f"digest of first {k} ops' outputs: {hexdigest}")
    print(f"calibration kernel median {statistics.median(run.kernel_ms)} ms "
          f"(reference {REFERENCE_CALIBRATION_MS} ms)")
    for name, (value, unit) in op_timings(run.latencies_ms, "ms", "ops/s").items():
        print(f"wall.{name} {value} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": run.failed == 0 and not problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
