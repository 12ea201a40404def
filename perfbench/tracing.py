"""Spans and counters recorded from outside the package.

``Tracer.install`` replaces each traced name in the module that calls it
(``editsync.codec.inner_list_decode``, ``editsync.sync.edit_distance_words``
and so on), so every call between layers passes through a wrapper.  A
wrapper does nothing but call through while no op is running, which keeps
set-up and correctness checks out of the trace.

Spans form one call tree per op.  Calls with the same name under the same
parent span merge into one span that keeps the call count, the summed
duration and the first start and last end: a desk decode makes about 14,000
LCS calls, and one record per call would not fit in memory over a run.
Because the package is single-threaded, sibling spans never overlap, so a
span's self time is its duration minus its children's.
"""

from __future__ import annotations

import statistics
from collections import Counter
from time import perf_counter

from editsync import bitlinalg, codec, edit_metric, inner_code, sync

LAYERS = ("codec", "inner_code", "edit_metric", "sync", "outer_code", "bitlinalg")


def _count_windows(counters, args, kwargs, result):
    boxes, stats = result
    counters["codec.windows"] += len(stats)
    counters["codec.box_entries"] += sum(len(b) for b in boxes)


def _count_list_decode(counters, args, kwargs, result):
    code, y, radius = args
    # inner_list_decode tests every nonzero message only when the window
    # length is within radius of the block width, and none otherwise.
    if code.block_bits - radius <= y.n <= code.block_bits + radius:
        counters["inner_code.tested"] += (1 << code.msg_bits) - 1
    counters["inner_code.returned"] += len(result)


def _count_ball(counters, args, kwargs, result):
    counters["edit_metric.ball_entries"] += len(result)


def _count_recovered(counters, args, kwargs, result):
    counters["outer_code.recovered"] += len(result)


def _count_verdict(counters, args, kwargs, result):
    counters["sync.verifies"] += 1
    counters["sync.verified"] += not result.violated_kinds()


def _verify_span(args, kwargs):
    strategy = args[2] if len(args) > 2 else kwargs.get("strategy", "fast")
    return f"sync.verify_{strategy}"


# (module, attribute, span name or function of the call's arguments, counter hook)
PATCHES = (
    (codec, "concat_encode", "codec.concat_encode", None),
    (codec, "random_edit_script", "codec.random_edit_script", None),
    (codec, "apply_edits", "codec.apply_edits", None),
    (codec, "decode", "codec.decode", None),
    (codec, "scan_windows", "codec.scan_windows", _count_windows),
    (codec, "inner_encode", "inner_code.inner_encode", None),
    (codec, "inner_list_decode", "inner_code.inner_list_decode", _count_list_decode),
    (codec, "outer_encode", "outer_code.outer_encode", None),
    (codec, "list_recover", "outer_code.list_recover", _count_recovered),
    (codec, "fold_symbols", "outer_code.fold_symbols", None),
    (codec, "unfold_symbols", "outer_code.unfold_symbols", None),
    (inner_code, "mat_vec_mul", "bitlinalg.mat_vec_mul", None),
    (inner_code, "rank", "bitlinalg.rank", None),
    (inner_code, "random_matrix", "bitlinalg.random_matrix", None),
    (inner_code, "edit_distance_words", "edit_metric.edit_distance_words", None),
    (inner_code, "ball_words", "edit_metric.ball_words", _count_ball),
    (sync, "sample_sync", "sync.sample_sync", None),
    (sync, "verify_sync", "sync.verify_sync", None),
    (sync, "verify_outcome", _verify_span, _count_verdict),
    (sync, "random_matrix", "bitlinalg.random_matrix", None),
    (sync, "left_kernel_vector", "bitlinalg.left_kernel_vector", None),
    (sync, "row_space_intersection", "bitlinalg.row_space_intersection", None),
    (sync, "in_row_space", "bitlinalg.in_row_space", None),
    (sync, "edit_distance_words", "edit_metric.edit_distance_words", None),
    (sync, "ball_words", "edit_metric.ball_words", _count_ball),
    (bitlinalg, "random_matrix", "bitlinalg.random_matrix", None),
    (edit_metric, "edit_distance_words", "edit_metric.edit_distance_words", None),
)

# span record fields
ID, PARENT, NAME, CALLS, TOTAL, START, END = range(7)


class Tracer:
    """Per-op call trees of merged spans plus per-op counters."""

    def __init__(self):
        self.ops: list[tuple[int, list[list], Counter]] = []  # (op id, spans, counters)
        self._next_id = 0
        self._op = None
        self._saved = []

    def install(self) -> None:
        for module, attr, name, hook in PATCHES:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, hook))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _new_span(self, parent: int | None, name: str) -> list:
        span = [self._next_id, parent, name, 0, 0.0, None, None]
        self._next_id += 1
        self._spans.append(span)
        return span

    def _wrap(self, fn, name, hook):
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            span_name = name if isinstance(name, str) else name(args, kwargs)
            parent = self._stack[-1]
            key = (parent[ID], span_name)
            span = self._children.get(key)
            if span is None:
                span = self._children[key] = self._new_span(parent[ID], span_name)
            self._stack.append(span)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                span[CALLS] += 1
                span[TOTAL] += t1 - t0
                if span[START] is None:
                    span[START] = t0
                span[END] = t1
            if hook is not None:
                hook(self._counters, args, kwargs, result)
            return result

        return traced

    def begin_op(self, op_id: int) -> None:
        self._spans: list[list] = []
        self._children: dict[tuple[int, str], list] = {}
        self._counters = Counter()
        self._stack = [self._new_span(None, "bench.op")]
        self._op = op_id

    def end_op(self, t0: float, t1: float) -> None:
        root = self._stack[0]
        root[CALLS], root[TOTAL], root[START], root[END] = 1, t1 - t0, t0, t1
        self.ops.append((self._op, self._spans, self._counters))
        self._op = None

    def records(self, origin: float):
        """Every span as a dict, times in seconds since ``origin``."""
        for op_id, spans, _ in self.ops:
            for s in spans:
                yield {
                    "op": op_id, "id": s[ID], "parent": s[PARENT], "name": s[NAME],
                    "calls": s[CALLS], "start": s[START] - origin, "end": s[END] - origin,
                    "total_s": s[TOTAL],
                }


def _per_op(tracer: Tracer):
    """Per op: name -> [calls, total seconds, self seconds], and counters."""
    for _, spans, counters in tracer.ops:
        child_time = Counter()
        for s in spans:
            if s[PARENT] is not None:
                child_time[s[PARENT]] += s[TOTAL]
        by_name: dict[str, list] = {}
        for s in spans:
            row = by_name.setdefault(s[NAME], [0, 0.0, 0.0])
            row[0] += s[CALLS]
            row[1] += s[TOTAL]
            row[2] += s[TOTAL] - child_time[s[ID]]
        yield by_name, counters


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per op unless the name says otherwise."""
    per_op = list(_per_op(tracer))
    ops = len(per_op)
    calls, ms, self_ms, totals = Counter(), Counter(), Counter(), Counter()
    recovered = []
    for by_name, counters in per_op:
        for name, (c, total, own) in by_name.items():
            calls[name] += c
            ms[name] += total * 1e3
            self_ms[name.split(".")[0]] += own * 1e3
        totals.update(counters)
        recovered.append(counters["outer_code.recovered"])

    def per(counter, key):
        return counter[key] / ops

    def ratio(num, den):
        return num / den if den else 0.0

    dist = "edit_metric.edit_distance_words"
    m = {
        "codec.scan_windows_ms": (per(ms, "codec.scan_windows"), "ms"),
        "codec.windows": (per(totals, "codec.windows"), "count"),
        "codec.box_entries": (per(totals, "codec.box_entries"), "count"),
        "codec.stage2_ms": (per(ms, "codec.decode") - per(ms, "codec.scan_windows"), "ms"),
        "codec.encode_ms": (per(ms, "codec.concat_encode"), "ms"),
        "inner_code.list_decode_calls": (per(calls, "inner_code.inner_list_decode"), "count"),
        "inner_code.list_decode_ms": (per(ms, "inner_code.inner_list_decode"), "ms"),
        "inner_code.hit_ratio": (
            ratio(totals["inner_code.returned"], totals["inner_code.tested"]), "ratio"
        ),
        "edit_metric.distance_calls": (per(calls, dist), "count"),
        "edit_metric.distance_us": (ratio(ms[dist] * 1e3, calls[dist]), "us"),
        "edit_metric.ball_words_calls": (per(calls, "edit_metric.ball_words"), "count"),
        "edit_metric.ball_entries": (per(totals, "edit_metric.ball_entries"), "count"),
        "edit_metric.ball_words_ms": (per(ms, "edit_metric.ball_words"), "ms"),
        "sync.verify_fast_ms": (per(ms, "sync.verify_fast"), "ms"),
        "sync.verified_ratio": (ratio(totals["sync.verified"], totals["sync.verifies"]), "ratio"),
        "sync.verify_reference_ms": (per(ms, "sync.verify_reference"), "ms"),
        "outer_code.list_recover_ms": (per(ms, "outer_code.list_recover"), "ms"),
        "outer_code.recovered": (statistics.median(recovered), "count"),
        "bitlinalg.random_matrix_ms": (per(ms, "bitlinalg.random_matrix"), "ms"),
        "bitlinalg.left_kernel_ms": (per(ms, "bitlinalg.left_kernel_vector"), "ms"),
        "bitlinalg.mat_vec_mul_calls": (per(calls, "bitlinalg.mat_vec_mul"), "count"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = (per(self_ms, layer), "ms")
    return m


def self_check(tracer: Tracer, workload) -> tuple[int, list[str]]:
    """Exact call counts that prove the wrappers see every call.

    desk_roundtrip: one inner_list_decode per (window, block) pair.
    reference_verify: a verifying sweep makes exactly
    ``workload.lcs_calls_when_verified()`` LCS evaluations.
    Returns (ops checked, failure messages).
    """
    checked, problems = 0, []
    for (op_id, _, _), (by_name, counters) in zip(tracer.ops, _per_op(tracer)):
        if workload.name == "desk_roundtrip":
            want = counters["codec.windows"] * workload.params.n
            got = by_name.get("inner_code.inner_list_decode", [0])[0]
        elif workload.name == "reference_verify" and counters["sync.verified"]:
            want = workload.lcs_calls_when_verified()
            got = by_name.get("edit_metric.edit_distance_words", [0])[0]
        else:
            continue
        checked += 1
        if got != want:
            problems.append(f"op {op_id}: {got} calls, expected {want}")
    return checked, problems
