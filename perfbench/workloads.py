"""The three benchmark workloads.

Each workload turns (seed, op index) into an input with the benchmark's own
generator, runs one op against the package's public API, and checks the
op's output outside the timed interval.  Ops call the package through module
attributes (``codec.decode``, ``sync.sample_sync``) so that the wrappers
installed by ``tracing.py`` see every call.

Importing this module needs ``src/`` on ``sys.path``; ``run.py`` puts it
there.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

from editsync import bitlinalg, codec, sync
from editsync.bitlinalg import BitVector, mat_vec_mul
from editsync.codec import ConcatParams
from editsync.edit_metric import edit_distance
from editsync.outer_code import OuterCodeSpec
from editsync.sync import (
    AlignmentViolation,
    ListSizeViolation,
    RankViolation,
    SampleFailure,
    SyncParams,
    SyncSequence,
)

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures" / "desk_profile"


def _load(name: str) -> dict:
    return json.loads((FIXTURE_DIR / name).read_text())


def witness_holds(params: SyncParams, mats, violation) -> bool:
    """Re-derive a refutation witness by direct computation, as the sync
    tests' ``revalidate`` helper does."""
    if isinstance(violation, AlignmentViolation):
        blocks = {i for i, _ in violation.hits}
        return len(blocks) == params.overlap_limit + 1 and all(
            x.bits != 0
            and edit_distance(mat_vec_mul(x, mats[i]), violation.target) <= params.radius
            for i, x in violation.hits
        )
    if isinstance(violation, ListSizeViolation):
        return len(set(violation.messages)) == params.list_limit + 1 and all(
            edit_distance(mat_vec_mul(x, mats[violation.block]), violation.target)
            <= params.radius
            for x in violation.messages
        )
    if isinstance(violation, RankViolation):
        return (
            violation.kernel.bits != 0
            and mat_vec_mul(violation.kernel, mats[violation.block]).bits == 0
        )
    return False


class DeskRoundtrip:
    """README round trip on the shipped fixture: encode a random 16-bit
    message, apply exactly ``edit_budget`` random edits, list-decode."""

    name = "desk_roundtrip"
    digest_ops = 16

    def __init__(self, seed: int):
        self.seed = seed
        self.params = ConcatParams.from_json(_load("concat_params.json"))
        self.sync = SyncSequence.from_json(_load("sync_sequence.json"))  # checks the hash
        self.outer = OuterCodeSpec.from_json(_load("outer_spec.json"))

    def make_input(self, i: int):
        rng = random.Random(f"{self.name}:{self.seed}:{i}")
        message = BitVector(rng.getrandbits(self.outer.message_bits), self.outer.message_bits)
        return message, rng.getrandbits(64)

    def op(self, inp):
        message, edit_seed = inp
        sent = codec.concat_encode(self.params, self.sync, self.outer, message).bits
        script = codec.random_edit_script(sent, self.params.edit_budget, edit_seed)
        received = codec.apply_edits(sent, script)
        decoded, report = codec.decode(self.params, self.sync, self.outer, received)
        return received, decoded, report

    def check(self, inp, out):
        message, _ = inp
        received, decoded, report = out
        report_json = report.to_json()
        del report_json["stage1_seconds"], report_json["stage2_seconds"]
        record = {
            "message": str(message),
            "received": str(received),
            "decoded": [str(m) for m in decoded],
            "report": report_json,
        }
        return message in decoded, record


class SyncSample:
    """One ``sample_sync`` attempt per op at the desk sync profile: eight
    ``random_matrix`` draws, then the fast verifier."""

    name = "sync_sample"
    digest_ops = 8

    def __init__(self, seed: int):
        self.seed = seed
        self.params = SyncParams.from_json(_load("sync_params.json"))
        self.last_verify = None
        real = sync.verify_outcome

        # sample_sync reports a refutation only as tallies; keep the
        # verifier's outcome, witnesses included, for the check.
        def capture(params, mats, *args, **kwargs):
            outcome = real(params, mats, *args, **kwargs)
            self.last_verify = (mats, outcome)
            return outcome

        sync.verify_outcome = capture

    def make_input(self, i: int):
        return (self.seed, i)

    def op(self, inp):
        self.last_verify = None
        return sync.sample_sync(self.params, inp, max_retries=1)

    def check(self, inp, out):
        if self.last_verify is None:
            return False, {"error": "verifier not called"}
        mats, outcome = self.last_verify
        kinds = outcome.violated_kinds()
        if isinstance(out, SyncSequence):
            ok = (
                out.status == "verified"
                and not kinds
                and out.mats == mats
                and all(bitlinalg.rank(m) == self.params.msg_bits for m in out.mats)
            )
            return ok, {"verified": True, "hash": out.content_hash()}
        if not isinstance(out, SampleFailure):
            return False, {"error": f"unexpected result {type(out).__name__}"}
        violations = [
            v for v in (outcome.condition3, outcome.condition1, outcome.condition2) if v
        ]
        ok = (
            bool(kinds)
            and sorted(k for k, c in out.condition_tallies.items() if c) == kinds
            and all(witness_holds(self.params, mats, v) for v in violations)
        )
        return ok, {
            "verified": False,
            "tallies": out.condition_tallies,
            "violations": [v.to_json() for v in violations],
        }


class ReferenceVerify:
    """The exhaustive reference verifier on a random sequence at a reduced
    profile (n=4, a=2, b=10, delta=1/5, radius 2, l=3, L=4)."""

    name = "reference_verify"
    digest_ops = 4
    params = SyncParams(
        n=4, msg_bits=2, block_bits=10, delta=Fraction(1, 5), overlap_limit=3, list_limit=4
    )

    def __init__(self, seed: int):
        self.seed = seed

    def make_input(self, i: int):
        rng = random.Random(f"{self.name}:{self.seed}:{i}")
        return tuple(rng.getrandbits(64) for _ in range(self.params.n))

    def op(self, inp):
        p = self.params
        mats = tuple(bitlinalg.random_matrix(p.msg_bits, p.block_bits, s) for s in inp)
        return mats, sync.verify_sync(p, mats, "reference")

    def check(self, inp, out):
        mats, verdict = out
        fast = sync.verify_sync(self.params, mats, "fast")
        ok = verdict == fast and (
            verdict is None or witness_holds(self.params, mats, verdict)
        )
        return ok, {
            "matrices": [m.to_json() for m in mats],
            "violation": verdict.to_json() if verdict is not None else None,
        }

    def lcs_calls_when_verified(self) -> int:
        """A verifying sweep evaluates every (block, message, target) triple:
        n * 2^a * sum of 2^len over len in [b - r, b + r]."""
        p = self.params
        lengths = range(p.block_bits - p.radius, p.block_bits + p.radius + 1)
        return p.n * (1 << p.msg_bits) * sum(1 << ln for ln in lengths)


WORKLOADS = {w.name: w for w in (DeskRoundtrip, SyncSample, ReferenceVerify)}
