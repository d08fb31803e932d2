"""Top-level decision procedure.

The distribution is an HMP on e states exactly when three Hankel blocks all
have rank e: the small block P_{p,e-1,e-1} and the two balanced blocks
P_{p,floor(n/2),ceil(n/2)} and P_{p,ceil(n/2),floor(n/2)}.  The balanced ranks
do not depend on e, so only e = rank of the wide block can match, and only its
small block is ranked, as a corner of the tall block, which inference reads
too: it is the only balanced block that holds P_{p,e,e-1} at e = ceil(n/2), so
at odd n the wide block is built, ranked and dropped first.  At even n the two
balanced blocks are one block, built and ranked once.  The balanced ranks come
from sketched_rank, which asks only what a decision on at most cap states
needs: the rank up to cap + 1, with the confidence band tested on
sigma_1..sigma_(cap+1).  It certifies that answer from a sketch of cap + 2
columns, so a table of rank above the cap needs no full SVD, and falls back to
the full SVD otherwise; a balanced rank above the cap is reported as cap + 1.
The small block is ranked by the full SVD.  When the pattern holds, inference
plus recovery either produces a stochastic parametrization (verdict: HMP),
shows the distribution is representable but not by any stochastic
parametrization of this size (verdict: no HMP), or runs into a genericity
failure, where the method is simply blind (verdict: cannot decide).
Borderline numerical rank likewise yields cannot-decide rather than a guess.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distribution import StringDistribution, validate
from .errors import (DegenerateNormalizationError, RankDeficientError,
                     WrongVerdictError, check_order)
from .finitary import infer_finitary
from .hankel import RankReport, corner, hankel_block, numerical_rank, sketched_rank
from .hmp import HmpParams, full_distribution, params_to_jsonable
from .recover import NOT_STOCHASTIC, RECOVERED, RecoveryOutcome, recover_hmm
from .tolerances import DEFAULT_TOLERANCES, ToleranceConfig

HMP = "hmp"
NO_HMP = "no_hmp"
CANNOT_DECIDE = "cannot_decide"

CERTIFY_TOL = 1e-6


@dataclass(frozen=True)
class TraceEntry:
    states: int
    rank_small: RankReport | None   # P_{p,e-1,e-1}; None when not ranked
    # the balanced blocks are ranked by sketched_rank: a rank above the cap is
    # cap + 1, and singular_values is the full spectrum when the exact SVD
    # answered, else the cap + 2 lower brackets the sketch certified from
    rank_wide: RankReport           # P_{p,floor(n/2),ceil(n/2)}
    rank_tall: RankReport           # P_{p,ceil(n/2),floor(n/2)}
    recovery: RecoveryOutcome | None
    note: str


@dataclass(frozen=True)
class Verdict:
    kind: str
    states: int
    params: HmpParams | None
    reason: str | None
    trace: tuple


def max_states_cap(n: int) -> int:
    return (n + 1) // 2


def identify(dist: StringDistribution, max_states: int | None = None,
             tol: ToleranceConfig | None = None) -> Verdict:
    tol = tol or DEFAULT_TOLERANCES
    validate(dist, tol)
    n = dist.n
    cap = max_states_cap(n)
    max_states = cap if max_states is None else max_states
    check_order("max_states", max_states, 1, cap)

    # at odd n the wide block goes first, so it is never alive with the tall one
    wide = sketched_rank(hankel_block(dist, n // 2, (n + 1) // 2), cap, tol) if n % 2 else None
    tall_data = hankel_block(dist, (n + 1) // 2, n // 2)
    tall = sketched_rank(tall_data, cap, tol)
    wide = wide or tall   # at even n the two balanced blocks are one
    e = wide.rank
    no_fit = f"no state count up to {max_states} fits"

    def decided(kind, states, reason, note=None, small=None, outcome=None):
        entry = TraceEntry(e, small, wide, tall, outcome, note or reason)
        return Verdict(kind, states, outcome and outcome.params, reason, (entry,))

    if not (wide.confident and tall.confident):
        return decided(CANNOT_DECIDE, 1, "borderline rank")
    if e != tall.rank or not 1 <= e <= max_states:
        note = f"rank pattern not met: ranks wide {e}, tall {tall.rank}; max_states {max_states}"
        return decided(NO_HMP, max_states, no_fit, note)
    small = numerical_rank(corner(tall_data, e - 1, e - 1), tol)
    if not small.confident:
        return decided(CANNOT_DECIDE, e, "borderline rank", small=small)
    if small.rank != e:
        return decided(NO_HMP, max_states, no_fit,
                       f"rank pattern not met: ({small.rank}, {wide.rank}, {tall.rank})", small)
    try:
        fp = infer_finitary(tall_data, e, tol)
    except (RankDeficientError, DegenerateNormalizationError) as exc:
        return decided(CANNOT_DECIDE, e, f"inference degenerate: {exc}", small=small)
    outcome = recover_hmm(fp, tol)
    if outcome.kind == NOT_STOCHASTIC:
        reason = f"representable in dimension {e} but not stochastically: {outcome.reason}"
        return decided(NO_HMP, e, reason, outcome.kind, small, outcome)
    kind = HMP if outcome.kind == RECOVERED else CANNOT_DECIDE
    return decided(kind, e, outcome.reason, outcome.kind, small, outcome)


@dataclass(frozen=True)
class CertifyReport:
    max_residual: float
    passed: bool


def certify(dist: StringDistribution, verdict: Verdict) -> CertifyReport:
    """Independently re-simulate the recovered parameters and compare tables."""
    if verdict.kind != HMP:
        raise WrongVerdictError(f"certify needs an hmp verdict, got {verdict.kind!r}")
    resim = full_distribution(verdict.params, dist.n)
    residual = float(np.max(np.abs(resim.table - dist.table)))
    return CertifyReport(residual, residual <= CERTIFY_TOL)


def _rank_report_jsonable(report: RankReport) -> dict:
    return {"rank": report.rank, "confident": bool(report.confident)}


def verdict_to_jsonable(dist: StringDistribution, verdict: Verdict) -> dict:
    """Result payload; max_residual is filled by certification for hmp verdicts."""
    payload = {
        "verdict": verdict.kind,
        "states": verdict.states,
        "params": params_to_jsonable(verdict.params) if verdict.params else None,
        "reason": verdict.reason,
        "trace": [
            {
                "states": entry.states,
                "rank_small": entry.rank_small and _rank_report_jsonable(entry.rank_small),
                "rank_wide": _rank_report_jsonable(entry.rank_wide),
                "rank_tall": _rank_report_jsonable(entry.rank_tall),
                "recovery": None if entry.recovery is None else {
                    "kind": entry.recovery.kind,
                    "reason": entry.recovery.reason,
                },
                "note": entry.note,
            }
            for entry in verdict.trace
        ],
        "max_residual": None,
    }
    if verdict.kind == HMP:
        payload["max_residual"] = certify(dist, verdict).max_residual
    return payload
