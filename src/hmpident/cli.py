"""Command-line front end.

Subcommands:
  simulate   params JSON -> distribution JSON of a given length
  identify   distribution JSON -> verdict JSON; exit code encodes the verdict
  rank       numerical ranks of the canonical Hankel blocks
  minors     determinantal membership scan at a given state count
  roundtrip  seeded generate/identify/compare experiment

A distribution file is {"n": n, "table": [p_0, ..., p_(2^n-1)]}, entry i
being the probability of i written as n binary digits; files in the older
{"n": n, "probabilities": {"0...0": p, ...}} form are still read.

Exit codes: 0 = HMP (or success), 2 = no HMP (or mismatches), 3 = cannot
decide, 1 = usage or data error.  Identification is deterministic given the
input file and flags; roundtrip additionally depends only on the seed.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import __version__
from .distribution import load_distribution, marginals, save_distribution, validate
from .hankel import corner, hankel_block, numerical_rank
from .hmp import (equivalent_up_to_permutation, full_distribution, load_params,
                  random_stochastic, validate_params)
from .identify import CANNOT_DECIDE, HMP, NO_HMP, identify, max_states_cap, verdict_to_jsonable
from .jsonio import write_json
from .minors import minor_membership
from .tolerances import DEFAULT_TOLERANCES, ToleranceConfig

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_HMP = 2
EXIT_CANNOT_DECIDE = 3

_VERDICT_EXITS = {HMP: EXIT_OK, NO_HMP: EXIT_NO_HMP, CANNOT_DECIDE: EXIT_CANNOT_DECIDE}


# each subcommand takes a flag for exactly the tolerances its code path reads
_MINORS_TOLERANCES = ("rel_rank_tol", "tol_sum", "tol_entry")
_RANK_TOLERANCES = _MINORS_TOLERANCES + ("gap_ratio",)
_IDENTIFY_TOLERANCES = _RANK_TOLERANCES + ("tol_stochastic", "eig_gap_tol")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse exits 2, which is the no_hmp code here
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _add_tolerance_flags(parser: argparse.ArgumentParser, names):
    for field in dataclasses.fields(ToleranceConfig):
        if field.name in names:
            default = getattr(DEFAULT_TOLERANCES, field.name)
            parser.add_argument("--" + field.name.replace("_", "-"), type=float,
                                default=default, help=f"default {default}")


def _tolerances(args) -> ToleranceConfig:
    kwargs = {f.name: getattr(args, f.name) for f in dataclasses.fields(ToleranceConfig)
              if hasattr(args, f.name)}
    return ToleranceConfig(**kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hmpident", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("simulate", help="expand a parametrization into a distribution file")
    p.add_argument("--params", required=True, help="parametrization JSON file")
    p.add_argument("--length", required=True, type=int, help="string length n")
    p.add_argument("--out", required=True, help="output distribution JSON file")

    p = sub.add_parser("identify", help="decide whether a distribution file is an HMP")
    p.add_argument("--dist", required=True, help="distribution JSON file")
    p.add_argument("--out", help="write the verdict JSON here")
    p.add_argument("--max-states", type=int, default=None,
                   help="largest state count to try (default: floor((n+1)/2))")
    p.add_argument("--paper-literal", action="store_true",
                   help="report cannot-decide outcomes as no-HMP, the behavior of "
                        "the plain algorithm without genericity bookkeeping")
    _add_tolerance_flags(p, _IDENTIFY_TOLERANCES)

    p = sub.add_parser("rank", help="report numerical ranks of the canonical Hankel blocks")
    p.add_argument("--dist", required=True)
    p.add_argument("--out", help="write the rank report JSON here")
    _add_tolerance_flags(p, _RANK_TOLERANCES)

    p = sub.add_parser("minors", help="determinantal rank cross-check")
    p.add_argument("--dist", required=True)
    p.add_argument("--states", required=True, type=int, help="state count d to test")
    p.add_argument("--out", help="write the scan result JSON here")
    _add_tolerance_flags(p, _MINORS_TOLERANCES)

    p = sub.add_parser("roundtrip", help="seeded generate/identify/compare experiment")
    p.add_argument("--states", required=True, type=int)
    p.add_argument("--length", required=True, type=int)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    _add_tolerance_flags(p, _IDENTIFY_TOLERANCES)
    return parser


def cmd_simulate(args) -> int:
    params = load_params(args.params)
    validate_params(params)
    dist = full_distribution(params, args.length)
    save_distribution(dist, args.out)
    print(f"wrote {2 ** args.length} probabilities to {args.out}")
    return EXIT_OK


def cmd_identify(args) -> int:
    tol = _tolerances(args)
    dist = load_distribution(args.dist, tol)
    verdict = identify(dist, args.max_states, tol)
    payload = verdict_to_jsonable(dist, verdict)
    kind = verdict.kind
    if args.paper_literal and kind == CANNOT_DECIDE:
        # the plain algorithm has no cannot-decide outcome; in its blind spots
        # it prints "no HMP", so that is what literal mode reports
        kind = NO_HMP
        payload["verdict"] = NO_HMP
        payload["literal_remap"] = True
    if args.out:
        write_json(payload, args.out)
    if kind == HMP:
        print(f"hmp on {verdict.states} states, max residual {payload['max_residual']:.3e}")
    else:
        print(f"{kind}: {verdict.reason}")
    return _VERDICT_EXITS[kind]


def cmd_rank(args) -> int:
    tol = _tolerances(args)
    dist = load_distribution(args.dist, tol)
    validate(dist, tol)
    n = dist.n
    half, rest = n // 2, (n + 1) // 2
    # the small blocks P_(e-1,e-1) are corners of the wide block, which at even n
    # is the tall block too; at odd n it is dropped before the tall one is built
    shapes = [(e - 1, e - 1) for e in range(1, max_states_cap(n) + 1)] + [(half, rest)]
    margs = marginals(dist)
    wide = hankel_block(margs, half, rest)
    reports = [numerical_rank(corner(wide, m, k), tol) for m, k in shapes]
    del wide
    shapes.append((rest, half))
    reports.append(numerical_rank(hankel_block(margs, rest, half), tol) if n % 2 else reports[-1])
    blocks = []
    for (m, k), report in zip(shapes, reports):
        blocks.append({"m": m, "k": k, "rank": report.rank,
                       "confident": report.confident,
                       "singular_values": [float(s) for s in report.singular_values]})
        print(f"P_(m={m},k={k}): rank {report.rank}"
              + ("" if report.confident else "  [borderline]"))
    if args.out:
        write_json({"n": n, "blocks": blocks}, args.out)
    return EXIT_OK


def cmd_minors(args) -> int:
    if args.states < 1:
        raise ValueError(f"--states must be at least 1, got {args.states}")
    tol = _tolerances(args)
    dist = load_distribution(args.dist, tol)
    validate(dist, tol)
    result = minor_membership(dist, args.states, tol.rel_rank_tol)
    payload = {"states": args.states, "member": result.member, **dataclasses.asdict(result)}
    if args.out:
        write_json(payload, args.out)
    print(f"member at d={args.states}: {result.member} "
          f"(max big minor {result.max_big_minor:.3e}, "
          f"max small minor {result.max_small_minor:.3e})")
    return EXIT_OK


def cmd_roundtrip(args) -> int:
    if args.states < 1:
        raise ValueError(f"--states must be at least 1, got {args.states}")
    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    if args.length < 2 * args.states - 1:
        raise ValueError(f"need length >= 2*states-1 = {2 * args.states - 1}, "
                         f"got {args.length}")
    tol = _tolerances(args)
    recovered = cannot_decide = mismatched = 0
    for trial in range(args.trials):
        params = random_stochastic(args.states, args.seed + trial)
        dist = full_distribution(params, args.length)
        verdict = identify(dist, None, tol)
        if verdict.kind == HMP and verdict.states == args.states \
                and equivalent_up_to_permutation(verdict.params, params, 1e-6) is not None:
            recovered += 1
        elif verdict.kind == CANNOT_DECIDE:
            cannot_decide += 1
        else:
            mismatched += 1
    print(f"recovered={recovered} cannot_decide={cannot_decide} mismatched={mismatched}")
    return EXIT_OK if mismatched == 0 else EXIT_NO_HMP


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"simulate": cmd_simulate, "identify": cmd_identify,
               "rank": cmd_rank, "minors": cmd_minors,
               "roundtrip": cmd_roundtrip}[args.subcommand]
    try:
        return handler(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
