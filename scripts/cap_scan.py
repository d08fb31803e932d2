"""Scan identify on random generators near the state-count cap.

Run from the root of a checkout; the package is imported from ./src:

    python3 path/to/cap_scan.py D:N:SEEDS [D:N:SEEDS ...] [--cases FILE]

Each D:N:SEEDS triple runs identify on full_distribution(random_stochastic(D,
s), N) for s < SEEDS and prints one summary line: the count of each verdict
kind, the count of each cannot_decide reason, the number of parameter misses
above 1e-6 and the worst parameter error, followed by one line per miss.
The parameter error is the largest entrywise difference between the
recovered and the true transition, emission and initial parameters, with
states matched by emission order; when that order misses and D is at most
hmp.PERMUTATION_SEARCH_CAP, by the exhaustive relabeling search instead.
With --cases it also writes one JSON line per case there (d, n, seed, kind,
states, reason, error), so `diff` of the files from two checkouts lists
every case whose verdict moved.

Every hmp verdict is certified by re-simulation.  The exit code is 1 when
one fails, a false positive; misses and cannot_decide verdicts are
reported, not gated.  For example, the ROADMAP's scan of recovery's
invertibility test near the cap:

    python3 scripts/cap_scan.py 7:13:200 8:15:200 9:17:200 10:19:100
"""
import argparse
import json
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

sys.path[:0] = [str(Path.cwd() / "src")]

import hmpident as hi  # noqa: E402
from hmpident.hmp import PERMUTATION_SEARCH_CAP  # noqa: E402

MISS_TOL = 1e-6


def triple(text):
    try:
        d, n, seeds = (int(part) for part in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected D:N:SEEDS, got {text!r}") from None
    if d < 1 or n < 2 * d - 1 or seeds < 1:
        raise argparse.ArgumentTypeError(f"need D >= 1, N >= 2D-1 and SEEDS >= 1, got {text!r}")
    return d, n, seeds


def param_error(found, true):
    """Largest entrywise parameter difference under the matching described above."""
    def error(a, b):
        return max(float(np.max(np.abs(a.transition - b.transition))),
                   float(np.max(np.abs(a.emission - b.emission))),
                   float(np.max(np.abs(a.initial - b.initial))))

    def by_emission(params):
        return hi.permute_states(params, np.argsort(params.emission[:, 0], kind="stable"))

    best = error(by_emission(found), by_emission(true))
    if best > MISS_TOL and found.d <= PERMUTATION_SEARCH_CAP:
        sigma = hi.equivalent_up_to_permutation(found, true, MISS_TOL)
        if sigma is not None:
            best = error(hi.permute_states(found, sigma), true)
    return best


def scan(d, n, seeds, rows):
    """Print the summary of one triple; return the seeds whose hmp verdict fails certify."""
    kinds, reasons, misses, false_positives = Counter(), Counter(), [], []
    worst = 0.0
    start = time.perf_counter()
    for seed in range(seeds):
        params = hi.random_stochastic(d, seed)
        dist = hi.full_distribution(params, n)
        verdict = hi.identify(dist)
        kinds[verdict.kind] += 1
        error = None
        if verdict.kind == hi.CANNOT_DECIDE:
            reasons[verdict.reason] += 1
        elif verdict.kind == hi.HMP:
            report = hi.certify(dist, verdict)
            if not report.passed:
                false_positives.append((seed, report.max_residual))
            if verdict.states == d:
                error = param_error(verdict.params, params)
                worst = max(worst, error)
                if error > MISS_TOL:
                    misses.append((seed, error))
        rows.append(json.dumps({"d": d, "n": n, "seed": seed, "kind": verdict.kind,
                                "states": verdict.states, "reason": verdict.reason,
                                "error": error}) + "\n")
    wall = time.perf_counter() - start
    counts = ", ".join(f"{kind} {kinds[kind]}" for kind in (hi.HMP, hi.NO_HMP, hi.CANNOT_DECIDE))
    print(f"d={d} n={n} seeds<{seeds}: {counts}; misses>{MISS_TOL:g} {len(misses)}, "
          f"worst error {worst:.2g}; {wall:.1f} s")
    for reason, count in sorted(reasons.items()):
        print(f"  cannot_decide {count}: {reason}")
    for seed, error in misses:
        print(f"  miss seed {seed}: error {error:.3g}")
    for seed, residual in false_positives:
        print(f"  FALSE POSITIVE seed {seed}: hmp but certify residual {residual:.3g}")
    return false_positives


def main():
    parser = argparse.ArgumentParser(description="Scan identify on random generators near the cap.")
    parser.add_argument("triples", nargs="+", type=triple, metavar="D:N:SEEDS")
    parser.add_argument("--cases", help="write one JSON line per case here")
    args = parser.parse_args()
    print(f"hmpident from {Path(hi.__file__).parent}", file=sys.stderr)
    rows = []
    failed = sum(len(scan(d, n, seeds, rows)) for d, n, seeds in args.triples)
    if args.cases:
        with open(args.cases, "w") as fh:
            fh.writelines(rows)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
