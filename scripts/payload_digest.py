"""Print SHA-256 digests of what hmpident computes over a fixed corpus.

Run from the root of a checkout; the package is imported from ./src and the
test fixtures from ./tests:

    OPENBLAS_NUM_THREADS=1 python3 path/to/payload_digest.py [CASES]

Running the same script from two checkouts, with the same BLAS thread count,
tells whether a change keeps these outputs byte-identical.  With CASES, it
also writes one JSON line per case there (index, n, kind, states, reason), so
`diff` of the two files lists every case whose verdict moved.  The digests:

- verdicts: dumps(verdict_to_jsonable(dist, identify(dist))) per case;
- kinds: the verdict kind and state count alone, so a change that moves
  parameters in late digits can still show that no decision moved;
- rank: rank, confidence and singular values of every block `hmpident rank`
  reports (P_(e-1,e-1) for e up to the cap, then the wide and tall blocks).
  Here every block is its own hankel_block array, built from the one
  marginals(dist) list of its case, while `hmpident rank` reads the small
  blocks as corners of the wide block and ranks the one balanced block once
  at even n, so this digest cross-checks that reuse;
- inference: for each e up to the cap, select_basis of the P_(e-1,e-1)
  corner of P_(e,e-1) and every field of infer_finitary_detailed given that
  same P_(e,e-1) block, or the exception each one raises.  identify passes
  the larger tall balanced block, which holds P_(e,e-1) as its corner.

Each case's table is also saved with save_distribution and read back with
load_distribution; the script stops with an error unless the two tables are
bit-identical.

The corpus is random_stochastic(d, s) for d = 1..5, n in {2d-1, 2d, 2d+1},
s < 60; seeded uniform tables at n in {5, 9, 13, 17}, 10 each; and the test
fixtures' control, fair-coin and near-degenerate (gap 1e-9, 5e-8, 1e-6) cases.
"""
import argparse
import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path[:0] = [str(Path.cwd() / "src"), str(Path.cwd() / "tests")]

import hmpident as hi  # noqa: E402
from hmpident.hankel import corner  # noqa: E402
from hmpident.identify import max_states_cap, verdict_to_jsonable  # noqa: E402
from hmpident.jsonio import dumps  # noqa: E402
import conftest  # noqa: E402


def corpus():
    for d in range(1, 6):
        for n in (2 * d - 1, 2 * d, 2 * d + 1):
            for seed in range(60):
                yield hi.full_distribution(hi.random_stochastic(d, seed), n)
    for n in (5, 9, 13, 17):
        for seed in range(10):
            table = np.random.default_rng([n, seed]).random(2 ** n)
            yield hi.StringDistribution(n, table / table.sum())
    yield conftest.control_distribution()
    yield conftest.fair_coin_distribution()
    for gap in (1e-9, 5e-8, 1e-6):
        yield hi.full_distribution(conftest.near_degenerate_params(gap), 3)


def feed(digest, value):
    """Hash a value of any type the pipeline returns, tagged by its type."""
    if isinstance(value, np.ndarray):
        digest.update(f"array{value.shape}{value.dtype}".encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    elif dataclasses.is_dataclass(value):
        digest.update(type(value).__name__.encode())
        for field in dataclasses.fields(value):
            feed(digest, getattr(value, field.name))
    elif isinstance(value, (tuple, list)):
        digest.update(f"seq{len(value)}".encode())
        for item in value:
            feed(digest, item)
    else:
        digest.update(repr(value).encode())


def check_reload(dist, index):
    """Save the table, read it back, and stop unless the bits are the same."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dist.json"
        hi.save_distribution(dist, path)
        if hi.load_distribution(path).table.tobytes() != dist.table.tobytes():
            sys.exit(f"case {index}: the reloaded table differs from the saved one")


def outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, np.linalg.LinAlgError) as exc:
        return f"{type(exc).__name__}: {exc}"


def main():
    parser = argparse.ArgumentParser(description="Digest hmpident's outputs over a fixed corpus.")
    parser.add_argument("cases", nargs="?",
                        help="write one JSON line per case here: index, n, kind, states, reason")
    args = parser.parse_args()
    print(f"hmpident from {Path(hi.__file__).parent}", file=sys.stderr)
    verdicts, kinds, ranks, inference = (hashlib.sha256() for _ in range(4))
    rows = []
    cases = 0
    for dist in corpus():
        cases += 1
        check_reload(dist, cases - 1)
        n, cap = dist.n, max_states_cap(dist.n)
        margs = hi.marginals(dist)
        verdict = hi.identify(dist)
        verdicts.update(dumps(verdict_to_jsonable(dist, verdict)).encode())
        feed(kinds, (verdict.kind, verdict.states))
        rows.append(json.dumps({"index": cases - 1, "n": n, "kind": verdict.kind,
                                "states": verdict.states, "reason": verdict.reason}) + "\n")
        shapes = [(e - 1, e - 1) for e in range(1, cap + 1)]
        shapes += [(n // 2, (n + 1) // 2), ((n + 1) // 2, n // 2)]
        for m, k in shapes:
            feed(ranks, hi.numerical_rank(hi.hankel_block(margs, m, k)))
        for e in range(1, cap + 1):
            block = hi.hankel_block(margs, e, e - 1)
            feed(inference, outcome(hi.select_basis, corner(block, e - 1, e - 1), e))
            feed(inference, outcome(hi.infer_finitary_detailed, block, e))
    if args.cases:
        with open(args.cases, "w") as fh:
            fh.writelines(rows)
    print(f"cases {cases}")
    for name, digest in (("verdicts", verdicts), ("kinds", kinds), ("rank", ranks),
                         ("inference", inference)):
        print(f"{name} {digest.hexdigest()}")


if __name__ == "__main__":
    main()
