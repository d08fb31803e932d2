"""The full decision procedure, end to end.

identify() ranks the two balanced Hankel blocks first.  Their rank e is the
only state count that can match, so it ranks one small block, P_(e-1,e-1),
and only when both balanced ranks agree on an e within floor((n+1)/2).  On a
full match it infers a finitary parametrization and tries to rotate it into
stochastic coordinates.  The outcome is one of three verdicts, and the trace
keeps one entry saying how it was reached.
"""
import numpy as np

import hmpident as hi


def show(name, dist, **kwargs):
    verdict = hi.identify(dist, **kwargs)
    print(f"\n{name}: {verdict.kind} (states {verdict.states})")
    if verdict.reason:
        print("  reason:", verdict.reason)
    (entry,) = verdict.trace
    small = "not ranked" if entry.rank_small is None else entry.rank_small.rank
    print(f"  e={entry.states}: small {small}, wide {entry.rank_wide.rank},"
          f" tall {entry.rank_tall.rank} -> {entry.note}")
    if verdict.kind == hi.HMP:
        report = hi.certify(dist, verdict)
        print(f"  certificate: re-simulated table matches to {report.max_residual:.2e}")
    return verdict


# a 3-state generator is found and certified
gen = hi.random_stochastic(3, 11)
verdict = show("random 3-state process at n=5", hi.full_distribution(gen, 5))
sigma = hi.equivalent_up_to_permutation(verdict.params, gen, 1e-6)
print("  recovered parameters match the generator under relabeling", sigma)

# a 2-state generator observed at n=5 lands on 2 states, not 3
show("2-state mixture at n=5",
     hi.full_distribution(hi.vandermonde_example(2, [0.3, 0.6]), 5))

# the perturbed uniform table: its wide block has rank 3, above the cap of 2 at n=3
perturbed = np.full(8, 0.125)
for s, dv in (("000", 0.02), ("111", -0.02), ("010", 0.01), ("101", -0.01)):
    perturbed[int(s, 2)] += dv
show("rank-3 perturbed table at n=3",
     hi.StringDistribution(3, perturbed / perturbed.sum()))

# near-coincident emissions: the method declines to guess
nd = hi.HmpParams(2, np.array([[0.05, 0.95], [0.95, 0.05]]),
                  np.array([[0.3, 0.7], [0.3 + 5e-8, 0.7 - 5e-8]]),
                  np.array([1.0, 0.0]))
show("emission gap 5e-8 at n=3", hi.full_distribution(nd, 3))

# the recovery fiber: reordering eigenvalues permutes the states, nothing else
dist = hi.full_distribution(gen, 5)
fp = hi.infer_finitary(hi.hankel_block(dist, 3, 2), 3)
canon = hi.recover_hmm(fp)
print("\ncanonical emission column:", np.round(canon.params.emission[:, 0], 6))
for perm in [(1, 0, 2), (2, 1, 0)]:
    out = hi.recover_hmm(fp, eigenvalue_order=perm)
    moved = hi.permute_states(canon.params, perm)
    err = np.max(np.abs(out.params.transition - moved.transition))
    print(f"order {perm}: equals relabeled canonical recovery to {err:.2e}")
