"""Hankel blocks and numerical rank with a confidence band.

The block P_{p,m,k} lists p(vw) for all prefixes v up to length m and
suffixes w up to length k.  Its rank is the dimension of the smallest
finitary parametrization, so estimating it reliably is the heart of the
decision procedure.  Singular values close to the relative cutoff make the
rank report non-confident instead of silently picking a side.  Every block
is read from hi.marginals(dist), the prefix marginals of every length.
"""
import numpy as np

import hmpident as hi

coin = hi.StringDistribution(3, np.full(8, 0.125))
block = hi.hankel_block(hi.marginals(coin), 1, 1)
# rows and columns are labelled by strings_up_to(m) and strings_up_to(k)
print("fair coin P_(1,1) rows", hi.strings_up_to(1), "cols", hi.strings_up_to(1))
print(block)
print("rank:", hi.numerical_rank(block).rank)

mix = hi.full_distribution(hi.vandermonde_example(2, [0.25, 0.75]), 3)
for m, k in [(1, 1), (1, 2), (2, 1)]:
    report = hi.numerical_rank(hi.hankel_block(hi.marginals(mix), m, k))
    print(f"2-state mixture P_({m},{k}): rank {report.rank},"
          f" confident {report.confident}")

# every column of any block obeys col(w) = col(w0) + col(w1); that caps the
# tall 7x3 block at rank 2, so only the wide 3x7 block can reveal rank 3
perturbed = np.full(8, 0.125)
for s, dv in (("000", 0.02), ("111", -0.02), ("010", 0.01), ("101", -0.01)):
    perturbed[int(s, 2)] += dv
control = hi.StringDistribution(3, perturbed / perturbed.sum())
margs = hi.marginals(control)
wide = hi.numerical_rank(hi.hankel_block(margs, 1, 2))
tall = hi.numerical_rank(hi.hankel_block(margs, 2, 1))
print("\nperturbed table, wide block singular values:", wide.singular_values)
print("wide rank", wide.rank, " tall rank", tall.rank)

# the confidence band in action: an emission gap of 1e-9 between two states
# leaves a second singular value right at the cutoff
for gap in (1e-6, 1e-9, 1e-12):
    params = hi.HmpParams(2, np.array([[0.05, 0.95], [0.95, 0.05]]),
                          np.array([[0.3, 0.7], [0.3 + gap, 0.7 - gap]]),
                          np.array([1.0, 0.0]))
    dist = hi.full_distribution(params, 3)
    report = hi.numerical_rank(hi.hankel_block(hi.marginals(dist), 1, 2))
    ratio = report.singular_values[1] / report.singular_values[0]
    print(f"gap {gap:.0e}: sigma2/sigma1 = {ratio:.2e}, rank {report.rank},"
          f" confident {report.confident}")

# basis selection feeds inference: the top-e singular triple of the small
# block, whose singular values are all inference ever divides by
small = hi.hankel_block(hi.marginals(mix), 1, 1)
u, sigma, r = hi.select_basis(small, 2)
print("\nsigma of P_(1,1):", sigma)
print("rank-2 reconstruction max error:", np.max(np.abs(u @ np.diag(sigma) @ r - small)))
