"""Determinantal cross-check of the SVD rank decisions.

Rank at most d means every (d+1)-minor of the two balanced Hankel blocks
vanishes; rank at least d means some d-minor of the small block survives.
Scanning minors is exponential and shares no code with the SVD, which is the
point: agreement between the two routes is evidence neither is fooling us.
"""
import numpy as np

import hmpident as hi


def both_routes(name, dist, d):
    n, margs = dist.n, hi.marginals(dist)
    reports = [hi.numerical_rank(hi.hankel_block(margs, d - 1, d - 1)),
               hi.numerical_rank(hi.hankel_block(margs, n // 2, (n + 1) // 2)),
               hi.numerical_rank(hi.hankel_block(margs, (n + 1) // 2, n // 2))]
    svd_member = all(r.rank == d for r in reports)
    scan = hi.minor_membership(dist, d)
    print(f"\n{name}, d={d}")
    print(f"  svd ranks (small, wide, tall): {[r.rank for r in reports]}"
          f" -> member {svd_member}")
    print(f"  minors: {scan.counts['big']} big scanned, max |det| ="
          f" {scan.max_big_minor:.2e}; {scan.counts['small']} small, max ="
          f" {scan.max_small_minor:.2e}")
    print(f"  -> member {scan.member}  (agree: {scan.member == svd_member})")


coin = hi.StringDistribution(3, np.full(8, 0.125))
both_routes("fair coin", coin, 1)

mix = hi.full_distribution(hi.vandermonde_example(2, [0.25, 0.75]), 3)
both_routes("2-state mixture", mix, 1)
both_routes("2-state mixture", mix, 2)

perturbed = np.full(8, 0.125)
for s, dv in (("000", 0.02), ("111", -0.02), ("010", 0.01), ("101", -0.01)):
    perturbed[int(s, 2)] += dv
control = hi.StringDistribution(3, perturbed / perturbed.sum())
both_routes("rank-3 perturbed table", control, 2)

# the scan refuses problem sizes where the minor count explodes
print("\nminor counts grow fast:",
      hi.minor_count(3, 7, 3), "at n=3 vs", hi.minor_count(15, 31, 3), "at n=7")
try:
    hi.minor_membership(hi.StringDistribution(13, np.full(2 ** 13, 0.5 ** 13)), 2)
except hi.errors.TooManyMinorsError as exc:
    print("n=13 scan refused:", exc)
