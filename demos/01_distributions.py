"""Working with exact string distributions.

A StringDistribution is the full table of probabilities a process assigns to
the 2^n binary strings of length n, indexed by the string read as a base-2
integer.  This script builds a few tables by hand, marginalizes them, and
shows the stationarity check and the JSON round trip.
"""
import json
import tempfile

import numpy as np

import hmpident as hi

# fair coin: every length-3 string has probability 1/8
coin = hi.StringDistribution(3, np.full(8, 0.125))
hi.validate(coin)
print("fair coin p(010) =", coin.prob("010"))
print("fair coin p(01)  =", hi.prefix_probability(coin, "01"))

# a biased iid table, entered as an outer product
rho = 0.3
bits = np.array([rho, 1 - rho])
table = np.einsum("i,j,k->ijk", bits, bits, bits).ravel()
biased = hi.StringDistribution(3, table)
print("\nbiased iid p(000) =", biased.prob("000"), " expected", rho ** 3)

# marginals telescope: summing out the last symbol recovers the shorter table;
# marginals() lists them by length, and marginalize() reads one of them
for length, marg in reversed(list(enumerate(hi.marginals(biased)))):
    print(f"length-{length} marginal sums to {marg.sum():.15f}")
print("marginalize(biased, 1) =", hi.marginalize(biased, 1))

# stationarity compares the law of the first n-1 symbols with the last n-1
print("\nfair coin stationary:", hi.is_stationary(coin))
skewed = hi.full_distribution(
    hi.HmpParams(2, np.array([[0.05, 0.95], [0.95, 0.05]]),
                 np.array([[0.3, 0.7], [0.6, 0.4]]), np.array([1.0, 0.0])), 4)
print("period-2 chain started in state 0 stationary:", hi.is_stationary(skewed))

# files round trip exactly: floats are written with 17 significant digits
with tempfile.NamedTemporaryFile("r", suffix=".json") as fh:
    hi.save_distribution(biased, fh.name)
    back = hi.load_distribution(fh.name)
    print("\nround trip max error:", np.max(np.abs(back.table - biased.table)))
    print("file starts with:", json.dumps(json.load(open(fh.name))["n"]))
