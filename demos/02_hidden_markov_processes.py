"""Hidden Markov parametrizations and their observable operators.

A parametrization (M, E, pi) turns into two symbol operators T_0 and T_1 with
T_a = diag(E[:, a]) M, and the probability of a string is the forward product
pi' T_{a_1} ... T_{a_n} 1.  The operators sum back to M, which is the single
identity everything downstream leans on.
"""
import numpy as np

import hmpident as hi

params = hi.HmpParams(
    2,
    np.array([[0.9, 0.1], [0.2, 0.8]]),
    np.array([[0.3, 0.7], [0.6, 0.4]]),
    np.array([0.5, 0.5]),
)
hi.validate_params(params)
ops = hi.split(params)
print("T0 =\n", ops.t0)
print("T1 =\n", ops.t1)
print("T0 + T1 - M max error:", np.max(np.abs(ops.t0 + ops.t1 - params.transition)))

print("\np(0110) =", hi.string_probability(params, "0110"))
dist = hi.full_distribution(params, 4)
print("table sums to", dist.table.sum())
print("table agrees with single-string products:",
      np.allclose([hi.string_probability(params, format(i, "04b")) for i in range(16)],
                  dist.table, atol=1e-13))

# the vandermonde family: identity transitions, so the process is an
# equal-weight mixture of biased coins; rank d whenever the biases differ
mix = hi.vandermonde_example(3, [0.2, 0.5, 0.8])
print("\nmixture p(00000) =", hi.string_probability(mix, "00000"),
      " closed form", (0.2 ** 5 + 0.5 ** 5 + 0.8 ** 5) / 3)

# states carry no canonical order: relabeling them changes nothing observable
sigma = (2, 0, 1)
moved = hi.permute_states(mix, sigma)
a = hi.full_distribution(mix, 5).table
b = hi.full_distribution(moved, 5).table
print("relabeled states, table max difference:", np.max(np.abs(a - b)))
print("matching permutation found:", hi.equivalent_up_to_permutation(moved, mix))

# seeded random parametrizations drive the round-trip experiments
rand = hi.random_stochastic(3, 7)
print("\nrandom d=3 transition rows sum to", rand.transition.sum(axis=1))
