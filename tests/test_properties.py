"""Cross-module invariants checked over seeded random draws."""
import json
import os
import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st

import hmpident as hi


def random_table_distribution(n, seed):
    rng = np.random.default_rng(seed)
    table = rng.uniform(0.05, 1.0, 2 ** n)
    return hi.StringDistribution(n, table / table.sum())


def test_marginal_telescoping_arbitrary_tables():
    # p(v) = p(v0) + p(v1) holds for any table, HMP or not
    for seed in range(10):
        n = 1 + seed % 5
        dist = random_table_distribution(n, seed)
        for length in range(n):
            left = hi.marginalize(dist, length)
            right = hi.marginalize(dist, length + 1).reshape(-1, 2).sum(axis=1)
            assert np.max(np.abs(left - right)) <= 1e-12


def test_marginals_are_distributions():
    for seed in range(5):
        dist = hi.full_distribution(hi.random_stochastic(2, seed), 4)
        for length in range(5):
            marg = hi.marginalize(dist, length)
            assert np.all(marg >= -1e-15)
            assert abs(marg.sum() - 1.0) <= 1e-12


def test_prefix_probability_monotone():
    dist = hi.full_distribution(hi.random_stochastic(3, 2), 4)
    for i in range(8):
        v = format(i, "03b")
        assert hi.prefix_probability(dist, v) >= hi.prefix_probability(dist, v + "0") - 1e-15


def test_stationary_start_gives_stationary_table():
    m = np.array([[0.9, 0.1], [0.2, 0.8]])
    pi = np.array([2.0 / 3.0, 1.0 / 3.0])  # solves pi M = pi
    assert np.max(np.abs(pi @ m - pi)) <= 1e-15
    params = hi.HmpParams(2, m, np.array([[0.3, 0.7], [0.6, 0.4]]), pi)
    assert hi.is_stationary(hi.full_distribution(params, 4))


def test_skewed_start_breaks_stationarity():
    params = hi.HmpParams(
        2, np.array([[0.05, 0.95], [0.95, 0.05]]),
        np.array([[0.3, 0.7], [0.6, 0.4]]), np.array([1.0, 0.0]))
    assert not hi.is_stationary(hi.full_distribution(params, 4))


def test_identify_is_deterministic():
    dist = hi.full_distribution(hi.random_stochastic(2, 13), 3)
    a = hi.verdict_to_jsonable(dist, hi.identify(dist))
    b = hi.verdict_to_jsonable(dist, hi.identify(dist))
    assert a == b


def test_recovered_parameters_are_stochastic():
    for seed in range(6):
        d = 1 + seed % 3
        dist = hi.full_distribution(hi.random_stochastic(d, 60 + seed), 2 * d - 1)
        verdict = hi.identify(dist)
        if verdict.kind == hi.HMP:
            hi.validate_params(verdict.params)


def test_hankel_factorization_of_hmp():
    # for an HMP the block entries factor through forward and backward vectors
    params = hi.random_stochastic(2, 44)
    ops = hi.split(params)
    dist = hi.full_distribution(params, 4)
    block = hi.hankel_block(hi.marginals(dist), 2, 2)

    def op_product(v):
        out = np.eye(2)
        for a in v:
            out = out @ (ops.t0 if a == "0" else ops.t1)
        return out

    left = np.array([params.initial @ op_product(v) for v in hi.strings_up_to(2)])
    right = np.array([op_product(w) @ np.ones(2) for w in hi.strings_up_to(2)]).T
    assert np.max(np.abs(left @ right - block)) <= 1e-12


JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.text(alphabet="01ab +", max_size=4))
JSON_VALUES = st.recursive(JSON_SCALARS, lambda inner: st.lists(inner, max_size=3)
                           | st.dictionaries(st.text(max_size=3), inner, max_size=3),
                           max_leaves=8)


@st.composite
def near_payloads(draw):
    """A complete small table with a few keys, values or n spoiled."""
    n = draw(st.integers(1, 3))
    keys = [format(i, f"0{n}b") for i in range(2 ** n)]
    table = {k: draw(st.floats(0, 1) | JSON_SCALARS) for k in keys}
    if draw(st.booleans()):
        del table[draw(st.sampled_from(keys))]
    table.update(draw(st.dictionaries(st.text(alphabet="01b +", max_size=4),
                                      JSON_SCALARS, max_size=2)))
    return draw(st.sampled_from([n, n, float(n), str(n), True])), table


@settings(max_examples=200, deadline=None, derandomize=True)
@given(payload=near_payloads() | st.tuples(JSON_VALUES | st.integers(-2, 4), JSON_VALUES))
def test_from_dict_raises_only_package_errors(payload):
    try:
        hi.StringDistribution.from_dict(*payload)
    except Exception as exc:  # the property is about which types escape
        assert type(exc).__module__ == "hmpident.errors", repr(exc)


@st.composite
def near_table_payloads(draw):
    """A complete small table in array form with a few entries, its length or n spoiled."""
    n = draw(st.integers(1, 3))
    table = [draw(st.floats(0, 1) | JSON_SCALARS) for _ in range(2 ** n)]
    if draw(st.booleans()):
        del table[draw(st.integers(0, 2 ** n - 1))]
    table += draw(st.lists(JSON_SCALARS, max_size=2))
    return {"n": draw(st.sampled_from([n, n, float(n), str(n), True])),
            "table": draw(st.just(table) | JSON_VALUES)}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(payload=near_table_payloads()
       | st.dictionaries(st.sampled_from(["n", "table", "probabilities"]), JSON_VALUES))
def test_load_distribution_raises_only_package_errors(payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "dist.json")
        with open(path, "w") as fh:
            json.dump(payload, fh)
        try:
            hi.load_distribution(path)
        except Exception as exc:  # the property is about which types escape
            assert type(exc).__module__ == "hmpident.errors", repr(exc)


def _kind_and_states(table, n):
    verdict = hi.identify(hi.StringDistribution(n, table))
    return verdict.kind, verdict.states


@st.composite
def generator_cases(draw):
    d = draw(st.integers(1, 5))
    n = 2 * d - 1 + draw(st.integers(0, 2))
    params = hi.random_stochastic(d, draw(st.integers(0, 2 ** 32 - 1)))
    return params, n, draw(st.permutations(range(d)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=generator_cases())
def test_verdict_invariant_under_symbol_swap_and_relabeling(case):
    params, n, sigma = case
    table = hi.full_distribution(params, n).table
    expected = _kind_and_states(table, n)
    # swapping 0 and 1 in every string reverses the base-2 index order
    assert _kind_and_states(table[::-1], n) == expected
    moved = hi.full_distribution(hi.permute_states(params, sigma), n).table
    assert _kind_and_states(moved, n) == expected


@settings(max_examples=20, deadline=None, derandomize=True)
@given(n=st.integers(1, 9), seed=st.integers(0, 2 ** 32 - 1))
def test_random_table_verdict_invariant_under_symbol_swap(n, seed):
    table = random_table_distribution(n, seed).table
    assert _kind_and_states(table[::-1], n) == _kind_and_states(table, n)
