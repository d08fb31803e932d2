import numpy as np
import pytest

import hmpident as hi
from hmpident.errors import (AlphabetError, CapExceededError,
                             DimensionMismatchError, DuplicateEigenvalueError,
                             InvalidParamsError, InvalidPermutationError,
                             StateCountTooLargeError)
from hmpident.hmp import determinant_check, params_from_jsonable
from conftest import fair_coin_params


def test_split_scalar():
    ops = hi.split(fair_coin_params())
    assert np.array_equal(ops.t0, [[0.5]]) and np.array_equal(ops.t1, [[0.5]])


def test_split_diagonal():
    params = hi.vandermonde_example(2, [0.25, 0.75])
    ops = hi.split(params)
    assert np.array_equal(ops.t0, np.diag([0.25, 0.75]))
    assert np.array_equal(ops.t1, np.diag([0.75, 0.25]))


def test_split_elementwise_oracle():
    m = np.array([[0.9, 0.1], [0.2, 0.8]])
    e = np.array([[0.3, 0.7], [0.6, 0.4]])
    params = hi.HmpParams(2, m, e, np.array([0.5, 0.5]))
    ops = hi.split(params)
    oracle_t0 = np.array([[e[s, 0] * m[s, t] for t in range(2)] for s in range(2)])
    assert np.array_equal(ops.t0, oracle_t0)
    assert np.allclose(ops.t0, [[0.27, 0.03], [0.12, 0.48]], atol=1e-15)


def test_split_sums_to_transition():
    for seed in range(10):
        params = hi.random_stochastic(1 + seed % 4, seed)
        ops = hi.split(params)
        assert np.max(np.abs(ops.t0 + ops.t1 - params.transition)) <= 1e-14


def test_string_probability_fair_coin():
    assert hi.string_probability(fair_coin_params(), "01") == pytest.approx(0.25, abs=1e-15)


def test_empty_string_probability():
    for seed in range(3):
        params = hi.random_stochastic(3, seed)
        assert hi.string_probability(params, "") == pytest.approx(1.0, abs=1e-12)


def test_vandermonde_two_zeros():
    params = hi.vandermonde_example(2, [0.25, 0.75])
    expected = (0.25 ** 2 + 0.75 ** 2) / 2
    assert expected == 0.3125
    assert hi.string_probability(params, "00") == pytest.approx(0.3125, abs=1e-15)


def test_string_probability_alphabet_error():
    with pytest.raises(AlphabetError):
        hi.string_probability(fair_coin_params(), "0a1")


def test_full_distribution_fair_coin():
    dist = hi.full_distribution(fair_coin_params(), 3)
    assert np.allclose(dist.table, 0.125, atol=1e-15)


def test_full_distribution_vandermonde_000():
    dist = hi.full_distribution(hi.vandermonde_example(2, [0.25, 0.75]), 3)
    expected = (0.25 ** 3 + 0.75 ** 3) / 2
    assert expected == 0.21875
    assert dist.prob("000") == pytest.approx(0.21875, abs=1e-15)


def test_full_distribution_sums_to_one():
    for seed in range(5):
        dist = hi.full_distribution(hi.random_stochastic(3, seed), 2)
        assert abs(dist.table.sum() - 1.0) <= 1e-12


def test_full_distribution_matches_single_string_eval():
    """Every split of the table: n = 1 has an empty prefix half, odd and even n differ."""
    for d in range(1, 7):
        params = hi.random_stochastic(d, 99)
        for n in range(1, 13):
            table = hi.full_distribution(params, n).table
            oracle = np.array([hi.string_probability(params, format(i, f"0{n}b"))
                               for i in range(2 ** n)])
            assert np.max(np.abs(table - oracle) / oracle) <= 1e-13, (d, n)


def test_full_distribution_matches_breadth_first_forward_vectors_at_n21():
    params = hi.random_stochastic(6, 21)
    ops = hi.split(params)
    fwd = params.initial[None, :]
    for _ in range(21):
        nxt = np.empty((2 * fwd.shape[0], 6))
        nxt[0::2] = fwd @ ops.t0
        nxt[1::2] = fwd @ ops.t1
        fwd = nxt
    oracle = fwd.sum(axis=1)
    table = hi.full_distribution(params, 21).table
    assert np.max(np.abs(table - oracle) / oracle) <= 1e-13


def test_full_distribution_cap():
    with pytest.raises(CapExceededError):
        hi.full_distribution(fair_coin_params(), 25)
    with pytest.raises(CapExceededError):
        hi.full_distribution(fair_coin_params(), 0)


def test_forward_backward_agreement():
    for seed in range(5):
        params = hi.random_stochastic(4, seed)
        ops = hi.split(params)
        v = format(seed + 9, "05b")[:5]
        forward = hi.string_probability(params, v)
        col = np.ones(4)
        for a in reversed(v):
            col = (ops.t0 if a == "0" else ops.t1) @ col
        backward = float(params.initial @ col)
        assert abs(forward - backward) <= 1e-12


def test_vandermonde_d1_is_fair_coin():
    params = hi.vandermonde_example(1, [0.5])
    assert np.array_equal(params.emission, [[0.5, 0.5]])
    assert np.array_equal(params.transition, [[1.0]])
    assert np.array_equal(params.initial, [1.0])


def test_vandermonde_rejects_near_duplicates():
    with pytest.raises(DuplicateEigenvalueError):
        hi.vandermonde_example(2, [0.5, 0.5 + 1e-13])
    with pytest.raises(InvalidParamsError):
        hi.vandermonde_example(2, [0.0, 0.5])


def test_vandermonde_moment_matrix_structure():
    lam = np.array([0.2, 0.5, 0.8])
    dist = hi.full_distribution(hi.vandermonde_example(3, lam), 5)
    s_mat = np.vander(lam, 3, increasing=True).T  # S[i, j] = lam_j^i
    target = s_mat @ s_mat.T / 3
    moment = np.array([[hi.prefix_probability(dist, "0" * (i + j))
                        for j in range(3)] for i in range(3)])
    assert np.max(np.abs(moment - target)) <= 1e-12
    assert np.linalg.svd(moment, compute_uv=False)[-1] > 1e-6


def test_random_stochastic_deterministic():
    a = hi.random_stochastic(2, 7)
    b = hi.random_stochastic(2, 7)
    assert np.array_equal(a.transition, b.transition)
    assert np.array_equal(a.emission, b.emission)
    assert np.array_equal(a.initial, b.initial)


def test_random_stochastic_row_sums():
    for seed in range(20):
        params = hi.random_stochastic(1 + seed % 5, seed)
        assert np.max(np.abs(params.transition.sum(axis=1) - 1.0)) <= 1e-15
        assert np.max(np.abs(params.emission.sum(axis=1) - 1.0)) <= 1e-15
        assert abs(params.initial.sum() - 1.0) <= 1e-15


def test_random_stochastic_pipeline_validates():
    hi.validate(hi.full_distribution(hi.random_stochastic(3, 1), 5))


def test_permute_identity():
    params = hi.random_stochastic(3, 5)
    same = hi.permute_states(params, (0, 1, 2))
    assert np.array_equal(same.transition, params.transition)


def test_permute_swap_vandermonde():
    swapped = hi.permute_states(hi.vandermonde_example(2, [0.25, 0.75]), (1, 0))
    expected = hi.vandermonde_example(2, [0.75, 0.25])
    assert np.array_equal(swapped.emission, expected.emission)
    assert np.array_equal(swapped.transition, expected.transition)
    assert np.array_equal(swapped.initial, expected.initial)


def test_permute_cycle_distribution_invariant():
    params = hi.random_stochastic(3, 42)
    moved = hi.permute_states(params, (1, 2, 0))
    a = hi.full_distribution(params, 5)
    b = hi.full_distribution(moved, 5)
    assert np.max(np.abs(a.table - b.table)) <= 1e-12


def test_permute_invariance_all_lengths():
    params = hi.random_stochastic(2, 8)
    moved = hi.permute_states(params, (1, 0))
    for n in range(1, 9):
        a = hi.full_distribution(params, n)
        b = hi.full_distribution(moved, n)
        assert np.max(np.abs(a.table - b.table)) <= 1e-12


def test_permute_rejects_non_permutation():
    params = hi.random_stochastic(2, 0)
    with pytest.raises(InvalidPermutationError):
        hi.permute_states(params, (0, 0))
    with pytest.raises(InvalidPermutationError):
        hi.permute_states(params, (0, 1, 2))


def test_equivalent_identity():
    params = hi.random_stochastic(3, 23)
    assert hi.equivalent_up_to_permutation(params, params, 1e-12) == (0, 1, 2)


def test_equivalent_finds_constructed_fiber_point():
    params = hi.random_stochastic(3, 31)
    sigma = (2, 0, 1)
    moved = hi.permute_states(params, sigma)
    assert hi.equivalent_up_to_permutation(params, moved, 1e-12) == sigma


def test_equivalent_none_for_different_generators():
    a = hi.vandermonde_example(2, [0.25, 0.75])
    b = hi.vandermonde_example(2, [0.2, 0.8])
    assert hi.equivalent_up_to_permutation(a, b, 1e-6) is None


def test_equivalent_lexicographic_tiebreak():
    # fully symmetric params match under every permutation; smallest wins
    m = np.full((2, 2), 0.5)
    e = np.full((2, 2), 0.5)
    params = hi.HmpParams(2, m, e, np.array([0.5, 0.5]))
    assert hi.equivalent_up_to_permutation(params, params, 1e-12) == (0, 1)


def test_equivalent_guards():
    with pytest.raises(DimensionMismatchError):
        hi.equivalent_up_to_permutation(hi.random_stochastic(2, 0),
                                        hi.random_stochastic(3, 0), 1e-6)
    big = hi.random_stochastic(9, 0)
    with pytest.raises(StateCountTooLargeError):
        hi.equivalent_up_to_permutation(big, big, 1e-6)


def test_params_json_round_trip(tmp_path):
    params = hi.random_stochastic(3, 77)
    path = tmp_path / "params.json"
    hi.save_params(params, path)
    back = hi.load_params(path)
    assert np.array_equal(back.transition, params.transition)
    assert np.array_equal(back.emission, params.emission)
    assert np.array_equal(back.initial, params.initial)


def test_validate_params_catches_bad_rows():
    with pytest.raises(InvalidParamsError):
        hi.validate_params(hi.HmpParams(2, np.array([[0.7, 0.7], [0.5, 0.5]]),
                                        np.full((2, 2), 0.5), np.array([0.5, 0.5])))
    with pytest.raises(InvalidParamsError):
        hi.validate_params(hi.HmpParams(1, np.eye(1), np.array([[1.2, -0.2]]),
                                        np.ones(1)))


def test_validate_params_names_initial_entries_with_one_index():
    bad_initial = hi.HmpParams(2, np.eye(2), np.full((2, 2), 0.5), np.array([-0.2, 1.2]))
    with pytest.raises(InvalidParamsError, match=r"^initial\[0\] = -0\.2$"):
        hi.validate_params(bad_initial)


def test_params_shape_errors():
    with pytest.raises(InvalidParamsError):
        hi.HmpParams(2, np.eye(3), np.full((2, 2), 0.5), np.array([0.5, 0.5]))
    with pytest.raises(InvalidParamsError):
        hi.HmpParams(2, np.full((2, 2), 0.5), np.full((2, 3), 0.5), np.array([0.5, 0.5]))


def test_validate_params_rejects_non_finite():
    with pytest.raises(InvalidParamsError, match="nan"):
        hi.validate_params(hi.HmpParams(2, np.array([[np.nan, 0.5], [0.5, 0.5]]),
                                        np.full((2, 2), 0.5), np.array([0.5, 0.5])))
    with pytest.raises(InvalidParamsError, match="inf"):
        hi.validate_params(hi.HmpParams(1, np.eye(1), np.array([[0.5, 0.5]]),
                                        np.array([np.inf])))


HALF = np.full((2, 2), 0.5)


def test_params_text_entries_are_refused():
    payload = {"d": 2, "transition": [["0.5", "0.5"], ["0.5", "0.5"]],
               "emission": HALF.tolist(), "initial": [0.5, 0.5]}
    with pytest.raises(InvalidParamsError, match=r"^transition entries must be real numbers"):
        params_from_jsonable(payload)


def test_params_boolean_entries_are_refused():
    payload = {"d": 2, "transition": [[True, False], [False, True]],
               "emission": HALF.tolist(), "initial": [0.5, 0.5]}
    with pytest.raises(InvalidParamsError, match=r"^transition entries must be real numbers"):
        params_from_jsonable(payload)


def test_params_ragged_transition_is_refused():
    with pytest.raises(InvalidParamsError, match=r"^transition must be a rectangular array"):
        hi.HmpParams(2, [[0.5, 0.5], [1.0]], HALF, [0.5, 0.5])


def test_params_python_complex_entry_is_refused():
    with pytest.raises(InvalidParamsError, match=r"^initial entries must be real numbers"):
        hi.HmpParams(2, HALF, HALF, [0.5, 0.5 + 0j])


def test_params_complex_array_is_refused_not_cast():
    # a cast would keep the real part and only warn
    with pytest.raises(InvalidParamsError, match=r"^emission entries must be real numbers"):
        hi.HmpParams(2, HALF, HALF.astype(complex), [0.5, 0.5])


def test_params_none_entry_is_refused_not_nan():
    with pytest.raises(InvalidParamsError, match=r"^initial entries must be real numbers"):
        hi.HmpParams(2, HALF, HALF, np.array([0.5, None], dtype=object))


def test_params_integer_entries_stay_valid():
    params = hi.HmpParams(2, [[1, 0], [0, 1]], [[1, 0], [0, 1]], [1, 0])
    assert params.transition.dtype == float
    assert np.array_equal(params.transition, np.eye(2))
    hi.validate_params(params)


def test_determinant_check_does_not_depend_on_the_basis():
    m = hi.random_stochastic(9, 0).transition
    s = np.diag(10.0 ** np.arange(-4, 5))
    det, invertible = determinant_check(m)
    moved_det, moved_invertible = determinant_check(s @ m @ np.linalg.inv(s))
    assert invertible and moved_invertible
    assert moved_det == pytest.approx(det, rel=1e-6)
    singular = np.full((3, 3), 1.0 / 3.0)
    assert not determinant_check(s[:3, :3] @ singular @ np.linalg.inv(s[:3, :3]))[1]
