import itertools

import numpy as np
import pytest

import hmpident as hi
from conftest import near_degenerate_params


def recover_from(params, n=None, e=None):
    e = e or params.d
    n = n or 2 * e - 1
    dist = hi.full_distribution(params, n)
    return hi.recover_hmm(hi.infer_finitary(hi.hankel_block(dist, e, e - 1), e))


def test_round_trip_two_state_mixture():
    params = hi.vandermonde_example(2, [0.25, 0.75])
    out = recover_from(params)
    assert out.kind == hi.RECOVERED
    assert hi.equivalent_up_to_permutation(out.params, params, 1e-6) is not None


def test_round_trip_random():
    for seed in range(8):
        d = 2 + seed % 2
        params = hi.random_stochastic(d, 100 + seed)
        out = recover_from(params)
        assert out.kind == hi.RECOVERED
        assert hi.equivalent_up_to_permutation(out.params, params, 1e-6) is not None


def test_recovered_emission_rows_sum_exactly():
    out = recover_from(hi.random_stochastic(3, 12))
    sums = out.params.emission.sum(axis=1)
    assert np.all(sums == 1.0)


def test_recovered_states_in_canonical_order():
    # default ordering lists states by increasing probability of emitting '0'
    out = recover_from(hi.random_stochastic(3, 12))
    assert np.all(np.diff(out.params.emission[:, 0]) > 0)


def test_eigenvalue_reorder_is_state_permutation():
    params = hi.random_stochastic(3, 40)
    dist = hi.full_distribution(params, 5)
    fp = hi.infer_finitary(hi.hankel_block(dist, 3, 2), 3)
    canon = hi.recover_hmm(fp)
    assert canon.kind == hi.RECOVERED
    for perm in itertools.permutations(range(3)):
        out = hi.recover_hmm(fp, eigenvalue_order=perm)
        assert out.kind == hi.RECOVERED
        moved = hi.permute_states(canon.params, perm)
        assert np.max(np.abs(out.params.transition - moved.transition)) <= 1e-8
        assert np.max(np.abs(out.params.emission - moved.emission)) <= 1e-8
        assert np.max(np.abs(out.params.initial - moved.initial)) <= 1e-8


def test_not_generic_singular_mixed_operator():
    half = np.full((2, 2), 0.25)
    fp = hi.FinitaryParams(2, half, half, np.array([0.5, 0.5]))
    out = hi.recover_hmm(fp)
    assert out.kind == hi.NOT_GENERIC
    assert out.reason == "M not invertible"


def test_not_generic_coincident_eigenvalues():
    fp = hi.FinitaryParams(2, 0.3 * np.eye(2), 0.7 * np.eye(2), np.array([0.5, 0.5]))
    out = hi.recover_hmm(fp)
    assert out.kind == hi.NOT_GENERIC
    assert out.reason == "eigenvalues not pairwise different"
    assert out.diagnostics.min_eigenvalue_gap < 1e-7


def test_not_generic_near_degenerate_pipeline():
    out = recover_from(near_degenerate_params(5e-8), n=3, e=2)
    assert out.kind == hi.NOT_GENERIC
    assert out.reason == "eigenvalues not pairwise different"


def test_not_generic_rescaling_singular():
    # symmetric Q with the all-ones vector lying in one eigenspace: the
    # complementary eigenvector gets weight zero and unit row sums are
    # unreachable in that basis
    q = np.array([[0.5, 0.2], [0.2, 0.5]])
    fp = hi.FinitaryParams(2, q, np.eye(2) - q, np.array([0.5, 0.5]))
    out = hi.recover_hmm(fp)
    assert out.kind == hi.NOT_GENERIC
    assert out.reason == "eigenvector rescaling singular"


def test_not_stochastic_real_witness():
    # a representation built on a row-sum-1 transition with a negative entry:
    # recovery lands exactly on it and must reject it with a witness
    m = np.array([[1.1, -0.1], [0.3, 0.7]])
    o0 = np.diag([0.2, 0.8])
    fp = hi.FinitaryParams(2, o0 @ m, (np.eye(2) - o0) @ m, np.array([0.6, 0.4]))
    out = hi.recover_hmm(fp)
    assert out.kind == hi.NOT_STOCHASTIC
    assert "transition" in out.reason
    assert out.diagnostics.max_stochastic_violation == pytest.approx(0.1, abs=1e-9)
    assert out.params is None


def test_not_stochastic_complex_witness():
    rot = np.array([[0.5, -0.5], [0.5, 0.5]])
    fp = hi.FinitaryParams(2, rot, np.eye(2) - rot, np.array([0.5, 0.5]))
    out = hi.recover_hmm(fp)
    assert out.kind == hi.NOT_STOCHASTIC
    assert "complex" in out.reason
    assert out.diagnostics.max_imag == pytest.approx(0.5, abs=1e-9)


def test_diagnostics_on_success():
    out = recover_from(hi.random_stochastic(2, 3))
    assert out.kind == hi.RECOVERED
    d = out.diagnostics
    assert d.min_eigenvalue_gap > 1e-7
    assert d.max_imag is not None and d.max_imag <= 1e-6
    assert abs(d.det_mixed) > 1e-10


def test_genericity_report_cases():
    assert hi.genericity_report(hi.vandermonde_example(3, [0.2, 0.5, 0.8])).generic
    assert hi.genericity_report(hi.HmpParams(
        1, np.eye(1), np.array([[0.5, 0.5]]), np.ones(1))).generic

    flat = np.full((2, 2), 0.5)
    same_emission = hi.HmpParams(2, np.array([[0.9, 0.1], [0.2, 0.8]]),
                                 flat, np.array([0.5, 0.5]))
    assert not hi.genericity_report(same_emission).generic

    singular = hi.HmpParams(2, flat, np.array([[0.3, 0.7], [0.6, 0.4]]),
                            np.array([0.5, 0.5]))
    report = hi.genericity_report(singular)
    assert not report.generic and abs(report.det_transition) < 1e-12
