import numpy as np
import pytest

import hmpident as hi
from hmpident.errors import DegenerateNormalizationError, LengthError
from conftest import fair_coin_distribution


def test_length_guard():
    # P_(1,1) is too small to hold P_(2,1)
    with pytest.raises(LengthError):
        hi.infer_finitary(hi.hankel_block(hi.marginals(fair_coin_distribution(3)), 1, 1), 2)


def test_fair_coin_one_dimensional():
    fp = hi.infer_finitary(hi.hankel_block(hi.marginals(fair_coin_distribution(3)), 1, 0), 1)
    assert fp.e == 1
    assert fp.x[0] == pytest.approx(1.0, abs=1e-12)
    assert fp.t0[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert fp.t1[0, 0] == pytest.approx(0.5, abs=1e-12)


def test_reproduces_full_length_strings():
    params = hi.vandermonde_example(2, [0.25, 0.75])
    dist = hi.full_distribution(params, 3)
    fp = hi.infer_finitary(hi.hankel_block(hi.marginals(dist), 2, 1), 2)
    for i in range(8):
        v = format(i, "03b")
        assert hi.finitary_probability(fp, v) == pytest.approx(dist.prob(v), abs=1e-10)


def test_reproduces_prefix_probabilities():
    dist = hi.full_distribution(hi.random_stochastic(3, 17), 5)
    fp = hi.infer_finitary(hi.hankel_block(hi.marginals(dist), 3, 2), 3)
    for length in range(4):
        for i in range(2 ** length):
            v = format(i, f"0{length}b") if length else ""
            assert hi.finitary_probability(fp, v) == pytest.approx(
                hi.prefix_probability(dist, v), abs=1e-9)


def test_raw_parametrization_reproduces_with_fixed_vector():
    # before normalization the recipe is p(v) = raw_x' T_v y, not unit columns
    dist = hi.full_distribution(hi.random_stochastic(2, 5), 4)
    inf = hi.infer_finitary_detailed(hi.hankel_block(hi.marginals(dist), 2, 1), 2)
    for v in ("", "0", "10", "110", "0101"):
        x = inf.raw_x
        for a in v:
            x = x @ (inf.raw_t0 if a == "0" else inf.raw_t1)
        assert float(x @ inf.y) == pytest.approx(hi.prefix_probability(dist, v), abs=1e-10)


def test_normalization_is_similarity():
    dist = hi.full_distribution(hi.random_stochastic(2, 21), 4)
    inf = hi.infer_finitary_detailed(hi.hankel_block(hi.marginals(dist), 2, 1), 2)
    raw_eigs = np.sort_complex(np.linalg.eigvals(inf.raw_t0 + inf.raw_t1))
    norm_eigs = np.sort_complex(np.linalg.eigvals(inf.params.t0 + inf.params.t1))
    assert np.max(np.abs(raw_eigs - norm_eigs)) <= 1e-10


def test_normalized_process_constraint():
    for seed in range(5):
        d = 1 + seed % 3
        dist = hi.full_distribution(hi.random_stochastic(d, seed), 2 * d - 1)
        fp = hi.infer_finitary(hi.hankel_block(hi.marginals(dist), d, d - 1), d)
        assert hi.process_constraint_residual(fp) <= 1e-9


def test_raw_fixed_point_equation():
    # y = V^(-1) p(v_i) is fixed by T0 + T1 when the table comes from an HMP
    dist = hi.full_distribution(hi.random_stochastic(3, 33), 5)
    inf = hi.infer_finitary_detailed(hi.hankel_block(hi.marginals(dist), 3, 2), 3)
    residual = (inf.raw_t0 + inf.raw_t1) @ inf.y - inf.y
    assert np.max(np.abs(residual)) <= 1e-9


def test_overshooting_dimension_fails_cleanly():
    dist = hi.full_distribution(hi.vandermonde_example(2, [0.3, 0.6]), 5)
    with pytest.raises(hi.errors.RankDeficientError):
        hi.infer_finitary(hi.hankel_block(hi.marginals(dist), 3, 2), 3)


def test_degenerate_normalization_guard(monkeypatch):
    # y = R[:, 0] is the empty-suffix column projected on the top singular
    # subspace, which a rank-e block never zeroes; force a right factor with
    # a zero first column to hit the guard
    table = np.zeros(8)
    table[4:] = 1e-14
    table[0] = 1.0 - table.sum()
    dist = hi.StringDistribution(3, table)
    monkeypatch.setattr("hmpident.finitary.select_basis",
                        lambda data, e, tol: (np.eye(3)[:, :2], np.ones(2), np.eye(3)[1:]))
    with pytest.raises(DegenerateNormalizationError):
        hi.infer_finitary(hi.hankel_block(hi.marginals(dist), 2, 1), 2)


@pytest.mark.parametrize("d", range(1, 6))
def test_tall_block_infers_what_its_corner_does(d):
    # identify passes the tall balanced block; only its P_(e,e-1) corner may count
    for n in (2 * d - 1, 2 * d, 2 * d + 1):
        for seed in range(3):
            dist = hi.full_distribution(hi.random_stochastic(d, seed), n)
            tall = hi.hankel_block(hi.marginals(dist), (n + 1) // 2, n // 2)
            got = hi.infer_finitary_detailed(tall, d)
            want = hi.infer_finitary_detailed(hi.hankel_block(hi.marginals(dist), d, d - 1), d)
            for field in ("raw_t0", "raw_t1", "raw_x", "y", "sigma"):
                assert np.array_equal(getattr(got, field), getattr(want, field)), (n, seed, field)
            assert got.params.e == want.params.e == d
            for field in ("t0", "t1", "x"):
                assert np.array_equal(getattr(got.params, field),
                                      getattr(want.params, field)), (n, seed, field)


@pytest.mark.parametrize("e", [1, 2, 3])
def test_block_smaller_than_p_e_e_minus_1_is_refused(e):
    dist = hi.full_distribution(hi.random_stochastic(3, 1), 6)
    with pytest.raises(LengthError, match=rf"for e = {e}, got shape"):
        hi.infer_finitary(hi.hankel_block(hi.marginals(dist), e - 1, e - 1), e)


def test_a_distribution_is_not_a_block():
    with pytest.raises(LengthError, match=r"for e = 2, got shape \(\)"):
        hi.infer_finitary_detailed(fair_coin_distribution(3), 2)
