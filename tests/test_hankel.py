import numpy as np
import pytest

import hmpident as hi
from hmpident.errors import LengthError, RankDeficientError
from hmpident.hankel import corner
from conftest import control_distribution, fair_coin_distribution


def random_table_distribution(n, seed):
    rng = np.random.default_rng(seed)
    table = rng.uniform(0.1, 1.0, 2 ** n)
    return hi.StringDistribution(n, table / table.sum())


def test_block_shapes_and_labels():
    # rows are labelled by strings_up_to(m) and columns by strings_up_to(k)
    dist = random_table_distribution(4, 0)
    for m, k in [(0, 0), (1, 2), (2, 2), (0, 4)]:
        block = hi.hankel_block(hi.marginals(dist), m, k)
        assert isinstance(block, np.ndarray) and not block.flags.writeable
        assert block.shape == (2 ** (m + 1) - 1, 2 ** (k + 1) - 1)
        for i, v in enumerate(hi.strings_up_to(m)):
            for j, w in enumerate(hi.strings_up_to(k)):
                assert block[i, j] == pytest.approx(
                    hi.prefix_probability(dist, v + w), abs=1e-15)
    assert hi.strings_up_to(1) == ["", "0", "1"]


def test_fair_coin_block_frozen():
    block = hi.hankel_block(hi.marginals(fair_coin_distribution(2)), 1, 1)
    expected = np.array([[1.0, 0.5, 0.5],
                         [0.5, 0.25, 0.25],
                         [0.5, 0.25, 0.25]])
    assert np.max(np.abs(block - expected)) <= 1e-15


def test_block_entries_are_concatenation_probabilities():
    dist = random_table_distribution(4, 3)
    block = hi.hankel_block(hi.marginals(dist), 1, 2)
    for i, v in enumerate(hi.strings_up_to(1)):
        for j, w in enumerate(hi.strings_up_to(2)):
            assert block[i, j] == pytest.approx(
                hi.prefix_probability(dist, v + w), abs=1e-15)


def test_block_corner_is_total_mass():
    dist = random_table_distribution(3, 7)
    assert hi.hankel_block(hi.marginals(dist), 1, 2)[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_block_order_errors():
    dist = fair_coin_distribution(3)
    with pytest.raises(LengthError):
        hi.hankel_block(hi.marginals(dist), 2, 2)
    with pytest.raises(LengthError):
        hi.hankel_block(hi.marginals(dist), -1, 1)


def test_columns_satisfy_prefix_recursion():
    # column w of any block equals column w0 plus column w1 whenever all
    # three fit: p(vw) = p(vw0) + p(vw1) is marginal consistency
    dist = random_table_distribution(4, 11)
    block = hi.hankel_block(hi.marginals(dist), 1, 3)
    cols = dict(zip(hi.strings_up_to(3), block.T))
    for w in cols:
        if len(w) < 3:
            assert np.max(np.abs(cols[w] - cols[w + "0"] - cols[w + "1"])) <= 1e-12


def test_rank_one_for_iid():
    table = np.array([0.3 * 0.3, 0.3 * 0.7, 0.7 * 0.3, 0.7 * 0.7])
    dist = hi.StringDistribution(2, table)
    report = hi.numerical_rank(hi.hankel_block(hi.marginals(dist), 1, 1))
    assert report.rank == 1 and report.confident


def test_rank_two_for_two_state_mixture():
    dist = hi.full_distribution(hi.vandermonde_example(2, [0.25, 0.75]), 3)
    for m, k in [(1, 1), (1, 2), (2, 1)]:
        report = hi.numerical_rank(hi.hankel_block(hi.marginals(dist), m, k))
        assert report.rank == 2 and report.confident


def test_rank_three_only_in_wide_block():
    # the prefix recursion caps every 7x3 block at rank 2, so a full-rank
    # perturbation is visible only in the 3x7 orientation
    dist = control_distribution()
    wide = hi.numerical_rank(hi.hankel_block(hi.marginals(dist), 1, 2))
    tall = hi.numerical_rank(hi.hankel_block(hi.marginals(dist), 2, 1))
    assert wide.rank == 3 and wide.confident
    assert tall.rank == 2 and tall.confident


def test_numerical_rank_zero_matrix():
    report = hi.numerical_rank(np.zeros((3, 4)))
    assert report.rank == 0 and report.confident


def test_numerical_rank_band_logic():
    confident_two = hi.numerical_rank(np.diag([1.0, 1e-7]))
    assert confident_two.rank == 2 and confident_two.confident
    confident_one = hi.numerical_rank(np.diag([1.0, 1e-11]))
    assert confident_one.rank == 1 and confident_one.confident
    borderline = hi.numerical_rank(np.diag([1.0, 1e-9]))
    assert not borderline.confident


def test_numerical_rank_band_respects_config():
    loose = hi.ToleranceConfig(rel_rank_tol=1e-6, gap_ratio=2.0)
    report = hi.numerical_rank(np.diag([1.0, 1e-7]), loose)
    assert report.rank == 1 and report.confident


def test_numerical_rank_scale_invariance():
    block = hi.hankel_block(hi.marginals(control_distribution()), 1, 2)
    a = hi.numerical_rank(block)
    b = hi.numerical_rank(block * 1e6)
    assert (a.rank, a.confident) == (b.rank, b.confident)


def test_numerical_rank_empty_error():
    with pytest.raises(LengthError):
        hi.numerical_rank(np.empty((0, 3)))


def test_select_basis_rank_one():
    u, sigma, r = hi.select_basis(hi.hankel_block(hi.marginals(fair_coin_distribution(2)), 0, 0), 1)
    assert u.shape == (1, 1) and sigma.shape == (1,) and r.shape == (1, 1)
    assert sigma[0] == pytest.approx(1.0, abs=1e-12)
    assert u[0, 0] * r[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_select_basis_is_the_top_singular_triple_of_the_block():
    dist = hi.full_distribution(hi.random_stochastic(3, 9), 5)
    data = hi.hankel_block(hi.marginals(dist), 2, 2)
    u, sigma, r = hi.select_basis(data, 3)
    assert np.max(np.abs(u @ np.diag(sigma) @ r - data)) <= 1e-12
    np.testing.assert_allclose(sigma, hi.numerical_rank(data).singular_values[:3],
                               rtol=1e-12, atol=0)


def test_select_basis_rank_deficient():
    with pytest.raises(RankDeficientError):
        hi.select_basis(hi.hankel_block(hi.marginals(fair_coin_distribution(3)), 1, 1), 2)
    with pytest.raises(RankDeficientError):
        hi.select_basis(np.ones((1, 3)), 2)


def test_small_blocks_are_corners_of_larger_blocks():
    for n, seed in ((5, 0), (5, 1), (6, 2)):
        dist = random_table_distribution(n, seed)
        for big_m in range(n + 1):
            for big_k in range(n + 1 - big_m):
                data = hi.hankel_block(hi.marginals(dist), big_m, big_k)
                for m in range(big_m + 1):
                    for k in range(big_k + 1):
                        assert np.array_equal(corner(data, m, k),
                                              hi.hankel_block(hi.marginals(dist), m, k))


def test_row_followed_by_a_symbol_is_row_2r_plus_1_plus_a():
    dist = random_table_distribution(7, 3)
    for e in range(1, 5):
        block = hi.hankel_block(hi.marginals(dist), e, e - 1)
        rows, cols = hi.strings_up_to(e), hi.strings_up_to(e - 1)
        for r in range(2 ** e - 1):
            for a in (0, 1):
                assert rows[2 * r + 1 + a] == rows[r] + str(a)
                for j, w in enumerate(cols):
                    assert block[2 * r + 1 + a, j] == pytest.approx(
                        hi.prefix_probability(dist, rows[r] + str(a) + w), abs=1e-15)


def test_one_pyramid_feeds_marginalize_and_every_block():
    dist = random_table_distribution(7, 5)
    margs = hi.marginals(dist)
    assert len(margs) == 8 and margs[7] is dist.table
    for m in range(8):
        assert hi.marginalize(dist, m).tobytes() == margs[m].tobytes()
    # a block reads only the pyramid it is given: doubling it doubles every entry
    doubled = [2.0 * marg for marg in margs]
    for m, k in ((0, 0), (1, 2), (2, 2), (3, 4), (4, 3)):
        assert np.array_equal(hi.hankel_block(doubled, m, k), 2.0 * hi.hankel_block(margs, m, k))


@pytest.mark.parametrize("source", [
    lambda dist: dist,
    lambda dist: dist.table,
    lambda dist: hi.marginals(dist)[1:],
    lambda dist: tuple(hi.marginals(dist)),
])
def test_a_block_reads_nothing_but_the_marginals_list(source):
    with pytest.raises(LengthError, match="marginals"):
        hi.hankel_block(source(fair_coin_distribution(3)), 1, 1)
