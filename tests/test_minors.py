import itertools

import numpy as np
import pytest

import hmpident as hi
from hmpident.errors import LengthError, TooManyMinorsError
from hmpident.minors import _max_abs_minor
from conftest import control_distribution, fair_coin_distribution
from test_identify import count_block_builds


def test_minor_count_values():
    assert hi.minor_count(3, 7, 3) == 35
    assert hi.minor_count(7, 3, 3) == 35
    assert hi.minor_count(3, 3, 2) == 9
    assert hi.minor_count(4, 4, 0) == 1
    with pytest.raises(LengthError):
        hi.minor_count(2, 5, 3)


def test_max_abs_minor_against_enumeration():
    rng = np.random.default_rng(1)
    matrix = rng.normal(size=(3, 4))
    best = 0.0
    for rows in itertools.combinations(range(3), 2):
        for cols in itertools.combinations(range(4), 2):
            a, b = matrix[rows[0], cols[0]], matrix[rows[0], cols[1]]
            c, d = matrix[rows[1], cols[0]], matrix[rows[1], cols[1]]
            best = max(best, abs(a * d - b * c))
    assert _max_abs_minor(matrix, 2) == pytest.approx(best, rel=1e-12)


def test_max_abs_minor_chunked():
    # 36100 minors forces several evaluation chunks
    assert _max_abs_minor(np.eye(20), 2) == pytest.approx(1.0, abs=1e-12)
    rank_one = np.outer(np.arange(1.0, 21.0), np.arange(1.0, 21.0))
    assert _max_abs_minor(rank_one, 2) <= 1e-10


def test_max_abs_minor_degenerate_orders():
    assert _max_abs_minor(np.eye(3), 0) == 1.0
    assert _max_abs_minor(np.eye(3), 4) == 0.0


def test_membership_rank_one():
    result = hi.minor_membership(fair_coin_distribution(3), 1)
    assert result.member
    assert result.all_big_minors_vanish and result.some_small_minor_nonzero
    assert result.counts == {"big": 126, "small": 1}
    assert result.max_small_minor == pytest.approx(1.0, abs=1e-12)


def test_membership_two_states():
    dist = hi.full_distribution(hi.vandermonde_example(2, [0.25, 0.75]), 3)
    result = hi.minor_membership(dist, 2)
    assert result.member
    assert result.counts == {"big": 70, "small": 9}
    assert result.max_big_minor <= 1e-12


def test_control_breaks_membership():
    result = hi.minor_membership(control_distribution(), 2)
    assert not result.all_big_minors_vanish
    assert not result.member
    assert result.max_big_minor > 1e-5
    assert result.counts == {"big": 70, "small": 9}


def test_membership_length_guard():
    with pytest.raises(LengthError):
        hi.minor_membership(control_distribution(), 3)


def test_membership_budget_guard():
    with pytest.raises(TooManyMinorsError):
        hi.minor_membership(fair_coin_distribution(13), 2)


def test_agreement_with_svd_rank():
    cases = [
        (fair_coin_distribution(3), 1, True),
        (hi.full_distribution(hi.random_stochastic(2, 6), 3), 2, True),
        (control_distribution(), 2, False),
    ]
    for dist, d, expected in cases:
        n = dist.n
        ranks = [hi.numerical_rank(hi.hankel_block(hi.marginals(dist), d - 1, d - 1)),
                 hi.numerical_rank(hi.hankel_block(hi.marginals(dist), n // 2, (n + 1) // 2)),
                 hi.numerical_rank(hi.hankel_block(hi.marginals(dist), (n + 1) // 2, n // 2))]
        assert all(r.confident for r in ranks)
        svd_member = all(r.rank == d for r in ranks)
        result = hi.minor_membership(dist, d)
        assert result.member == svd_member == expected


def test_membership_builds_only_the_balanced_blocks(monkeypatch):
    # the small block P_(d-1,d-1) is read as a corner of the wide block
    built = count_block_builds(monkeypatch)
    result = hi.minor_membership(hi.full_distribution(hi.random_stochastic(2, 6), 5), 2)
    assert result.member
    assert built == [(2, 3), (3, 2)]


def test_even_n_scans_the_one_balanced_block_once(monkeypatch):
    # at n=4 the wide and the tall block are both P_(2,2), a 7x7 block
    built = count_block_builds(monkeypatch)
    result = hi.minor_membership(hi.full_distribution(hi.random_stochastic(2, 1), 4), 2)
    assert result.member
    assert result.counts["big"] == hi.minor_count(7, 7, 3) == 1225
    assert built == [(2, 2)]
