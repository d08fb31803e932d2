"""sketched_rank answers what numerical_rank answers read up to cap + 1, or asks it."""
import functools
import math

import numpy as np
import pytest

import hmpident as hi
from hmpident import hankel
from hmpident.errors import LengthError
from hmpident.hankel import sketched_block_rank, sketched_rank
from hmpident.identify import max_states_cap
from hmpident.tolerances import DEFAULT_TOLERANCES
from conftest import near_degenerate_params
from test_identify import count_ranked_shapes


def uniform_distribution(n, seed):
    table = np.random.default_rng([n, seed]).random(2 ** n)
    return hi.StringDistribution(n, table / table.sum())


def balanced_shapes(n):
    return sorted({(n // 2, (n + 1) // 2), ((n + 1) // 2, n // 2)})


def balanced_blocks(dist):
    margs = hi.marginals(dist)
    return [hi.hankel_block(margs, m, k) for m, k in balanced_shapes(dist.n)]


def rank_both_ways(monkeypatch, block, cap):
    """(sketched report, exact report, whether the sketch asked numerical_rank)."""
    exact = hankel.numerical_rank(block)
    ranked = count_ranked_shapes(monkeypatch)
    sketched = sketched_rank(block, cap)
    monkeypatch.undo()
    return sketched, exact, bool(ranked)


def assert_same_answer(sketched, exact):
    assert (sketched.rank, sketched.confident) == (exact.rank, exact.confident)


def sketch_counted(monkeypatch, block, cap):
    """(sketched report, whether the sketch asked numerical_rank)."""
    ranked = count_ranked_shapes(monkeypatch)
    sketched = sketched_rank(block, cap)
    monkeypatch.undo()
    return sketched, bool(ranked)


def up_to_cap(exact, cap):
    """An exact report read the way sketched_rank answers: up to cap + 1."""
    return hankel._rank_at_cut(exact.singular_values, DEFAULT_TOLERANCES, cap)


def generator_distribution(d, n, seed):
    return hi.full_distribution(hi.random_stochastic(d, seed), n)


# the generator sweep (d = 1..8) and the uniform sweep (d None)
SWEEPS = {**{d: [(n, seed) for n in range(10, 18) for seed in range(10)] for d in range(1, 9)},
          None: [(n, seed) for n in (13, 15, 17) for seed in range(3)]}


@functools.lru_cache(maxsize=None)
def exact_reports(d, n, seed):
    """numerical_rank of each balanced block of a sweep's table; d None is a uniform table."""
    dist = uniform_distribution(n, seed) if d is None else generator_distribution(d, n, seed)
    return tuple(hankel.numerical_rank(block) for block in balanced_blocks(dist))


def streamed_and_dense(dist, cap):
    """(streamed, dense) sketched reports of each balanced block of dist."""
    margs = hi.marginals(dist)
    return [(sketched_block_rank(margs, m, k, cap), sketched_rank(hi.hankel_block(margs, m, k), cap))
            for m, k in balanced_shapes(dist.n)]


@pytest.mark.parametrize("d", [*range(1, 9), None])
def test_streamed_sketch_agrees_with_the_dense_one(d):
    for n, seed in SWEEPS[d]:
        dist = uniform_distribution(n, seed) if d is None else generator_distribution(d, n, seed)
        for streamed, dense in streamed_and_dense(dist, max_states_cap(n)):
            assert_same_answer(streamed, dense)
            # the same sketch, summed in another order
            assert streamed.singular_values.shape == dense.singular_values.shape
            assert np.allclose(streamed.singular_values, dense.singular_values,
                               rtol=1e-9, atol=1e-12 * dense.singular_values[0])


@pytest.mark.parametrize("gap", [1e-9, 5e-8, 1e-6])
@pytest.mark.parametrize("n", [13, 15])
def test_streamed_sketch_agrees_with_the_dense_one_near_degenerate(gap, n):
    dist = hi.full_distribution(near_degenerate_params(gap), n)
    for streamed, dense in streamed_and_dense(dist, max_states_cap(n)):
        assert_same_answer(streamed, dense)


@pytest.mark.parametrize("d", range(1, 9))
def test_same_answer_as_the_full_svd_on_generators(monkeypatch, d):
    certified = 0
    for n, seed in SWEEPS[d]:
        exact = exact_reports(d, n, seed)
        for block, report in zip(balanced_blocks(generator_distribution(d, n, seed)), exact):
            sketched, fell_back = sketch_counted(monkeypatch, block, max_states_cap(n))
            assert_same_answer(sketched, up_to_cap(report, max_states_cap(n)))
            certified += not fell_back
    if d <= 6:   # rank d fits under every cap from n = 12 on
        assert certified > 0


@pytest.mark.parametrize("n", [13, 15, 17])
def test_same_answer_as_the_full_svd_on_uniform_tables(monkeypatch, n):
    cap = max_states_cap(n)
    for seed in range(3):
        exact = exact_reports(None, n, seed)
        for block, report in zip(balanced_blocks(uniform_distribution(n, seed)), exact):
            sketched, fell_back = sketch_counted(monkeypatch, block, cap)
            assert_same_answer(sketched, up_to_cap(report, cap))
            # far above the cap: the sketch proves it, no full SVD of the block
            assert not fell_back and (sketched.rank, sketched.confident) == (cap + 1, True)
            assert sketched.singular_values.size == cap + 2


@pytest.mark.parametrize("d", [*range(1, 9), None])
def test_reading_up_to_the_cap_moves_only_ranks_above_it(d):
    for n, seed in SWEEPS[d]:
        cap = max_states_cap(n)
        for exact in exact_reports(d, n, seed):
            capped = up_to_cap(exact, cap)
            if exact.rank <= cap:
                assert_same_answer(capped, exact)
            else:
                assert capped.rank == cap + 1
            assert capped.confident or not exact.confident


@pytest.mark.parametrize("gap", [1e-9, 5e-8, 1e-6])
@pytest.mark.parametrize("n", [13, 15])
def test_same_answer_as_the_full_svd_near_degenerate(monkeypatch, gap, n):
    dist = hi.full_distribution(near_degenerate_params(gap), n)
    for block in balanced_blocks(dist):
        sketched, exact, _ = rank_both_ways(monkeypatch, block, max_states_cap(n))
        assert_same_answer(sketched, exact)


def test_identify_takes_the_certified_path(monkeypatch):
    # only the small block P_(e-1,e-1) = P_(5,5) reaches the full SVD
    dist = hi.full_distribution(hi.random_stochastic(6, 1), 15)
    ranked = count_ranked_shapes(monkeypatch)
    verdict = hi.identify(dist)
    assert (verdict.kind, verdict.states) == (hi.HMP, 6)
    assert ranked == [(63, 63)]
    assert verdict.trace[0].rank_wide.confident and verdict.trace[0].rank_tall.confident


def test_uniform_table_is_certified_above_the_cap(monkeypatch):
    block = hi.hankel_block(hi.marginals(uniform_distribution(13, 0)), 6, 7)
    ranked = count_ranked_shapes(monkeypatch)
    report = sketched_rank(block, max_states_cap(13))
    assert ranked == []
    assert (report.rank, report.confident) == (max_states_cap(13) + 1, True)


@pytest.mark.parametrize("seed", range(3))
def test_uniform_table_at_n21_is_no_hmp(monkeypatch, seed):
    # at seeds 0 and 2 the exact SVD of the 2047x4095 wide block has tail
    # values in the band; only sigma_1..sigma_12 can move a verdict on at most
    # 11 states, and the sketch proves them clear of it
    dist = uniform_distribution(21, seed)
    ranked = count_ranked_shapes(monkeypatch)
    verdict = hi.identify(dist)
    assert verdict.kind == hi.NO_HMP
    assert ranked == []
    assert (verdict.trace[0].rank_wide.rank, verdict.trace[0].rank_tall.rank) == (12, 12)


def test_band_value_at_cap_plus_one_falls_back(monkeypatch):
    # sigma_3 = 2e-9 sits in the band [1e-10, 1e-8] and decides between 2 and
    # 3 states, so no certificate holds and the exact answer is not confident
    sigma = np.full(800, 3e-11)
    sigma[:3] = 1.0, 0.5, 2e-9
    ranked = count_ranked_shapes(monkeypatch)
    report = sketched_rank(np.diag(sigma), 2)
    assert ranked == [(800, 800)]
    assert (report.rank, report.confident) == (3, False)


def test_band_value_past_cap_plus_one_is_ignored(monkeypatch):
    # sigma_4 = 2e-9 makes the full spectrum borderline, but with cap 2 only
    # sigma_1..sigma_3 count, and they clear the band: certified from the sketch
    sigma = np.full(800, 3e-11)
    sigma[:4] = 1.0, 0.5, 0.25, 2e-9
    assert not hankel.numerical_rank(np.diag(sigma)).confident
    ranked = count_ranked_shapes(monkeypatch)
    report = sketched_rank(np.diag(sigma), 2)
    assert ranked == []
    assert (report.rank, report.confident) == (3, True)


def test_borderline_block_falls_back(monkeypatch):
    # the gap-1e-9 rank-2 signal sits inside the confidence band
    block = hi.hankel_block(hi.marginals(hi.full_distribution(near_degenerate_params(1e-9), 13)), 6, 7)
    ranked = count_ranked_shapes(monkeypatch)
    report = sketched_rank(block, max_states_cap(13))
    assert ranked == [(127, 255)]
    assert not report.confident


def test_residual_refuses_what_the_sketch_misses(monkeypatch):
    # sigma_2 = 2e-10 sits in the band [1e-10, 1e-8]; a 3-column sketch sees
    # the tail of 3e-11 instead, so only the residual bound shows the doubt
    sigma = np.full(800, 3e-11)
    sigma[:2] = 1.0, 2e-10
    a = np.diag(sigma)
    q = np.linalg.qr(a @ np.random.default_rng(0).standard_normal((800, 3)))[0]
    s = np.linalg.svd(q.T @ a, compute_uv=False)
    assert s[1] < 1e-10 * s[0] and np.linalg.norm(a - q @ (q.T @ a)) > 1e-10
    ranked = count_ranked_shapes(monkeypatch)
    report = sketched_rank(a, 1)
    assert ranked == [(800, 800)]
    assert (report.rank, report.confident) == (1, False)


def test_residual_is_summed_over_every_piece(monkeypatch):
    # sigma_2 = 2e-10 sits in the band and the 3-column sketch misses it, as
    # above, but the spectrum is spread over all 800 rows: handed one row at a
    # time, no row's residual reaches the band, only their sum does
    rng = np.random.default_rng(1)
    u, v = (np.linalg.qr(rng.standard_normal((800, 800)))[0] for _ in range(2))
    sigma = np.full(800, 1e-11)
    sigma[:2] = 1.0, 2e-10
    a = (u * sigma) @ v.T
    q = np.linalg.qr(a @ np.random.default_rng(0).standard_normal((800, 3)))[0]
    residual = a - q @ (q.T @ a)
    assert np.linalg.norm(residual, axis=1).max() < 5e-11 < 2e-10 < np.linalg.norm(residual)
    rows = [a[i:i + 1] for i in range(800)]
    ranked = count_ranked_shapes(monkeypatch)
    report = hankel._sketched(rows, 0, float(np.vdot(a, a)), lambda: a, 1, None)
    assert ranked == [(800, 800)]
    assert (report.rank, report.confident) == (1, False)


def test_residual_is_summed_over_every_row_chunk(monkeypatch):
    # sigma_2 = 2e-10 sits in the band, and its right vector is orthogonal to
    # the sketch's Omega, so only the residual shows it.  Its left vector is
    # spread over all 2000 rows, and the residual is taken a chunk of rows at
    # a time: no chunk's part of it reaches the band's floor, only their sum
    rng = np.random.default_rng(1)
    omega = np.random.default_rng(0).standard_normal((400, 3))   # the sketch's Omega at cap 1
    v1 = rng.standard_normal(400)
    v1 /= np.linalg.norm(v1)
    v2 = np.linalg.qr(np.column_stack([omega, v1, rng.standard_normal(400)]))[0][:, 4]
    u = np.linalg.qr(rng.standard_normal((2000, 2)))[0]
    a = np.outer(u[:, 0], v1) + 2e-10 * np.outer(u[:, 1], v2)
    a += 1e-13 / math.sqrt(2000) * rng.standard_normal((2000, 400))
    q = np.linalg.qr(a @ omega)[0]
    s = np.linalg.svd(q.T @ a, compute_uv=False)
    residual = a - q @ (q.T @ a)
    step = hankel._CHUNK // 400
    chunks = [np.linalg.norm(residual[r:r + step]) for r in range(0, 2000, step)]
    assert len(chunks) > 10
    assert s[1] + max(chunks) < 1e-10 * s[0] < s[1] + np.linalg.norm(residual)
    ranked = count_ranked_shapes(monkeypatch)
    report = sketched_rank(a, 1)
    assert ranked == [(2000, 400)]
    assert (report.rank, report.confident) == (1, False)


@pytest.mark.parametrize("n", range(9, 14))
def test_column_halvings_of_each_row_group_are_the_block_columns(n):
    # row group lv of T is the length-(lv+k) marginal as 2^lv x 2^k; halved j
    # times it is the block's column group lw = k - j, bit for bit
    margs = hi.marginals(generator_distribution(4, n, n))
    for m, k in balanced_shapes(n):
        block = hi.hankel_block(margs, m, k)
        for lv in range(m + 1):
            group = margs[lv + k].reshape(2 ** lv, 2 ** k)
            rows = block[2 ** lv - 1:2 ** (lv + 1) - 1]
            for j, halved in enumerate(hankel._halvings(group, k)):
                lw = k - j
                assert np.array_equal(halved, rows[:, 2 ** lw - 1:2 ** (lw + 1) - 1])


def test_certified_report_holds_lower_brackets_of_the_spectrum(monkeypatch):
    n = 15
    block = hi.hankel_block(hi.marginals(hi.full_distribution(hi.random_stochastic(4, 2), n)), 7, 8)
    sketched, exact, fell_back = rank_both_ways(monkeypatch, block, max_states_cap(n))
    assert not fell_back and (sketched.rank, sketched.confident) == (4, True)
    sketch = max_states_cap(n) + 2
    assert sketched.singular_values.shape == (sketch,)
    top = exact.singular_values[0]
    assert np.all(sketched.singular_values <= exact.singular_values[:sketch] + 1e-12 * top)
    assert sketched.singular_values[:4] == pytest.approx(exact.singular_values[:4], rel=1e-9)


def test_deterministic():
    block = hi.hankel_block(hi.marginals(hi.full_distribution(hi.random_stochastic(5, 3), 15)), 7, 8)
    first, second = sketched_rank(block, 8), sketched_rank(block, 8)
    assert (first.rank, first.confident) == (second.rank, second.confident)
    assert np.array_equal(first.singular_values, second.singular_values)


def test_small_blocks_take_the_exact_path(monkeypatch):
    block = hi.hankel_block(hi.marginals(hi.full_distribution(hi.random_stochastic(3, 1), 9)), 4, 5)
    assert min(block.shape) == hankel.EXACT_MAX_SIDE
    ranked = count_ranked_shapes(monkeypatch)
    report = sketched_rank(block, max_states_cap(9))
    assert ranked == [(31, 63)]
    assert np.array_equal(report.singular_values, hankel.numerical_rank(block).singular_values)


def test_cap_must_be_positive():
    block = hi.hankel_block(hi.marginals(uniform_distribution(13, 0)), 6, 7)
    with pytest.raises(LengthError):
        sketched_rank(block, 0)


def test_sketch_wider_than_the_block_takes_the_exact_path(monkeypatch):
    block = hi.hankel_block(hi.marginals(uniform_distribution(13, 0)), 6, 7)
    ranked = count_ranked_shapes(monkeypatch)
    report = sketched_rank(block, 126)   # l = 128 columns against 127 rows
    assert ranked == [(127, 255)]
    assert (report.rank, report.confident) == (127, True)


def test_not_a_public_name():
    assert "sketched_rank" not in hi.__all__


def test_blocks_past_the_exact_side_are_sketched(monkeypatch):
    block = hi.hankel_block(hi.marginals(hi.full_distribution(hi.random_stochastic(3, 1), 11)), 5, 6)
    assert min(block.shape) == 2 * hankel.EXACT_MAX_SIDE + 1
    ranked = count_ranked_shapes(monkeypatch)
    report = sketched_rank(block, max_states_cap(11))
    assert ranked == [] and (report.rank, report.confident) == (3, True)
