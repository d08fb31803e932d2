"""Whole-pipeline acceptance checks.

One test per numbered requirement, so `pytest -v` prints one pass/fail line
for each.  Expected values were computed with independent oracles (direct
SVD, explicit moment formulas, entrywise enumeration) and frozen here.
"""
import itertools
import json
import time

import numpy as np
import pytest

import hmpident as hi
from hmpident.cli import main
from conftest import (bernoulli_params, control_distribution,
                      fair_coin_params, near_degenerate_params)

ALLOWED_CANNOT_DECIDE = ("borderline rank", "eigenvalues not pairwise different",
                         "M not invertible", "eigenvector rescaling singular",
                         "inference degenerate")


@pytest.fixture(scope="module")
def round_trip_results():
    """100 seeded generate/identify/compare trials for each d in 1..4."""
    results = {d: {"recovered": 0, "cannot_decide": 0, "mismatched": 0}
               for d in (1, 2, 3, 4)}
    residuals = []
    start = time.time()
    for d in (1, 2, 3, 4):
        n = 2 * d - 1
        for trial in range(100):
            params = hi.random_stochastic(d, 1000 * d + trial)
            dist = hi.full_distribution(params, n)
            verdict = hi.identify(dist)
            if verdict.kind == hi.HMP and verdict.states == d and \
                    hi.equivalent_up_to_permutation(verdict.params, params, 1e-6) is not None:
                results[d]["recovered"] += 1
                residuals.append(hi.certify(dist, verdict).max_residual)
            elif verdict.kind == hi.CANNOT_DECIDE and \
                    any(verdict.reason.startswith(r) for r in ALLOWED_CANNOT_DECIDE):
                results[d]["cannot_decide"] += 1
            else:
                results[d]["mismatched"] += 1
    results["elapsed"] = time.time() - start
    results["residuals"] = residuals
    return results


def test_criterion_1_round_trip_identification(round_trip_results):
    for d in (1, 2, 3, 4):
        counts = round_trip_results[d]
        assert counts["mismatched"] == 0, f"d={d}: {counts}"
        assert counts["recovered"] >= 95, f"d={d}: {counts}"
        assert counts["recovered"] + counts["cannot_decide"] == 100
    assert round_trip_results["elapsed"] < 30.0


def test_criterion_2_soundness_certificate(round_trip_results):
    residuals = round_trip_results["residuals"]
    assert len(residuals) >= 380
    assert max(residuals) <= 1e-6


def test_criterion_3_vandermonde_moment_structure():
    for d in (2, 3, 4):
        lam = np.linspace(0.1, 0.9, d)
        params = hi.vandermonde_example(d, lam)
        dist = hi.full_distribution(params, 2 * d - 1)
        moment = np.array([[hi.prefix_probability(dist, "0" * (i + j))
                            for j in range(d)] for i in range(d)])
        vand = np.vander(lam, d, increasing=True).T   # vand[i, j] = lam_j^i
        target = vand @ vand.T / d
        assert np.max(np.abs(moment - target)) <= 1e-12
        assert np.linalg.svd(moment, compute_uv=False)[-1] > 1e-8
        verdict = hi.identify(dist)
        assert verdict.kind == hi.HMP and verdict.states == d


def _minor_scan_confident(result, dist, d, tol=1e-9):
    n = dist.n
    wide = hi.hankel_block(dist, n // 2, (n + 1) // 2)
    tall = hi.hankel_block(dist, (n + 1) // 2, n // 2)
    small = hi.hankel_block(dist, d - 1, d - 1)
    big_thr = tol * max(np.abs(wide).max(), np.abs(tall).max()) ** (d + 1)
    small_thr = tol * np.abs(small).max() ** d
    clear = lambda value, thr: not (thr / 10.0 <= value <= thr * 10.0)
    return clear(result.max_big_minor, big_thr) and clear(result.max_small_minor, small_thr)


def test_criterion_4_minor_svd_rank_agreement():
    rng = np.random.default_rng(4)
    dists = []
    for i in range(10):
        dists.append(hi.full_distribution(hi.random_stochastic(1, 400 + i), 3))
    for i in range(15):
        dists.append(hi.full_distribution(hi.random_stochastic(2, 450 + i), 3))
    for i in range(13):
        table = rng.uniform(0.05, 1.0, 8)
        dists.append(hi.StringDistribution(3, table / table.sum()))
    for i in range(12):
        table = hi.full_distribution(hi.random_stochastic(2, 480 + i), 3).table.copy()
        table += rng.uniform(-1e-3, 1e-3, 8)
        table = np.clip(table, 1e-6, None)
        dists.append(hi.StringDistribution(3, table / table.sum()))
    assert len(dists) == 50

    compared = disagreements = 0
    for dist in dists:
        for d in (1, 2):
            reports = [hi.numerical_rank(hi.hankel_block(dist, d - 1, d - 1)),
                       hi.numerical_rank(hi.hankel_block(dist, 1, 2)),
                       hi.numerical_rank(hi.hankel_block(dist, 2, 1))]
            scan = hi.minor_membership(dist, d)
            if not all(r.confident for r in reports):
                continue
            if not _minor_scan_confident(scan, dist, d):
                continue
            compared += 1
            svd_member = all(r.rank == d for r in reports)
            if svd_member != scan.member:
                disagreements += 1
    assert compared >= 60
    assert disagreements == 0


def test_criterion_5_iid_rank_one():
    rng = np.random.default_rng(5)
    for rho in rng.uniform(0.05, 0.95, 20):
        dist = hi.full_distribution(bernoulli_params(float(rho)), 5)
        for m in range(6):
            for k in range(6 - m):
                report = hi.numerical_rank(hi.hankel_block(dist, m, k))
                assert report.rank == 1 and report.confident
        verdict = hi.identify(dist)
        assert verdict.kind == hi.HMP and verdict.states == 1
        assert np.max(np.abs(verdict.params.emission[0] -
                             [rho, 1.0 - rho])) <= 1e-8


def test_criterion_6_negative_control():
    dist = control_distribution()
    sigma = np.linalg.svd(hi.hankel_block(dist, 1, 2), compute_uv=False)
    assert int(np.count_nonzero(sigma > 1e-9 * sigma[0])) == 3   # direct SVD oracle
    verdict = hi.identify(dist)
    assert verdict.kind == hi.NO_HMP and verdict.states == 2
    assert hi.minor_membership(dist, 2).all_big_minors_vanish is False


def test_criterion_7_fiber_permutations():
    kept = 0
    seed = 0
    while kept < 20:
        params = hi.random_stochastic(3, 700 + seed)
        seed += 1
        if not hi.genericity_report(params).generic:
            continue
        kept += 1
        dist = hi.full_distribution(params, 5)
        fp = hi.infer_finitary(hi.hankel_block(dist, 3, 2), 3)
        canon = hi.recover_hmm(fp)
        assert canon.kind == hi.RECOVERED
        for perm in itertools.permutations(range(3)):
            moved = hi.permute_states(params, perm)
            resim = hi.full_distribution(moved, 5)
            assert np.max(np.abs(resim.table - dist.table)) <= 1e-12
            out = hi.recover_hmm(fp, eigenvalue_order=perm)
            assert out.kind == hi.RECOVERED
            target = hi.permute_states(canon.params, perm)
            assert np.max(np.abs(out.params.transition - target.transition)) <= 1e-8
            assert np.max(np.abs(out.params.emission - target.emission)) <= 1e-8
            assert np.max(np.abs(out.params.initial - target.initial)) <= 1e-8


def test_criterion_8_process_invariants():
    for seed in range(200):
        d = 1 + seed % 4
        params = hi.random_stochastic(d, 800 + seed)
        n = 2 * d - 1
        dist = hi.full_distribution(params, n)
        for length in range(n):
            left = hi.marginalize(dist, length)
            right = hi.marginalize(dist, length + 1).reshape(-1, 2).sum(axis=1)
            assert np.max(np.abs(left - right)) <= 1e-12
        inf = hi.infer_finitary_detailed(hi.hankel_block(dist, d, d - 1), d)
        assert hi.process_constraint_residual(inf.params) <= 1e-10
        fixed = (inf.raw_t0 + inf.raw_t1) @ inf.y - inf.y
        assert np.max(np.abs(fixed)) <= 1e-8


def test_criterion_9_cli_contract(tmp_path):
    params_path = str(tmp_path / "coin.json")
    coin_dist = str(tmp_path / "coin_dist.json")
    verdict_path = str(tmp_path / "verdict.json")
    hi.save_params(fair_coin_params(), params_path)
    assert main(["simulate", "--params", params_path, "--length", "3",
                 "--out", coin_dist]) == 0
    assert main(["identify", "--dist", coin_dist, "--out", verdict_path]) == 0
    assert json.loads(open(verdict_path).read())["states"] == 1

    control_path = str(tmp_path / "control.json")
    hi.save_distribution(control_distribution(), control_path)
    assert main(["identify", "--dist", control_path]) == 2

    nd_path = str(tmp_path / "nd.json")
    hi.save_distribution(
        hi.full_distribution(near_degenerate_params(1e-9), 3), nd_path)
    assert main(["identify", "--dist", nd_path]) == 3
    assert main(["identify", "--dist", nd_path, "--paper-literal"]) == 2
