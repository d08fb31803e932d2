import dataclasses
import json
import sys

import numpy as np
import pytest

import hmpident as hi
from hmpident import hankel
from hmpident.errors import SumNotOneError, WrongVerdictError
from hmpident.jsonio import dumps
from conftest import (control_distribution, fair_coin_distribution,
                      near_degenerate_params)


def test_fair_coin_is_one_state():
    verdict = hi.identify(fair_coin_distribution(3))
    assert verdict.kind == hi.HMP
    assert verdict.states == 1
    assert np.max(np.abs(verdict.params.emission[0] - 0.5)) <= 1e-9


def test_two_state_mixture_identified():
    gen = hi.vandermonde_example(2, [0.25, 0.75])
    verdict = hi.identify(hi.full_distribution(gen, 3))
    assert verdict.kind == hi.HMP and verdict.states == 2
    assert hi.equivalent_up_to_permutation(verdict.params, gen, 1e-6) is not None


def test_three_state_identified():
    gen = hi.random_stochastic(3, 0)
    verdict = hi.identify(hi.full_distribution(gen, 5))
    assert verdict.kind == hi.HMP and verdict.states == 3
    assert hi.equivalent_up_to_permutation(verdict.params, gen, 1e-6) is not None


def test_minimal_state_count_wins():
    # a 2-state generator observed at n=5 must not be reported on 3 states
    gen = hi.vandermonde_example(2, [0.3, 0.6])
    verdict = hi.identify(hi.full_distribution(gen, 5))
    assert verdict.kind == hi.HMP and verdict.states == 2


def test_control_distribution_is_no_hmp():
    verdict = hi.identify(control_distribution())
    assert verdict.kind == hi.NO_HMP
    assert verdict.states == 2
    assert "no state count" in verdict.reason


def test_restricted_search_reports_exhaustion():
    dist = hi.full_distribution(hi.vandermonde_example(2, [0.25, 0.75]), 3)
    verdict = hi.identify(dist, max_states=1)
    assert verdict.kind == hi.NO_HMP and verdict.states == 1


def test_borderline_rank_cannot_decide():
    dist = hi.full_distribution(near_degenerate_params(1e-9), 3)
    verdict = hi.identify(dist)
    assert verdict.kind == hi.CANNOT_DECIDE
    assert verdict.reason == "borderline rank"
    assert verdict.trace[-1].note == "borderline rank"


def test_genericity_failure_cannot_decide():
    dist = hi.full_distribution(near_degenerate_params(5e-8), 3)
    verdict = hi.identify(dist)
    assert verdict.kind == hi.CANNOT_DECIDE
    assert verdict.reason == "eigenvalues not pairwise different"
    assert verdict.trace[-1].recovery.kind == hi.NOT_GENERIC


def test_max_states_cap_values():
    assert [hi.max_states_cap(n) for n in (1, 2, 3, 4, 5, 7)] == [1, 1, 2, 2, 3, 4]


def test_max_states_validation():
    dist = fair_coin_distribution(3)
    with pytest.raises(ValueError):
        hi.identify(dist, max_states=0)
    with pytest.raises(ValueError):
        hi.identify(dist, max_states=3)


def test_identify_validates_input():
    bad = hi.StringDistribution(1, np.array([0.5, 0.6]))
    with pytest.raises(SumNotOneError):
        hi.identify(bad)


def test_trace_records_every_tested_count():
    # the balanced ranks leave one candidate, so the trace has one entry
    verdict = hi.identify(hi.full_distribution(hi.vandermonde_example(2, [0.25, 0.75]), 3))
    assert [entry.states for entry in verdict.trace] == [2]
    assert verdict.trace[0].rank_small.rank == 2
    assert verdict.trace[0].recovery.kind == hi.RECOVERED


def test_certify_round_trip():
    dist = fair_coin_distribution(3)
    verdict = hi.identify(dist)
    report = hi.certify(dist, verdict)
    assert report.passed and report.max_residual <= 1e-6


def test_certify_rejects_non_hmp_verdict():
    verdict = hi.identify(control_distribution())
    with pytest.raises(WrongVerdictError):
        hi.certify(control_distribution(), verdict)


def test_verdict_payload_shape():
    dist = fair_coin_distribution(3)
    verdict = hi.identify(dist)
    payload = hi.verdict_to_jsonable(dist, verdict)
    assert payload["verdict"] == "hmp"
    assert payload["states"] == 1
    assert payload["reason"] is None
    assert payload["max_residual"] <= 1e-6
    assert payload["params"]["transition"][0][0] == pytest.approx(1.0, abs=1e-12)
    entry = payload["trace"][0]
    assert set(entry) == {"states", "rank_small", "rank_wide", "rank_tall",
                          "recovery", "note"}
    parsed = json.loads(dumps(payload))
    assert parsed["verdict"] == "hmp"


def test_verdict_payload_no_hmp():
    dist = control_distribution()
    payload = hi.verdict_to_jsonable(dist, hi.identify(dist))
    assert payload["verdict"] == "no_hmp"
    assert payload["params"] is None
    assert payload["max_residual"] is None


def wrap_in_package(monkeypatch, original, wrapper):
    """Put wrapper in place of original wherever an hmpident module holds it by name."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "hmpident" and getattr(module, original.__name__, None) is original:
            monkeypatch.setattr(module, original.__name__, wrapper)


def count_block_builds(monkeypatch):
    """Wrap hankel_block wherever the package holds it; returns the list of (m, k) built."""
    built = []
    original = hankel.hankel_block

    def counted(dist, m, k):
        built.append((m, k))
        return original(dist, m, k)

    wrap_in_package(monkeypatch, original, counted)
    return built


def count_ranked_shapes(monkeypatch):
    """Wrap numerical_rank wherever the package holds it; returns the shapes ranked."""
    ranked = []
    original = hankel.numerical_rank

    def counted(matrix, tol=None):
        ranked.append(np.shape(matrix))
        return original(matrix, tol)

    wrap_in_package(monkeypatch, original, counted)
    return ranked


def test_identify_builds_the_balanced_blocks_once_and_no_small_block(monkeypatch):
    table = np.random.default_rng(9).uniform(0.1, 1.0, 2 ** 9)
    dist = hi.StringDistribution(9, table / table.sum())
    built = count_block_builds(monkeypatch)
    verdict = hi.identify(dist)
    assert verdict.kind == hi.NO_HMP and len(verdict.trace) == 1
    # wide before tall: the tall block stays alive for the small block and inference
    assert built == [(4, 5), (5, 4)]


def test_identify_reads_basis_and_inference_from_the_tall_block(monkeypatch):
    dist = hi.full_distribution(hi.random_stochastic(3, 1), 7)
    built = count_block_builds(monkeypatch)
    verdict = hi.identify(dist)
    assert (verdict.kind, verdict.states) == (hi.HMP, 3)
    assert built == [(3, 4), (4, 3)]


def test_even_n_builds_and_ranks_the_balanced_block_once(monkeypatch):
    # at even n the wide and the tall block are both P_(n/2,n/2)
    dist = hi.full_distribution(hi.random_stochastic(3, 1), 6)
    built = count_block_builds(monkeypatch)
    ranked = count_ranked_shapes(monkeypatch)
    verdict = hi.identify(dist)
    assert (verdict.kind, verdict.states) == (hi.HMP, 3)
    assert built == [(3, 3)]
    assert ranked == [(15, 15), (7, 7)]
    assert verdict.trace[0].rank_tall is verdict.trace[0].rank_wide


def test_full_rank_table_ranks_only_the_balanced_blocks(monkeypatch):
    # wide rank 31 is above the cap of 5, so no small block can match
    table = np.random.default_rng(9).uniform(0.1, 1.0, 2 ** 9)
    dist = hi.StringDistribution(9, table / table.sum())
    ranked = count_ranked_shapes(monkeypatch)
    verdict = hi.identify(dist)
    assert (verdict.kind, verdict.states) == (hi.NO_HMP, 5)
    assert ranked == [(31, 63), (63, 31)]
    assert verdict.trace[0].rank_small is None
    assert "max_states 5" in verdict.trace[0].note


def test_hmp_ranks_one_small_block(monkeypatch):
    dist = hi.full_distribution(hi.random_stochastic(3, 1), 7)
    ranked = count_ranked_shapes(monkeypatch)
    verdict = hi.identify(dist)
    assert (verdict.kind, verdict.states) == (hi.HMP, 3)
    assert ranked == [(15, 31), (31, 15), (7, 7)]


def test_small_blocks_of_other_counts_cannot_stop_the_decision(monkeypatch):
    # only P_(2,2) can complete the rank pattern at e = 3; a borderline
    # P_(e-1,e-1) at any other e must not turn the verdict into cannot_decide
    original = hankel.numerical_rank

    def borderline_small_blocks(matrix, tol=None):
        report = original(matrix, tol)
        rows, cols = np.shape(matrix)
        if rows == cols and rows != 7:
            return dataclasses.replace(report, confident=False)
        return report

    wrap_in_package(monkeypatch, original, borderline_small_blocks)
    gen = hi.random_stochastic(3, 1)
    verdict = hi.identify(hi.full_distribution(gen, 7))
    assert (verdict.kind, verdict.states) == (hi.HMP, 3)
    assert hi.equivalent_up_to_permutation(verdict.params, gen, 1e-6) is not None


def test_unranked_small_block_is_null_in_the_payload():
    dist = control_distribution()
    payload = hi.verdict_to_jsonable(dist, hi.identify(dist))
    assert len(payload["trace"]) == 1
    assert payload["trace"][0]["rank_small"] is None
    assert json.loads(dumps(payload))["trace"][0]["rank_small"] is None


# the best-pivoted e x e submatrices of these blocks have cond ~1e5-1e6, so
# an estimate that inverts one of them drifts past 1e-6 or fails recovery
def test_ill_conditioned_five_state_generator_recovered():
    gen = hi.random_stochastic(5, 2013)
    verdict = hi.identify(hi.full_distribution(gen, 9))
    assert (verdict.kind, verdict.states) == (hi.HMP, 5)
    assert hi.equivalent_up_to_permutation(verdict.params, gen, 1e-6) is not None


def test_ill_conditioned_six_state_generator_decided():
    gen = hi.random_stochastic(6, 381)
    verdict = hi.identify(hi.full_distribution(gen, 11))
    assert (verdict.kind, verdict.states) == (hi.HMP, 6)
