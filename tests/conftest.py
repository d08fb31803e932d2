"""Shared constructions used across the test modules."""
import os
from pathlib import Path

import numpy as np
import pytest

import hmpident as hi


@pytest.fixture(autouse=True, scope="session")
def child_interpreters_import_this_package():
    """Subprocesses (the CLI entry point, the demos) import the package under test."""
    root = str(Path(hi.__file__).resolve().parents[1])
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")])))
        yield


def fair_coin_params() -> hi.HmpParams:
    return hi.HmpParams(1, np.eye(1), np.array([[0.5, 0.5]]), np.ones(1))


def bernoulli_params(rho: float) -> hi.HmpParams:
    return hi.HmpParams(1, np.eye(1), np.array([[rho, 1.0 - rho]]), np.ones(1))


def fair_coin_distribution(n: int = 3) -> hi.StringDistribution:
    return hi.StringDistribution(n, np.full(2 ** n, 0.5 ** n))


def control_distribution() -> hi.StringDistribution:
    """Rank-3 perturbation of the uniform table at n=3; provably not an HMP on <= 2 states."""
    table = np.full(8, 0.125)
    for s, dv in (("000", 0.02), ("111", -0.02), ("010", 0.01), ("101", -0.01)):
        table[int(s, 2)] += dv
    table /= table.sum()
    return hi.StringDistribution(3, table)


def near_degenerate_params(gap: float = 1e-9) -> hi.HmpParams:
    """Two states distinguished only by an emission gap.

    The near-flip transition matrix keeps the rank-2 signal of the induced
    distribution proportional to the gap with a usable constant, so gap=1e-9
    puts the second singular value squarely inside the rank test's confidence
    band, and gap around 5e-8 clears the band while staying below the
    eigenvalue-separation tolerance.
    """
    m = np.array([[0.05, 0.95], [0.95, 0.05]])
    e = np.array([[0.3, 0.7], [0.3 + gap, 0.7 - gap]])
    return hi.HmpParams(2, m, e, np.array([1.0, 0.0]))
