import dataclasses
import math

import pytest

from hmpident.errors import NonFiniteError
from hmpident.tolerances import DEFAULT_TOLERANCES, ToleranceConfig


def test_default_values():
    tol = DEFAULT_TOLERANCES
    assert tol.rel_rank_tol == 1e-9
    assert tol.gap_ratio == 10.0
    assert tol.tol_sum == 1e-9
    assert tol.tol_entry == 1e-12
    assert tol.tol_stat == 1e-9
    assert tol.tol_stochastic == 1e-6
    assert tol.eig_gap_tol == 1e-7


def test_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        DEFAULT_TOLERANCES.rel_rank_tol = 1e-3


def test_validation():
    with pytest.raises(ValueError):
        ToleranceConfig(rel_rank_tol=0.0)
    with pytest.raises(ValueError):
        ToleranceConfig(gap_ratio=1.0)
    ToleranceConfig(rel_rank_tol=1e-6, gap_ratio=2.0)


def test_non_finite_rejected():
    for name in ("rel_rank_tol", "gap_ratio", "tol_stochastic"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(NonFiniteError):
                ToleranceConfig(**{name: value})
