"""Numerical tolerances shared across the pipeline."""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import NonFiniteError


@dataclass(frozen=True)
class ToleranceConfig:
    rel_rank_tol: float = 1e-9      # singular values below rel_rank_tol * sigma_max count as zero
    gap_ratio: float = 10.0         # confidence band half-width (multiplicative) around the rank cut
    tol_sum: float = 1e-9           # allowed deviation of a probability table sum from 1
    tol_entry: float = 1e-12        # entries in [-tol_entry, 0) are clamped to 0 on ingestion
    tol_stat: float = 1e-9          # slack for the stationarity balance check
    tol_stochastic: float = 1e-6    # slack for row-stochasticity of recovered parameters
    eig_gap_tol: float = 1e-7       # minimal pairwise eigenvalue distance treated as distinct

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            floor = 1 if f.name == "gap_ratio" else 0
            if not math.isfinite(value):
                raise NonFiniteError(f"{f.name} must be finite, got {value}")
            if value <= floor:
                raise ValueError(f"{f.name} must exceed {floor}")


DEFAULT_TOLERANCES = ToleranceConfig()
