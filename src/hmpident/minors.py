"""Determinantal cross-check of the rank tests.

A distribution has Hankel rank at most d exactly when every (d+1)-minor of
the two balanced blocks vanishes, and rank at least d when some d-minor of
the small block P_{p,d-1,d-1} survives.  Scanning all minors is exponential
and only meant for small instances, but it shares no code path with the SVD,
which makes agreement between the two a meaningful check.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .distribution import StringDistribution, marginals
from .errors import LengthError, TooManyMinorsError, check_order
from .hankel import corner, hankel_block

MINOR_BUDGET = 10 ** 7
_CHUNK = 2 ** 14


@dataclass(frozen=True)
class MinorScanResult:
    all_big_minors_vanish: bool
    some_small_minor_nonzero: bool
    max_big_minor: float
    max_small_minor: float
    counts: dict

    @property
    def member(self) -> bool:
        """Rank pattern holds at d: big blocks stay at rank <= d, small block reaches d."""
        return self.all_big_minors_vanish and self.some_small_minor_nonzero


def minor_count(rows: int, cols: int, k: int) -> int:
    if k > min(rows, cols):
        raise LengthError(f"{k}x{k} minors do not fit in a {rows}x{cols} matrix")
    return math.comb(rows, k) * math.comb(cols, k)


def _max_abs_minor(matrix: np.ndarray, k: int) -> float:
    """Largest |det| over all k x k submatrices, evaluated in chunks."""
    if k == 0:
        return 1.0
    if k > min(matrix.shape):
        return 0.0
    row_sets = list(itertools.combinations(range(matrix.shape[0]), k))
    col_sets = list(itertools.combinations(range(matrix.shape[1]), k))
    best = 0.0
    buffer = []
    for rows in row_sets:
        sliced = matrix[list(rows), :]
        for cols in col_sets:
            buffer.append(sliced[:, list(cols)])
            if len(buffer) == _CHUNK:
                best = max(best, float(np.max(np.abs(np.linalg.det(np.array(buffer))))))
                buffer = []
    if buffer:
        best = max(best, float(np.max(np.abs(np.linalg.det(np.array(buffer))))))
    return best


def minor_membership(dist: StringDistribution, d: int, tol: float = 1e-9) -> MinorScanResult:
    n = dist.n
    check_order("d", d, 1, (n + 1) // 2)   # n >= 2d-1, so d-1 <= n // 2
    margs = marginals(dist)
    wide = hankel_block(margs, n // 2, (n + 1) // 2)
    # at even n the two balanced blocks are one block, built and scanned once
    big = [wide, hankel_block(margs, (n + 1) // 2, n // 2)] if n % 2 else [wide]
    small = corner(wide, d - 1, d - 1)

    def safe_count(block, k):
        return minor_count(block.shape[0], block.shape[1], k) if k <= min(block.shape) else 0

    big_count = sum(safe_count(block, d + 1) for block in big)
    if big_count > MINOR_BUDGET:
        raise TooManyMinorsError(f"{big_count} minors exceed the budget of {MINOR_BUDGET}")
    small_count = safe_count(small, d)

    max_big = max(_max_abs_minor(block, d + 1) for block in big)
    max_small = _max_abs_minor(small, d)
    big_threshold = tol * max(np.abs(block).max() for block in big) ** (d + 1)
    small_threshold = tol * np.abs(small).max() ** d
    return MinorScanResult(
        all_big_minors_vanish=bool(max_big <= big_threshold),
        some_small_minor_nonzero=bool(max_small > small_threshold),
        max_big_minor=max_big,
        max_small_minor=max_small,
        counts={"big": big_count, "small": small_count},
    )
