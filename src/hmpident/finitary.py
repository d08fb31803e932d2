"""Observable-operator parametrizations of a string distribution.

A finitary parametrization of dimension e is a vector x and operators T0, T1
with p(a_1 ... a_n) = x' T_{a_1} ... T_{a_n} 1.  Inference reads one Hankel
block B = P_{e,e-1}.  Its leading corner H = [p(v w)], over strings v and w of
length at most e-1, has the top-e singular triple H ~ U diag(sigma) R, and the
child rows of B give H_a = [p(v a w)] (row r followed by a is row 2r+1+a).
Then

    x'  = H[0] R'          y = R[:, 0]
    T_a = diag(sigma)^(-1) U' H_a R'

reproduces the distribution as x' T_v y.  Projecting on the singular subspaces
uses every entry of the block, and the only inversion is the division by
sigma, so sigma witnesses how well conditioned the recipe is.  A final change
of basis S with S 1 = y absorbs y into the operators so the standard
unit-column-sum form x' T_v 1 holds; both the raw and the normalized
parametrization are kept because the raw one is the easier object to check
against the table.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distribution import StringDistribution
from .errors import DegenerateNormalizationError, check_order
from .hankel import corner, hankel_block, select_basis
from .strings import check_binary
from .tolerances import DEFAULT_TOLERANCES, ToleranceConfig

DEGENERATE_Y_FLOOR = 1e-12


@dataclass(frozen=True)
class FinitaryParams:
    e: int
    t0: np.ndarray
    t1: np.ndarray
    x: np.ndarray


@dataclass(frozen=True)
class FinitaryInference:
    """Normalized params plus everything inference computed along the way."""
    params: FinitaryParams
    raw_t0: np.ndarray
    raw_t1: np.ndarray
    raw_x: np.ndarray
    y: np.ndarray
    sigma: np.ndarray               # the singular values inference divides by


def infer_finitary_detailed(dist: StringDistribution, e: int,
                            tol: ToleranceConfig | None = None) -> FinitaryInference:
    check_order("e", e, 1, (dist.n + 1) // 2)   # n >= 2e-1
    tol = tol or DEFAULT_TOLERANCES
    # P_{p,e,e-1}: row 0 is the empty string, row 2r+1+a is row r followed by a
    block = hankel_block(dist, e, e - 1)
    h = corner(block, e - 1, e - 1)
    u, sigma, r = select_basis(h, e, tol)
    raw_x = h[0] @ r.T
    y = r[:, 0]

    # S = I + (y - 1) e_j' maps 1 to y and has determinant y_j, so the pivot
    # entry of y must stay away from zero for the rescaling to exist.
    j = int(np.argmax(np.abs(y)))
    if abs(y[j]) < DEGENERATE_Y_FLOOR:
        raise DegenerateNormalizationError(f"fixed vector is numerically zero: {y}")
    rows = np.arange(h.shape[0])
    raw_t0, raw_t1 = ((u.T @ block[2 * rows + 1 + a] @ r.T) / sigma[:, None]
                      for a in (0, 1))
    s = np.eye(e)
    s[:, j] += y - 1.0
    t0 = np.linalg.solve(s, raw_t0 @ s)
    t1 = np.linalg.solve(s, raw_t1 @ s)
    x = s.T @ raw_x
    params = FinitaryParams(e, t0, t1, x)
    return FinitaryInference(params, raw_t0, raw_t1, raw_x, y, sigma)


def infer_finitary(dist: StringDistribution, e: int,
                   tol: ToleranceConfig | None = None) -> FinitaryParams:
    return infer_finitary_detailed(dist, e, tol).params


def finitary_probability(params: FinitaryParams, v: str) -> float:
    check_binary(v)
    x = params.x
    for a in v:
        x = x @ (params.t0 if a == "0" else params.t1)
    return float(x.sum())


def process_constraint_residual(params: FinitaryParams) -> float:
    """How far (T0 + T1) 1 is from 1, in max norm."""
    ones = np.ones(params.e)
    return float(np.max(np.abs((params.t0 + params.t1) @ ones - ones)))
