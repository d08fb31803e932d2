"""Observable-operator parametrizations of a string distribution.

A finitary parametrization of dimension e is a vector x and operators T0, T1
with p(a_1 ... a_n) = x' T_{a_1} ... T_{a_n} 1.  Inference picks e row
strings v_i and e column strings w_j whose Gram matrix V = [p(v_i w_j)] is
invertible; then

    x'  = (p(w_1), ..., p(w_e))          y = V^(-1) (p(v_1), ..., p(v_e))'
    T_a = V^(-1) W_a                     W_a = [p(v_i a w_j)]

reproduces the distribution as x' T_v y.  A final change of basis S with
S 1 = y absorbs y into the operators so the standard unit-column-sum form
x' T_v 1 holds; both the raw and the normalized parametrization are kept
because the raw one is the easier object to check against the table.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distribution import StringDistribution
from .errors import DegenerateNormalizationError, LengthError
from .hankel import hankel_block, select_basis
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
    row_strings: tuple
    col_strings: tuple
    gram: np.ndarray


def infer_finitary_detailed(dist: StringDistribution, e: int,
                            tol: ToleranceConfig | None = None) -> FinitaryInference:
    if dist.n < 2 * e - 1:
        raise LengthError(f"need n >= 2e-1 = {2 * e - 1}, got n = {dist.n}")
    tol = tol or DEFAULT_TOLERANCES
    v_strings, w_strings, gram = select_basis(dist, e, tol)
    # P_{p,e,e-1}: row 0 is the empty string, row 2r+1+a is row r followed by a
    block = hankel_block(dist, e, e - 1)
    rows = np.array([block.row_strings.index(v) for v in v_strings])
    cols = np.array([block.col_strings.index(w) for w in w_strings])
    raw_x = block.data[0, cols]
    y = np.linalg.solve(gram, block.data[rows, 0])

    # S = I + (y - 1) e_j' maps 1 to y and has determinant y_j, so the pivot
    # entry of y must stay away from zero for the rescaling to exist.
    j = int(np.argmax(np.abs(y)))
    if abs(y[j]) < DEGENERATE_Y_FLOOR:
        raise DegenerateNormalizationError(f"fixed vector is numerically zero: {y}")
    raw_t0, raw_t1 = (np.linalg.solve(gram, block.data[np.ix_(2 * rows + 1 + a, cols)])
                      for a in (0, 1))
    s = np.eye(e)
    s[:, j] += y - 1.0
    t0 = np.linalg.solve(s, raw_t0 @ s)
    t1 = np.linalg.solve(s, raw_t1 @ s)
    x = s.T @ raw_x
    params = FinitaryParams(e, t0, t1, x)
    return FinitaryInference(params, raw_t0, raw_t1, raw_x, y,
                             v_strings, w_strings, gram)


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
