"""Hidden Markov parametrizations over the binary alphabet.

A parametrization is a triple (transition M, emission E, initial pi): M is a
d x d row-stochastic matrix, E holds per-state probabilities of emitting 0 and
1, and pi is the initial state distribution.  The string probability of
v = a_1 ... a_n is

    p(v) = pi' T_{a_1} ... T_{a_n} 1,      T_a = diag(E[:, a]) M,

computed by forward iteration on a row vector.  The two symbol operators T_0
and T_1 carry all information about the process; splitting them off M and E is
the first step of everything downstream.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from .distribution import StringDistribution
from .errors import (CapExceededError, DimensionMismatchError,
                     DuplicateEigenvalueError, InvalidParamsError,
                     InvalidPermutationError, StateCountTooLargeError, check_order)
from .finitary import FinitaryParams, finitary_probability
from .jsonio import write_json
from .tolerances import DEFAULT_TOLERANCES, ToleranceConfig

FULL_TABLE_CAP = 24          # 2^24 doubles is the largest table we will expand
PERMUTATION_SEARCH_CAP = 8   # d! comparisons; 8! = 40320 is still fine
DET_FLOOR = 1e-10            # |det(A)| below DET_FLOOR * scale^d counts as singular


@dataclass(frozen=True)
class HmpParams:
    d: int
    transition: np.ndarray   # d x d, rows sum to 1
    emission: np.ndarray     # d x 2, row s = (P(emit 0 | s), P(emit 1 | s))
    initial: np.ndarray      # length d

    def __post_init__(self):
        if isinstance(self.d, bool) or not isinstance(self.d, int) or self.d < 1:
            raise InvalidParamsError(f"state count must be a positive integer, got {self.d}")
        m, e, pi = (_real_array(name, getattr(self, name))
                    for name in ("transition", "emission", "initial"))
        if m.shape != (self.d, self.d):
            raise InvalidParamsError(f"transition must be {self.d}x{self.d}, got {m.shape}")
        if e.shape != (self.d, 2):
            raise InvalidParamsError(f"emission must be {self.d}x2, got {e.shape}")
        if pi.shape != (self.d,):
            raise InvalidParamsError(f"initial must have length {self.d}, got {pi.shape}")
        for arr in (m, e, pi):
            arr.setflags(write=False)
        object.__setattr__(self, "transition", m)
        object.__setattr__(self, "emission", e)
        object.__setattr__(self, "initial", pi)


def _real_array(name: str, value) -> np.ndarray:
    """A float copy of value; a ragged nesting or a non-real entry is refused, not cast."""
    try:
        raw = np.array(value)
    except ValueError:   # numpy refuses a ragged nesting
        raise InvalidParamsError(f"{name} must be a rectangular array, not a ragged nesting") from None
    if raw.dtype.kind not in "iuf":   # a cast would drop imaginary parts or parse text
        raise InvalidParamsError(f"{name} entries must be real numbers, got dtype {raw.dtype}")
    return raw.astype(float)


def stochastic_violation(params: HmpParams) -> tuple[float, str | None]:
    """Worst distance from row-stochastic form (inf for a non-finite entry), and where."""
    violation, witness = 0.0, None
    for name in ("transition", "emission", "initial"):
        value = getattr(params, name)
        arr = np.atleast_2d(value)   # initial is one row; its entries keep one index
        outside = np.abs(arr - np.clip(arr, 0.0, 1.0))
        outside[~np.isfinite(arr)] = np.inf
        if outside.max() > violation:
            violation = float(outside.max())
            idx = np.unravel_index(int(np.argmax(outside)), value.shape)
            witness = f"{name}[{','.join(map(str, idx))}] = {value[idx]:.6g}"
        row_err = float(np.max(np.abs(arr.sum(axis=1) - 1.0)))
        if row_err > violation:
            violation = row_err
            worst = int(np.argmax(np.abs(arr.sum(axis=1) - 1.0)))
            witness = f"{name} row {worst} sums to {arr.sum(axis=1)[worst]:.6g}"
    return violation, witness


def validate_params(params: HmpParams, tol: ToleranceConfig | None = None):
    """Row-stochasticity of transition, emission and initial within tol_stochastic."""
    tol = tol or DEFAULT_TOLERANCES
    violation, witness = stochastic_violation(params)
    if violation > tol.tol_stochastic:
        raise InvalidParamsError(witness)


def min_pairwise_gap(values: np.ndarray) -> float:
    """Smallest |a - b| over pairs of distinct positions; inf for fewer than two values."""
    diff = np.abs(values[:, None] - values[None, :])
    return float(diff[~np.eye(values.size, dtype=bool)].min(initial=np.inf))


def determinant_check(matrix: np.ndarray) -> tuple[float, bool]:
    """det(matrix), and whether it clears DET_FLOOR * scale^d, scale the largest |entry|."""
    det = float(np.linalg.det(matrix))
    scale = float(np.max(np.abs(matrix)))
    return det, scale > 0.0 and abs(det) >= DET_FLOOR * scale ** len(matrix)


def split(params: HmpParams) -> FinitaryParams:
    """Symbol operators T_a = diag(E[:, a]) M, with T_0 + T_1 = M, and x = pi."""
    t0 = params.emission[:, 0][:, None] * params.transition
    t1 = params.emission[:, 1][:, None] * params.transition
    return FinitaryParams(params.d, t0, t1, params.initial)


def string_probability(params: HmpParams, v: str) -> float:
    return finitary_probability(split(params), v)


def full_distribution(params: HmpParams, n: int) -> StringDistribution:
    """Table of all 2^n string probabilities, by breadth-first forward vectors."""
    if n < 1:
        raise CapExceededError(f"table length must be >= 1, got {n}")
    if n > FULL_TABLE_CAP:
        raise CapExceededError(f"table length {n} exceeds cap {FULL_TABLE_CAP}")
    ops = split(params)
    fwd = params.initial[None, :]
    for _ in range(n):
        nxt = np.empty((2 * fwd.shape[0], params.d))
        nxt[0::2] = fwd @ ops.t0   # child index of prefix i under symbol a is 2i + a
        nxt[1::2] = fwd @ ops.t1
        fwd = nxt
    return StringDistribution(n, fwd.sum(axis=1))


def vandermonde_example(d: int, lambdas) -> HmpParams:
    """Identity transition, uniform start, state s emits 0 with probability lambda_s.

    The resulting process is an equal-weight mixture of biased coins, and its
    moment matrix [p(0^(i+j))]_{ij} factors through the Vandermonde matrix of
    the lambdas, so the process has rank exactly d whenever they are pairwise
    distinct.
    """
    lam = np.array(lambdas, dtype=float)
    if lam.shape != (d,):
        raise DimensionMismatchError(f"need {d} values, got shape {lam.shape}")
    if np.any(lam <= 0.0) or np.any(lam >= 1.0):
        raise InvalidParamsError("emission probabilities must lie strictly inside (0, 1)")
    gap = min_pairwise_gap(lam)
    if gap < 1e-12:
        raise DuplicateEigenvalueError(f"minimal gap {gap} below 1e-12")
    return HmpParams(d, np.eye(d), np.column_stack([lam, 1.0 - lam]), np.full(d, 1.0 / d))


def random_stochastic(d: int, seed: int) -> HmpParams:
    """Row-normalized uniform draws; deterministic in (d, seed)."""
    check_order("d", d, 1)
    rng = np.random.default_rng(seed)
    m = rng.uniform(size=(d, d))
    e = rng.uniform(size=(d, 2))
    pi = rng.uniform(size=d)
    return HmpParams(d, m / m.sum(axis=1, keepdims=True),
                     e / e.sum(axis=1, keepdims=True), pi / pi.sum())


def permute_states(params: HmpParams, sigma) -> HmpParams:
    """Relabel states: new state i is old state sigma[i]."""
    idx = list(sigma)
    if sorted(idx) != list(range(params.d)):
        raise InvalidPermutationError(f"{sigma!r} is not a permutation of range({params.d})")
    idx = np.asarray(idx)
    return HmpParams(params.d,
                     params.transition[np.ix_(idx, idx)],
                     params.emission[idx],
                     params.initial[idx])


def equivalent_up_to_permutation(a: HmpParams, b: HmpParams,
                                 tol: float = 1e-6):
    """Smallest state relabeling of a that matches b entrywise within tol, or None."""
    if a.d != b.d:
        raise DimensionMismatchError(f"state counts differ: {a.d} vs {b.d}")
    if a.d > PERMUTATION_SEARCH_CAP:
        raise StateCountTooLargeError(
            f"exhaustive search capped at d = {PERMUTATION_SEARCH_CAP}, got {a.d}")
    for sigma in itertools.permutations(range(a.d)):
        moved = permute_states(a, sigma)
        diff = max(np.max(np.abs(moved.transition - b.transition)),
                   np.max(np.abs(moved.emission - b.emission)),
                   np.max(np.abs(moved.initial - b.initial)))
        if diff <= tol:
            return sigma
    return None


def params_to_jsonable(params: HmpParams) -> dict:
    return {"d": params.d,
            "transition": [list(map(float, row)) for row in params.transition],
            "emission": [list(map(float, row)) for row in params.emission],
            "initial": [float(x) for x in params.initial]}


def params_from_jsonable(payload: dict) -> HmpParams:
    if not isinstance(payload, dict):
        raise InvalidParamsError(f"parameter JSON must be an object, got {type(payload).__name__}")
    for key in ("d", "transition", "emission", "initial"):
        if key not in payload:
            raise InvalidParamsError(f"parameter JSON needs key {key!r}")
    return HmpParams(payload["d"], payload["transition"], payload["emission"], payload["initial"])


def save_params(params: HmpParams, path):
    write_json(params_to_jsonable(params), path)


def load_params(path) -> HmpParams:
    with open(path) as fh:
        return params_from_jsonable(json.load(fh))
