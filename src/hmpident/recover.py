"""Turn a finitary parametrization into a stochastic hidden Markov one.

If a distribution really comes from a hidden Markov process with invertible
transition matrix M and pairwise distinct per-state probabilities of emitting
'0', then any e-dimensional finitary parametrization (T0, T1, x) of it is a
similarity transform of the hidden-state one, and the transform can be undone:
Q = T0 (T0+T1)^(-1) is similar to the diagonal matrix of emission
probabilities, so diagonalizing Q and rescaling the eigenvector basis to have
unit row sums lands exactly on the state coordinates, up to the order in
which eigenvalues are listed.  Failure of any genericity condition along the
way is reported as NotGeneric; a successful change of basis whose result is
not a stochastic parametrization is reported as NotStochastic, which proves
the input distribution is not an HMP of this dimension.

Invertibility is tested as in genericity_report, and without reference to
the basis: |det(T0+T1)| >= DET_FLOOR * rho^e, rho the spectral radius.  For
the hidden-state M, which is stochastic, rho = 1: the test is |det M| >= 1e-10.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .finitary import FinitaryParams
from .hmp import HmpParams, determinant_check, min_pairwise_gap, stochastic_violation
from .tolerances import DEFAULT_TOLERANCES, ToleranceConfig

RECOVERED = "recovered"
NOT_GENERIC = "not_generic"
NOT_STOCHASTIC = "not_stochastic"

RESCALE_FLOOR = 1e-12        # entries of U^(-1) 1 below this block the unit-sum rescaling


@dataclass(frozen=True)
class RecoveryDiagnostics:
    eigenvalues: tuple
    min_eigenvalue_gap: float
    det_mixed: float                 # det(T0 + T1)
    max_imag: float | None = None
    max_stochastic_violation: float | None = None


@dataclass(frozen=True)
class RecoveryOutcome:
    kind: str
    params: HmpParams | None
    reason: str | None
    diagnostics: RecoveryDiagnostics


def recover_hmm(fp: FinitaryParams, tol: ToleranceConfig | None = None,
                eigenvalue_order=None) -> RecoveryOutcome:
    """Attempt the change of basis back to hidden-state coordinates.

    eigenvalue_order permutes the canonically sorted eigenvalues before the
    basis is built; every choice that succeeds yields the same parametrization
    up to state relabeling, which is exactly the ambiguity left by the model.
    """
    tol = tol or DEFAULT_TOLERANCES
    e = fp.e
    mixed = fp.t0 + fp.t1
    det_mixed, invertible = determinant_check(mixed)
    bare = RecoveryDiagnostics((), float("inf"), det_mixed)
    if not invertible:
        return RecoveryOutcome(NOT_GENERIC, None, "M not invertible", bare)
    try:
        q = fp.t0 @ np.linalg.inv(mixed)
        eigvals, eigvecs = np.linalg.eig(q)
    except np.linalg.LinAlgError as exc:
        return RecoveryOutcome(NOT_GENERIC, None, f"eigendecomposition failed: {exc}", bare)

    order = np.lexsort((eigvals.imag, eigvals.real))
    if eigenvalue_order is not None:
        order = order[np.asarray(eigenvalue_order)]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    gap = min_pairwise_gap(eigvals)
    diag = RecoveryDiagnostics(tuple(eigvals), gap, det_mixed)
    if gap < tol.eig_gap_tol:
        return RecoveryOutcome(NOT_GENERIC, None, "eigenvalues not pairwise different", diag)

    try:
        rescale = np.linalg.solve(eigvecs, np.ones(e))
    except np.linalg.LinAlgError:
        return RecoveryOutcome(NOT_GENERIC, None, "eigenvalues not pairwise different", diag)
    if np.min(np.abs(rescale)) < RESCALE_FLOOR:
        return RecoveryOutcome(NOT_GENERIC, None, "eigenvector rescaling singular", diag)
    s = eigvecs * rescale[None, :]   # S = U diag(U^-1 1), so S 1 = 1 exactly

    try:
        m = np.linalg.solve(s, mixed @ s)
    except np.linalg.LinAlgError as exc:
        return RecoveryOutcome(NOT_GENERIC, None, f"basis change failed: {exc}", diag)
    pi = s.T @ fp.x

    pieces = np.concatenate([m.ravel(), pi.ravel(), eigvals])
    max_imag = float(np.max(np.abs(pieces.imag)))
    diag = replace(diag, max_imag=max_imag)
    if max_imag > tol.tol_stochastic:
        return RecoveryOutcome(
            NOT_STOCHASTIC, None,
            f"complex entries survive (max imaginary part {max_imag:.3e})", diag)

    lam = eigvals.real
    raw = HmpParams(e, m.real, np.column_stack([lam, 1.0 - lam]), pi.real)
    violation, witness = stochastic_violation(raw)
    diag = replace(diag, max_stochastic_violation=violation)
    if violation > tol.tol_stochastic:
        return RecoveryOutcome(NOT_STOCHASTIC, None, witness, diag)

    params = HmpParams(e, np.clip(raw.transition, 0.0, 1.0), np.clip(raw.emission, 0.0, 1.0),
                       np.clip(raw.initial, 0.0, 1.0))
    return RecoveryOutcome(RECOVERED, params, None, diag)


@dataclass(frozen=True)
class GenericityReport:
    generic: bool
    det_transition: float
    min_emission_gap: float


def genericity_report(params: HmpParams, tol: ToleranceConfig | None = None) -> GenericityReport:
    """Computable genericity of a known parametrization.

    Checks the two conditions recovery relies on: invertible transition matrix
    and pairwise distinct probabilities of emitting '0'.  Rank-deficiency of
    the induced distribution is a separate matter, caught by the rank tests.
    """
    tol = tol or DEFAULT_TOLERANCES
    det, invertible = determinant_check(params.transition)
    gap = min_pairwise_gap(params.emission[:, 0].astype(complex))
    return GenericityReport(bool(invertible and gap > tol.eig_gap_tol), det, gap)
