"""Finite Hankel blocks of a string distribution and their numerical rank.

The block P_{p,m,k} is a read-only array with one row per string v with
len(v) <= m, one column per string w with len(w) <= k, and entry p(vw).
Strings are ordered shortest first, lexicographically within a length, empty
string first: the rows are labelled by strings_up_to(m) and the columns by
strings_up_to(k).  So P_{p,m,k} is the leading (2^(m+1)-1) x (2^(k+1)-1)
corner of any larger block, and row r followed by symbol a is row 2r+1+a.
Each (lv, lw) sub-block is the length-(lv+lw) marginal reshaped to
2^lv x 2^lw, since the concatenation index is iv * 2^lw + iw, and a dense
block is filled from these pieces.  Every block is read from the list
distribution.marginals returns, so one pass over the table serves every
block a caller builds, and entries of one length are the same bits in every
block: hankel_block(marginals(dist), m, k).  The rank of
these blocks is what separates processes generated by a small hidden state
space from everything else, so rank estimation carries a confidence flag: a
singular value sitting close to the cut means the decision should not be
trusted either way.  numerical_rank takes the full spectrum.  sketched_rank
answers the question a decision about at most cap states asks: the rank up
to cap + 1, with the band tested on sigma_1..sigma_(cap+1) only.  It proves
that answer from a seeded sketch when it can (a residual bound at rank at
most cap + 1, the Frobenius norm above the cap), and otherwise reads
numerical_rank's spectrum the same way.  Every shorter column group of a
block is its length-k group with columns summed in pairs, so
sketched_block_rank sketches P_{p,m,k} = T E_k: row group lv of T is the
length-(lv+k) marginal reshaped to 2^lv x 2^k, and E_k adds each length-k
column into its k + 1 prefixes.  The sketch reads T, half the block, and the
norm sums the marginals; only the exact fallback materialises the block.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LengthError, RankDeficientError, check_order
from .tolerances import DEFAULT_TOLERANCES, ToleranceConfig

EXACT_MAX_SIDE = 31                           # up to this short side the full SVD is the faster
_ROUNDING = 64 * float(np.finfo(float).eps)   # per sqrt(column) and unit of sigma_max
_CHUNK = 2 ** 16                              # entries per residual chunk, 512 KB: cache-sized


@dataclass(frozen=True)
class RankReport:
    """Rank at the cut and whether it is confident; from sketched_rank, a
    rank above cap is cap + 1.  singular_values is the whole spectrum, except
    in a report sketched_rank certified from its sketch: there it is the
    cap + 2 lower brackets sigma(Q^T A) of the leading singular values, of a
    rank at most cap + 1 or of a rank above the cap."""
    rank: int
    singular_values: np.ndarray
    confident: bool


def hankel_block(margs: list, m: int, k: int) -> np.ndarray:
    """Read-only block of all p(vw) with len(v) <= m, len(w) <= k, filled from
    margs = marginals(dist), the marginals of lengths 0..n."""
    if not isinstance(margs, list) or any(np.shape(a) != (2 ** i,) for i, a in enumerate(margs)):
        raise LengthError("hankel_block reads the list of marginals(dist), lengths 0..n")
    check_order("m", m, 0, len(margs) - 1)
    check_order("k", k, 0, len(margs) - 1 - m)   # m + k <= n
    data = np.empty((2 ** (m + 1) - 1, 2 ** (k + 1) - 1))
    for lv in range(m + 1):
        for lw in range(k + 1):
            data[2 ** lv - 1:2 ** (lv + 1) - 1, 2 ** lw - 1:2 ** (lw + 1) - 1] = \
                margs[lv + lw].reshape(2 ** lv, 2 ** lw)
    data.setflags(write=False)
    return data


def corner(block: np.ndarray, m: int, k: int) -> np.ndarray:
    """The entries of P_{p,m,k}, sliced out of any block at least that large."""
    return block[:2 ** (m + 1) - 1, :2 ** (k + 1) - 1]


def numerical_rank(matrix, tol: ToleranceConfig | None = None) -> RankReport:
    """Thresholded SVD rank with a borderline-detection band.

    rank counts singular values above tau = rel_rank_tol * sigma_max; the
    report is confident unless some singular value falls inside
    [tau/gap_ratio, tau*gap_ratio], in which case a slightly different
    tolerance would have changed the answer.
    """
    tol = tol or DEFAULT_TOLERANCES
    a = np.asarray(matrix, dtype=float)
    if a.size == 0:
        raise LengthError("rank of an empty matrix is undefined here")
    return _rank_at_cut(np.linalg.svd(a, compute_uv=False), tol)


def _rank_at_cut(sigma: np.ndarray, tol: ToleranceConfig, cap: int | None = None) -> RankReport:
    """The rank and band test of numerical_rank on a spectrum; with a cap, only
    sigma_1..sigma_(cap+1) are counted and tested, so a rank above cap is cap + 1."""
    sigma_max = float(sigma[0])
    if sigma_max == 0.0:
        return RankReport(0, sigma, True)
    tau = tol.rel_rank_tol * sigma_max
    head = sigma if cap is None else sigma[:cap + 1]
    rank = int(np.count_nonzero(head > tau))
    borderline = np.any((head >= tau / tol.gap_ratio) & (head <= tau * tol.gap_ratio))
    return RankReport(rank, sigma, not bool(borderline))


def sketched_rank(matrix, cap: int, tol: ToleranceConfig | None = None) -> RankReport:
    """numerical_rank's (rank, confident) up to cap + 1, certified from a sketch.

    Only sigma_1..sigma_(cap+1) can move a decision about at most cap states,
    so this answers numerical_rank with its band tested on those alone and a
    rank above cap reported as cap + 1.  For rank at most cap that is
    numerical_rank's answer itself.  A seeded Gaussian range finder without
    power steps (Halko, Martinsson and Tropp 2011, Alg. 4.1) takes l = cap + 2
    columns: Q = qr(A Omega), B = Q^T A, s = sigma(B), and s_i <= sigma_i(A).
    Two certificates read s:

    - above the cap: sigma_max <= ||A||_F, so s_(cap+1) > gap_ratio *
      rel_rank_tol * ||A||_F puts sigma_1..sigma_(cap+1) above the band for
      every tau, and the report is cap + 1, confident;
    - at rank r <= cap + 1, with r = #(s > gap_ratio * rel_rank_tol * s_1):
      with rho >= ||A - Q B||_F, Weyl's inequality gives s_i <= sigma_i(A) <=
      s_i + rho, and sigma_i(A) <= rho for i >= l, so tau is bracketed too.
      The report is r, confident, when for every tau in its bracket the first
      r singular values lie above gap_ratio * tau and all others below
      tau / gap_ratio.

    Both carry a fixed rounding allowance, far below the band, so the rounding
    of the exact SVD cannot move its answer either.  A certified report's
    singular_values are the l lower brackets s, not the whole spectrum.  The
    sketch reads A = T E as its row groups T and a column map E: A Omega =
    T (E Omega), Q^T A = (Q^T T) E, and ||A - Q B||_F = ||(T - Q Q^T T) E||_F
    summed over row chunks of T; a dense matrix is the one-group case with E
    the identity.  Every other block (short side at most EXACT_MAX_SIDE or l,
    a failed certificate) is materialised and gets numerical_rank, read up to
    cap + 1 the same way.
    """
    a = np.asarray(matrix, dtype=float)
    return _sketched([a], 0, float(np.vdot(a, a)), lambda: a, cap, tol)


def sketched_block_rank(margs: list, m: int, k: int, cap: int,
                        tol: ToleranceConfig | None = None) -> RankReport:
    """sketched_rank of P_{p,m,k} = T E_k, read from margs = marginals(dist):
    row group lv of T is the length-(lv+k) marginal reshaped to 2^lv x 2^k,
    and E_k adds each length-k column into the columns of its k + 1 prefixes,
    so the column halvings of T are the shorter column groups of the block.
    Only the exact fallback builds the block."""
    groups = [margs[lv + k].reshape(2 ** lv, 2 ** k) for lv in range(m + 1)]
    # ||P||_F^2: the length-L marginal fills one sub-block per lv + lw = L
    norm2 = sum((min(length, m, k, m + k - length) + 1) * float(np.vdot(margs[length], margs[length]))
                for length in range(m + k + 1))
    return _sketched(groups, k, norm2, lambda: hankel_block(margs, m, k), cap, tol)


def _halvings(x: np.ndarray, count: int) -> list:
    """x and its first count column halvings, each x[:, 0::2] + x[:, 1::2] of the last."""
    out = [x]
    for _ in range(count):
        out.append(out[-1][:, 0::2] + out[-1][:, 1::2])
    return out


def _sketched(groups: list, halvings: int, norm2: float, dense, cap: int,
              tol: ToleranceConfig | None) -> RankReport:
    """sketched_rank of A = T E: T is the row groups stacked, and E puts the
    columns of T after its halvings, shortest first (the identity at 0
    halvings); norm2 is ||A||_F^2, and dense() builds A for the exact fallback."""
    check_order("cap", cap, 1)
    tol = tol or DEFAULT_TOLERANCES
    sketch = cap + 2
    width = groups[0].shape[1]
    sizes = [width >> j for j in range(halvings, -1, -1)]   # column groups of A, shortest first
    if min(sum(map(len, groups)), sum(sizes)) > max(EXACT_MAX_SIDE, sketch):
        omega = np.split(np.random.default_rng(0).standard_normal((sum(sizes), sketch)),
                         np.cumsum(sizes)[:-1])
        e_omega = omega[0]
        for part in omega[1:]:   # row x of E Omega sums the rows of x's prefixes
            e_omega = np.repeat(e_omega, 2, axis=0) + part
        y = np.vstack([t @ e_omega for t in groups])
        q = np.split(np.linalg.qr(y)[0], np.cumsum(list(map(len, groups)))[:-1])   # as T's groups
        c = sum(qt.T @ t for qt, t in zip(q, groups))
        s = np.linalg.svd(np.hstack(_halvings(c, halvings)[::-1]), compute_uv=False)
        top = float(s[0])
        hi, lo = tol.gap_ratio * tol.rel_rank_tol, tol.rel_rank_tol / tol.gap_ratio
        rank = int(np.count_nonzero(s > hi * top))
        allowance = _ROUNDING * math.sqrt(sum(sizes)) * top
        if rank > cap and s[cap] - allowance > hi * math.sqrt(norm2):
            return RankReport(cap + 1, s, True)
        if rank < sketch:   # a full-rank sketch brackets nothing below it
            residual2, step = 0.0, max(1, _CHUNK // width)
            for qt, t in zip(q, groups):   # ||(T - Q C) E||_F^2, chunk by chunk
                for r in range(0, len(t), step):
                    part = qt[r:r + step] @ c
                    part -= t[r:r + step]
                    residual2 += sum(float(np.vdot(x, x)) for x in _halvings(part, halvings))
            rho = math.sqrt(residual2) + allowance
            # r = 0 only when s = 0, and then s[r - 1] = s[-1] = 0 fails the first test
            if s[rank - 1] - rho > hi * (top + rho) and s[rank] + rho < lo * top:
                return RankReport(rank, s, True)
    return _rank_at_cut(numerical_rank(dense(), tol).singular_values, tol, cap)


def select_basis(data, e: int, tol: ToleranceConfig | None = None):
    """Top-e singular triple (U, sigma, R) of a block, so data ~ U diag(sigma) R.

    Inference divides by sigma, so the triple is refused when sigma_e falls to
    the relative cut numerical_rank uses: the block has no rank-e part to
    project onto.
    """
    check_order("e", e, 1)
    tol = tol or DEFAULT_TOLERANCES
    u, sigma, r = np.linalg.svd(np.asarray(data, dtype=float), full_matrices=False)
    if len(sigma) < e or sigma[e - 1] <= tol.rel_rank_tol * sigma[0]:
        raise RankDeficientError(f"no rank-{e} part above the relative cut "
                                 f"{tol.rel_rank_tol}: singular values {sigma[:e]}")
    return u[:, :e], sigma[:e], r[:e]
