"""Orthonormal score functions built from powers of the centered mid-rank.

S1(u) = (u - 0.5) / sigma_mid has zero mean and unit variance under the
empirical measure of the pooled sample.  Higher scores come from
Gram-Schmidt on S1^2, ..., S1^M with the empirical inner product
(1/n) sum_i f(u_i) g(u_i), orthogonalized against the constant as well.
A second orthogonalization pass keeps the Gram matrix near identity for
M up to 6.  Each score is also carried as a polynomial in u so curves can
be drawn on an arbitrary grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import ConfigError, DegenerateVariable, OutOfDomain, RankDeficient
from .midrank import MidRankVector

RESIDUAL_NORM_FLOOR = 1e-10
# M, the number of score functions behind each CR: mean, variance, skewness
# and tail.
DEFAULT_M = 4


@dataclass(frozen=True)
class ScoreBasis:
    """M orthonormal score functions tied to one pooled mid-rank sample.

    score_matrix[i, k-1] = S_k(u_i); poly_coeffs[k-1] holds the ascending
    polynomial coefficients of S_k in the variable u (degree <= M).
    """

    m: int
    score_matrix: np.ndarray
    poly_coeffs: np.ndarray


def check_m(m):
    """The rule on the number of score functions."""
    if m < 1:
        raise ConfigError("m must be >= 1")


def build_score_basis(mid: MidRankVector, m: int = DEFAULT_M) -> ScoreBasis:
    check_m(m)
    if mid.sigma_mid <= 0.0:
        raise DegenerateVariable("constant column: sigma_mid = 0")
    if mid.n_effective <= m + 1:
        raise RankDeficient(f"need more than {m + 1} observations for m={m}")
    basis, norm = _orthonormalize(mid, m)
    if basis.m < m:
        raise RankDeficient(
            f"residual norm {norm:.3e} below {RESIDUAL_NORM_FLOOR} at score {basis.m + 1}"
        )
    return basis


def feasible_score_basis(mid: MidRankVector, m: int) -> ScoreBasis | None:
    """The largest basis build_score_basis can deliver with at most m scores.

    That is the first min(m, n - 2) scores, cut before the first whose
    residual norm falls below RESIDUAL_NORM_FLOOR; None when no score is
    left or the column is constant.
    """
    m = min(m, mid.n_effective - 2)
    if m < 1 or mid.sigma_mid <= 0.0:
        return None
    return _orthonormalize(mid, m)[0]


def _orthonormalize(mid: MidRankVector, m: int):
    """(basis, residual norm): Gram-Schmidt up to m scores, stopping before
    the first score whose residual norm is below the floor."""
    n = mid.n_effective
    u = np.asarray(mid.u, dtype=float)
    s1 = (u - 0.5) / mid.sigma_mid
    s1_poly = np.zeros(m + 1)
    s1_poly[0] = -0.5 / mid.sigma_mid
    s1_poly[1] = 1.0 / mid.sigma_mid

    cols = np.empty((n, m))
    polys = np.zeros((m, m + 1))
    # First score is S1 itself: exactly zero-mean, unit-variance by the
    # mid-rank mean/variance identities.
    cols[:, 0] = s1
    polys[0] = s1_poly

    norm = 1.0
    for k in range(2, m + 1):
        v = s1**k
        poly = _pad(P.polypow(s1_poly[:2], k), m + 1)
        for _ in range(2):  # re-orthogonalization pass
            mean = v.mean()
            v = v - mean
            poly = poly.copy()
            poly[0] -= mean
            for j in range(k - 1):
                c = cols[:, j] @ v / n
                v = v - c * cols[:, j]
                poly = poly - c * polys[j]
        norm = np.sqrt(v @ v / n)
        if norm < RESIDUAL_NORM_FLOOR:
            m = k - 1
            cols, polys = cols[:, :m], polys[:m, : m + 1]
            break
        cols[:, k - 1] = v / norm
        polys[k - 1] = poly / norm

    return ScoreBasis(m=m, score_matrix=cols, poly_coeffs=polys), norm


def evaluate_scores(basis: ScoreBasis, u_new) -> np.ndarray:
    """Evaluate (S_1, ..., S_M) at new points in (0, 1).

    Scalar input gives a length-M vector; an array of shape (...,) gives
    shape (..., M).
    """
    arr = np.asarray(u_new, dtype=float)
    if np.any((arr <= 0.0) | (arr >= 1.0)):
        raise OutOfDomain("score functions are defined on the open interval (0, 1)")
    vals = np.stack([P.polyval(arr, c) for c in basis.poly_coeffs], axis=-1)
    return vals


def _pad(coeffs: np.ndarray, length: int) -> np.ndarray:
    out = np.zeros(length)
    out[: len(coeffs)] = coeffs
    return out
