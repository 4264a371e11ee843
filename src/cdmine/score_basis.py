"""Orthonormal score functions: polynomials in the centered mid-rank.

S1(u) = (u - 0.5) / sigma_mid has zero mean and unit variance under the
empirical measure of the pooled sample, whose inner product is
(1/n) sum_i f(u_i) g(u_i).  The higher scores are that measure's
orthonormal polynomials, built by the three-term recurrence of the
Stieltjes procedure in ``recurrence_scores``, the one basis builder.  A
basis keeps sigma_mid and its recurrence coefficients, so its curves can
be drawn on any grid by the same recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateVariable, OutOfDomain, RankDeficient
from .midrank import MidRankVector

RESIDUAL_NORM_FLOOR = 1e-10
# M, the number of score functions behind each CR: mean, variance, skewness
# and tail.
DEFAULT_M = 4


@dataclass(frozen=True)
class ScoreBasis:
    """M orthonormal score functions tied to one pooled mid-rank sample.

    score_matrix[i, k-1] = S_k(u_i).  S1 = (u - 0.5) / sigma_mid, and the
    recurrence coefficients are a[k-1] = a_k (k < M) and b[k-1] = b_k
    (k <= M).
    """

    m: int
    score_matrix: np.ndarray
    sigma_mid: float
    a: np.ndarray
    b: np.ndarray


def check_m(m, n=None):
    """The rule on the number of score functions, and with n, that no
    variable of n rows has more than n - 2 of them."""
    if m < 1:
        raise ConfigError("m must be >= 1")
    if n is not None and m > n - 2:
        raise ConfigError(
            f"m must be <= n - 2 = {n - 2}, the most scores a variable of n = {n} rows has"
        )


def build_score_basis(mid: MidRankVector, m: int = DEFAULT_M) -> ScoreBasis:
    """The m-score basis of one column's mid-ranks: the one-column case of
    ``recurrence_scores``."""
    check_m(m)
    if mid.sigma_mid <= 0.0:
        raise DegenerateVariable("constant column: sigma_mid = 0")
    n = mid.n_effective
    if n <= m + 1:
        raise RankDeficient(f"need more than {m + 1} observations for m={m}")
    s1 = (np.asarray(mid.u, dtype=float) - 0.5) / mid.sigma_mid
    scores, m_used, a, b = recurrence_scores(s1[None], np.ones((1, n)), np.array([n]), m)
    k = int(m_used[0])
    if k < m:
        norm = np.prod(b[0, : k + 1])
        raise RankDeficient(f"residual norm {norm:.3e} below {RESIDUAL_NORM_FLOOR} at score {k + 1}")
    return ScoreBasis(m=m, score_matrix=scores[:, 0].T, sigma_mid=mid.sigma_mid, a=a[0], b=b[0])


def recurrence_scores(s1, w, nj, m: int):
    """Scores S_1..S_m of q columns by the three-term recurrence

        S_{k+1} = ((S1 - a_k) S_k - b_k S_{k-1}) / b_{k+1},   S_0 = w,

    where a_k = <S1 S_k, S_k>, b_1 = 1 and b_{k+1} is the norm of the
    numerator.  s1 (q, n) is S1 of each column, zero at missing entries; w
    (q, n) is 1 at the n_j present entries and 0 elsewhere, and a column's
    inner product is (1/n_j) sum over its entries.  Returns scores (m, q,
    n), m_used (q,), a (q, m - 1) and b (q, m).  m_used is min(m, n_j - 2),
    cut before the first S_k whose residual norm b_2 ... b_k is below
    RESIDUAL_NORM_FLOOR; the scores past it are not orthonormal.
    """
    q = s1.shape[0]
    scores = np.zeros((m,) + s1.shape)
    scores[0] = s1
    a = np.zeros((q, m - 1))
    b = np.ones((q, m))
    m_used = np.minimum(m, nj - 2)
    norm = np.ones(q)
    prev = w
    for k in range(1, m):
        cur = scores[k - 1]
        v = s1 * cur - b[:, k - 1, None] * prev
        a[:, k - 1] = np.einsum("ij,ij->i", v, cur) / nj
        v -= a[:, k - 1, None] * cur
        b[:, k] = np.sqrt(np.einsum("ij,ij->i", v, v) / nj)
        norm *= b[:, k]
        m_used = np.where(norm < RESIDUAL_NORM_FLOOR, np.minimum(m_used, k), m_used)
        scores[k] = v / np.where(b[:, k] > 0.0, b[:, k], 1.0)[:, None]
        prev = cur
    return scores, m_used, a, b


def evaluate_scores(basis: ScoreBasis, u_new) -> np.ndarray:
    """Evaluate (S_1, ..., S_M) at new points in (0, 1).

    Scalar input gives a length-M vector; an array of shape (...,) gives
    shape (..., M).
    """
    arr = np.asarray(u_new, dtype=float)
    if np.any((arr <= 0.0) | (arr >= 1.0)):
        raise OutOfDomain("score functions are defined on the open interval (0, 1)")
    s1 = (arr - 0.5) / basis.sigma_mid
    vals = [np.ones_like(s1), s1]
    for k in range(1, basis.m):
        vals.append(((s1 - basis.a[k - 1]) * vals[k] - basis.b[k - 1] * vals[k - 1]) / basis.b[k])
    return np.stack(vals[1:], axis=-1)
