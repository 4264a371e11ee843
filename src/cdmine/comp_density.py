"""Two-sample comparison distribution and its orthogonal-series density.

For a variable X and binary label Y, the comparison distribution is
D(u) = F1(H^{-1}(u)) where F1 is the class-1 cdf and H the pooled cdf; its
density d(u) is flat exactly when the two class distributions agree.  The
series estimate is d(u) = 1 + sum_k theta_k S_k(u) with theta_k the class-1
average of the k-th score function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyClass
from .midrank import tie_groups
from .score_basis import ScoreBasis, evaluate_scores


@dataclass(frozen=True)
class TwoSampleData:
    """Pooled mid-ranks with aligned binary labels."""

    u: np.ndarray
    y: np.ndarray
    n0: int
    n1: int
    pi_hat: float

    @classmethod
    def from_arrays(cls, u, y) -> "TwoSampleData":
        u = np.asarray(u, dtype=float)
        y = np.asarray(y, dtype=int)
        if u.shape != y.shape or u.ndim != 1:
            raise ValueError("u and y must be aligned 1-d arrays")
        if not np.all((y == 0) | (y == 1)):
            raise ValueError("labels must be coded 0/1")
        n1 = int(y.sum())
        n0 = int(y.size - n1)
        return cls(u=u, y=y, n0=n0, n1=n1, pi_hat=n1 / y.size)


def theta_hat(data: TwoSampleData, basis: ScoreBasis) -> np.ndarray:
    """Class-1 averages of each score column."""
    _require_classes(data)
    return basis.score_matrix[data.y == 1].mean(axis=0)


def estimate_cd(theta: np.ndarray, basis: ScoreBasis):
    """Return the density evaluator u -> 1 + sum_k theta_k S_k(u).

    The raw series may dip below zero; clip only for display, never before
    computing norms.
    """
    theta = np.asarray(theta, dtype=float)

    def dhat(u):
        return 1.0 + evaluate_scores(basis, u) @ theta

    return dhat


def pp_plot_points(data: TwoSampleData) -> np.ndarray:
    """(pooled cdf, class-1 cdf) at each distinct pooled value, ascending.

    A leading (0, 0) anchors linear interpolation; the last point is (1, 1).
    """
    _require_classes(data)
    order, first = tie_groups(data.u[None])
    # Distinct mid-rank levels correspond to distinct raw values in order;
    # each point is at the last entry of a level.
    ends = np.flatnonzero(np.r_[first[0, 1:], True])
    h = (ends + 1) / data.u.size
    f = np.cumsum(data.y[order[0]])[ends] / data.n1
    pts = np.column_stack([h, f])
    return np.vstack([[0.0, 0.0], pts])


def gof_norm(theta: np.ndarray) -> float:
    """Squared deviation of the series density from flat: sum of theta_k^2."""
    theta = np.asarray(theta, dtype=float)
    return float(theta @ theta)


def _require_classes(data: TwoSampleData):
    if data.n0 < 2 or data.n1 < 2:
        raise EmptyClass(f"class sizes n0={data.n0}, n1={data.n1}; need >= 2 each")
