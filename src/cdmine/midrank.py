"""Mid-rank (mid-distribution) transformation of raw data.

The mid-distribution value of an observation is F(x) - 0.5 p(x), which for a
sample reduces to (average_rank - 0.5) / n.  Ties always take average ranks,
so discrete, continuous and ordered-categorical columns go through the same
code path.  Missing entries are dropped per column (pairwise deletion).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AllMissing, NonFinite


@dataclass(frozen=True)
class VariableColumn:
    """One feature: raw values and a missing mask of equal length."""

    values: np.ndarray
    missing: np.ndarray
    name: str = ""

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        missing = np.asarray(self.missing, dtype=bool)
        if values.shape != missing.shape or values.ndim != 1:
            raise ValueError("values and missing must be 1-d arrays of equal length")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "missing", missing)

    @classmethod
    def from_values(cls, values, name: str = "") -> "VariableColumn":
        """Build a column with the missing mask inferred from NaNs."""
        values = np.asarray(values, dtype=float)
        return cls(values=values, missing=np.isnan(values), name=name)

    def present(self) -> np.ndarray:
        return self.values[~self.missing]


@dataclass(frozen=True)
class MidRankVector:
    """Mid-ranks of the non-missing entries of one column.

    sigma_mid is the standard deviation of the mid-distribution transform,
    sqrt((1/12) (1 - sum_a p_a^3)) over the distinct-value proportions p_a.
    """

    u: np.ndarray
    n_effective: int
    sigma_mid: float


def mid_rank_transform(col: VariableColumn) -> MidRankVector:
    """Map the non-missing values of a column to (avg_rank - 0.5) / n."""
    x = col.present()
    if x.size < 2:
        raise AllMissing(f"column {col.name!r}: fewer than 2 non-missing values")
    if not np.all(np.isfinite(x)):
        raise NonFinite(f"column {col.name!r}: non-missing NaN or infinite value")
    n = x.size
    # Tie groups of the sorted values: sizes in value order, and each
    # group's average rank - 1/2 (exact: ranks are half-integers).
    order = np.argsort(x)
    xs = x[order]
    starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    sizes = np.diff(np.r_[starts, n])
    half_rank = np.cumsum(sizes) - sizes / 2.0
    u = np.empty(n)
    u[order] = np.repeat(half_rank, sizes) / n
    p_hat = sizes / n
    sigma_sq = (1.0 - np.sum(p_hat**3)) / 12.0
    sigma_mid = float(np.sqrt(max(sigma_sq, 0.0)))
    return MidRankVector(u=u, n_effective=n, sigma_mid=sigma_mid)

