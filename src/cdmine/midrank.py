"""Mid-rank (mid-distribution) transformation of raw data.

The mid-distribution value of an observation is F(x) - 0.5 p(x), which for a
sample reduces to (average_rank - 0.5) / n.  Ties always take average ranks,
so discrete, continuous and ordered-categorical columns go through the same
code path.  Missing entries are dropped per column (pairwise deletion).

The batched functions work in value order: ``label_order`` and
``tie_groups`` sort each row of a block with its missing cells last, and
``mid_ranks`` gives the mid-ranks in that order.  ``mid_rank_transform``
scatters one column's mid-ranks back to input order.
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
    """Map the non-missing values of a column to (avg_rank - 0.5) / n: the
    one-column case of ``tie_groups`` and ``mid_ranks``, scattered back to
    input order."""
    x = col.present()
    if x.size < 2:
        raise AllMissing(f"column {col.name!r}: fewer than 2 non-missing values")
    if not np.all(np.isfinite(x)):
        raise NonFinite(f"column {col.name!r}: non-missing NaN or infinite value")
    n = x.size
    order, first = tie_groups(x[None])
    u_sorted, sigma = mid_ranks(first, np.array([n]))
    u = np.empty(n)
    u[order[0]] = u_sorted[0]
    return MidRankVector(u=u, n_effective=n, sigma_mid=float(sigma[0]))


def tie_groups(x):
    """(order, first) of the rows of a (q, n) value matrix, NaN at missing
    cells: each row's sort order, missing cells last, and a mask that marks
    the sorted entries starting a new distinct value."""
    order = np.argsort(x, axis=1)
    # The values in that order, up to the sign of a zero, which the tie scan
    # below cannot see (-0.0 == 0.0).
    xs = np.sort(x, axis=1)
    first = np.ones(x.shape, dtype=bool)
    first[:, 1:] = xs[:, 1:] != xs[:, :-1]
    return order, first


# The int64 key of +inf with its label bit set.  Every non-NaN value's tagged
# key lies in [~_INF_KEY, _INF_KEY]; a NaN's, quiet after x + 0.0, outside.
_INF_KEY = 0x7FF0000000000001


def label_order(x, y):
    """(labels, exact) of the rows of a (q, n) value matrix, NaN (np.nan) at
    missing cells, and n 0/1 labels y.  ``x`` is overwritten: its buffer
    becomes ``labels``.

    Each value maps to an order-preserving int64 key (the bits of x + 0.0,
    so that -0.0 and +0.0 share a key, with the magnitude bits flipped when
    negative), whose last bit is then replaced by the entry's label, and
    each row's keys are sorted.  A missing cell's key lies above every
    value's, so a row's n_j present keys come first.  ``exact`` marks the
    rows whose present keys all differ above the last bit.  An exact row's
    present values are distinct and in key order, so its first n_j labels
    hold y in the order of its values as 0.0/1.0: ``y[np.argsort(row)]``,
    bit for bit.  Every other entry of ``labels`` is 0.0 or 1.0.
    """
    np.add(x, 0.0, out=x)
    k = x.view(np.int64)
    flip = k >> 63  # -1 where negative, else 0
    flip &= 0x7FFFFFFFFFFFFFFF
    k ^= flip
    del flip
    k &= -2
    k |= np.asarray(y, dtype=np.int64)
    k.sort(axis=1)
    tied = (k[:, 1:] ^ k[:, :-1]).view(np.uint64) <= 1
    exact = ~tied.any(axis=1)
    # Missing cells' keys, which sort last, tie only among themselves.
    holes = np.flatnonzero(~exact & (k[:, -1] > _INF_KEY))
    exact[holes] = ~(tied[holes] & (k[holes, :-1] <= _INF_KEY)).any(axis=1)
    del tied
    exact &= k[:, 0] >= ~_INF_KEY  # a negative NaN would sort first
    k &= 1
    k *= 0x3FF0000000000000  # the bits of 1.0
    return x, exact


def mid_ranks(first, nj):
    """(u, sigma_mid) of q rows in value order from their ``tie_groups``
    ``first`` and their counts nj >= 1 of present entries, which come first:
    u (q, n) is (average rank - 1/2) / n_j at the n_j present entries and 0
    past them."""
    q, n = first.shape
    present = np.arange(n) < nj[:, None]
    # Tie groups of the present entries: ids, sizes and average ranks.
    gid = np.cumsum(first, axis=1) - 1 + n * np.arange(q)[:, None]
    sizes = np.bincount(gid[present], minlength=n * q).reshape(q, n)
    half_rank = np.cumsum(sizes, axis=1) - sizes / 2.0  # exact: ranks are half-integers
    u = half_rank.ravel()[gid] * present
    u /= nj[:, None]
    sigma = np.sqrt(np.maximum((1.0 - (sizes**3.0).sum(axis=1) / nj**3.0) / 12.0, 0.0))
    return u, sigma
