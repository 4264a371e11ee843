"""Mid-rank (mid-distribution) transformation of raw data.

The mid-distribution value of an observation is F(x) - 0.5 p(x), which for a
sample reduces to (average_rank - 0.5) / n.  Ties always take average ranks,
so discrete, continuous and ordered-categorical columns go through the same
code path.  Missing entries are dropped per column (pairwise deletion).

The batched functions work in value order: ``label_order`` (a float sort
of label-tagged doubles) and ``tie_groups`` sort each row of a block with
its missing cells last, and ``mid_ranks`` gives the mid-ranks in that
order.  ``mid_rank_transform`` scatters one column's mid-ranks back to
input order.
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


def label_order(x, y, nj):
    """(labels, exact, finite) of the rows of a (q, n) matrix x of values
    + 0.0 (no -0.0), NaN (np.nan) at missing cells, with nj present cells
    a row, and n 0/1 labels y.  ``x`` is overwritten: its buffer becomes
    ``labels``.

    Each entry's label replaces the last bit of its double, and each row is
    sorted as doubles, so its n_j present entries come first.  The tag keeps
    the order of values whose keys (the bits above the last) differ, except
    that -5e-324 labelled 0 tags to -0.0, which sorts on either side of a
    +0.0.  ``exact`` marks the rows whose present keys all differ: a
    sign-blind screen finds every sorted neighbour pair with equal bits 1 to
    62, and only rows where such a pair straddles zero or is x and -x, with
    no tie, have their tagged bits sorted again as int64.  An exact row's
    first n_j labels hold y in the order of its values as 0.0/1.0, bit for
    bit; every other entry of ``labels`` is 0.0 or 1.0.  ``finite`` marks
    the rows whose first and n_j-th sorted entries are finite, as all their
    present values are then: -inf sorts first, +inf labelled 0 last of the
    non-NaN entries, and a NaN (also +-inf labelled 1) past the n_j-th.
    """
    q, n = x.shape
    k = x.view(np.int64)
    k &= -2
    k |= np.asarray(y, dtype=np.int64)
    x.sort(axis=1)
    finite = np.isfinite(x[:, 0]) & np.isfinite(x[np.arange(q), np.maximum(nj - 1, 0)])
    # Neighbours' XOR in one flat pass; the last column pairs two rows.
    d = np.empty((q, n), dtype=np.int64)
    np.bitwise_xor(k.ravel()[1:], k.ravel()[:-1], out=d.reshape(-1)[:-1])
    d[:, -1] = -1
    d = d.view(np.uint64)
    d <<= 1
    near = np.flatnonzero(d.min(axis=1) <= 2)
    del d
    exact = np.ones(q, dtype=bool)
    if near.size:
        # Pairs of missing cells' NaNs, which sort last, are no tie.
        pairs = np.arange(n - 1) < nj[near, None] - 1
        d = (k[near, 1:] ^ k[near, :-1]).view(np.uint64)
        screened = (((d << 1) <= 2) & pairs).any(axis=1)
        exact[near] = ~screened
        # No tie, but a pair across zero or x next to -x: as int64, the
        # bits that share a key are neighbours, and NaNs still sort last.
        again = screened & ~((d <= 1) & pairs).any(axis=1)
        ka = np.sort(k[near[again]], axis=1)
        tied = ((ka[:, 1:] ^ ka[:, :-1]).view(np.uint64) <= 1) & pairs[again]
        exact[near[again]] = ~tied.any(axis=1)
    k &= 1
    k *= 0x3FF0000000000000  # the bits of 1.0
    return x, exact, finite


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
