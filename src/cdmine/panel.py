"""Panel-at-once CR engine: the CR components of many columns in one pass.

A column's CR outputs depend only on the order of its values and on its
labels (the mid-distribution), so the engine works in value order alone.
``midrank.label_order`` puts each entry's label in the last bit of its
double and sorts a whole block once as doubles.  A row whose present keys
(the bits above the label bit) all differ is exact: its labels come out in
value order, with its n_j present entries first.  A sign-blind screen of
sorted neighbours sends the rare rows that straddle zero or hold x next to
-x to a second, int64 sort; only the rows with a tie (real ties, both
zeros, or two values one ulp apart) also take ``midrank.tie_groups``, one
argsort and one sort, and their labels are gathered by its order.  Only rows with
a missing cell count n_j and their class-1 labels, and a non-finite
present value is read off each row's first and n_j-th sorted entries.

Complete, tie-free columns of length n have the mid-ranks (i - 1/2)/n, so
they share one n x M score table T, from ``grid_scores``.  Their label
correlations take one matmul a column with T.  Every other column takes
the batched masked path in value order: ``mid_ranks`` gives its mid-ranks
from its tie-group starts, and ``recurrence_scores`` its scores under
per-column weights 1/n_j.  T is that path's one-column case.  Which path a
column takes depends on that column alone.

The panel is a ``ColumnMatrix``: one (p, n) value matrix and its missing
mask.  Columns are processed in blocks of BLOCK_CELLS // n rows of it, so
each (q, n) temporary of a block holds about BLOCK_CELLS values (1 MB)
whatever n is; whether the heap keeps them for the next block or gives
them back to the OS is up to glibc.  A block's values and mask are slices
of the matrix.  The masked path's (k, q, n) scores, k = min(M, n - 2), are
built for runs of at most DEFAULT_M * BLOCK_CELLS // (k * n) columns, so
they never hold more than the whole block's at the default M.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cr import label_correlations
from .dataset import ColumnMatrix
from .errors import NonFinite
from .midrank import label_order, mid_ranks, tie_groups
from .score_basis import DEFAULT_M, ScoreBasis, check_m, recurrence_scores

# Cells (columns x rows) of one block; see the module docstring.
BLOCK_CELLS = 2**17


@dataclass(frozen=True)
class PanelCr:
    """Per-column results of one panel, in input order."""

    components: np.ndarray  # (p, m): R_1..R_m, zero past m_used
    n_effective: np.ndarray  # (p,) non-missing count
    m_used: np.ndarray  # (p,) scores behind each CR, 0 for a flagged column
    flags: list  # "" or the flag of each column
    # Each column's basis (see ScoreBasis), zero past m_used and when flagged:
    sigma_mid: np.ndarray  # (p,)
    a: np.ndarray  # (p, m - 1) recurrence coefficients a_k
    b: np.ndarray  # (p, m) recurrence coefficients b_k


def grid_scores(n: int, m: int) -> ScoreBasis | None:
    """The m-score basis of the mid-rank grid (i - 1/2)/n, which every
    complete, tie-free column of length n shares: the masked path's scores
    of one such column.  None when the grid has fewer than m scores."""
    if n < m + 2:
        return None
    scores, m_used, sigma, a, b = _masked_scores(np.ones((1, n), dtype=bool), np.array([n]), m)
    if m_used[0] < m:
        return None
    return ScoreBasis(m=m, score_matrix=scores[:, 0].T, sigma_mid=float(sigma[0]), a=a[0], b=b[0])


def panel_cr(variables: ColumnMatrix, labels, m: int) -> PanelCr:
    """CR components with up to m >= 1 scores of every column of the
    ``ColumnMatrix`` ``variables``.

    Complete, tie-free columns take the shared ``grid_scores`` table; the
    other columns, and all of them when the table has fewer than m scores,
    take the masked path.  A non-missing NaN or infinite value in a column
    with at least two non-missing entries raises NonFinite naming it.
    """
    check_m(m)
    y = np.asarray(labels)
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("labels must be coded 0/1")
    y = y.astype(float)
    grid = grid_scores(y.size, m)
    p = len(variables)
    out = PanelCr(
        components=np.zeros((p, m)),
        n_effective=np.zeros(p, dtype=int),
        m_used=np.zeros(p, dtype=int),
        flags=[""] * p,
        sigma_mid=np.zeros(p), a=np.zeros((p, m - 1)), b=np.zeros((p, m)),
    )
    step = max(1, BLOCK_CELLS // y.size)
    for start in range(0, p, step):
        _block(variables[start : start + step], y, m, grid, out, start)
    return out


def _block(cols, y, m, grid, out, start):
    n, q = y.size, len(cols)
    # Every row in value order, NaN at missing cells sorting last: the
    # labels ys, and the entries that start a new distinct value.  Only
    # rows with a missing cell count their present entries.
    x = np.add(cols.values, 0.0)  # a copy with -0.0 made +0.0
    nj, n1 = np.full(q, n), np.full(q, y.sum())
    holes = np.flatnonzero(cols.missing.any(axis=1))
    if holes.size:
        present = ~cols.missing[holes]
        nj[holes], n1[holes] = present.sum(axis=1), present @ y
        x[holes] = np.where(present, x[holes], np.nan)
    ys, exact, finite = label_order(x, y, nj)
    bad = np.flatnonzero((nj >= 2) & ~finite)
    if bad.size:
        raise NonFinite(f"variable {cols.names[bad[0]]!r}: non-missing NaN or infinite value")
    first = np.ones((q, n), dtype=bool)
    distinct = nj.copy()
    slow = np.flatnonzero(~exact)
    if slow.size:
        order, first[slow] = tie_groups(np.where(cols.missing[slow], np.nan, cols.values[slow]))
        ys[slow] = y[order]
        del order
        distinct[slow] = (first[slow] & (np.arange(n) < nj[slow, None])).sum(axis=1)

    flags = np.full(q, "", dtype=object)
    flags[(n1 < 2) | (nj - n1 < 2)] = "class-too-small"
    flags[distinct == 1] = "constant"
    flags[nj < 2] = "all-missing"
    ok = flags == ""
    shared = ok & (distinct == n) & (grid is not None)
    comps, m_used, sigma, a, b = views = [
        v[start : start + q] for v in (out.components, out.m_used, out.sigma_mid, out.a, out.b)
    ]
    if shared.any():
        _shared(shared, ys if shared.all() else ys[shared], n1, grid, views)
    masked = np.flatnonzero(ok & ~shared)
    if masked.size:
        # See the module docstring; M <= DEFAULT_M takes one run.
        run = max(1, DEFAULT_M * BLOCK_CELLS // (min(m, n - 2) * n))
        for lo in range(0, masked.size, run):
            rows = masked[lo : lo + run]
            comps[rows], m_used[rows], sigma[rows], a[rows], b[rows] = _masked(
                first[rows], ys[rows], nj[rows], n1[rows], m
            )
        reduced = masked[m_used[masked] < m]
        flags[reduced] = [f"reduced-m:{k}" for k in m_used[reduced]]

    out.n_effective[start : start + q] = nj
    out.flags[start : start + q] = flags.tolist()


def _shared(rows, ys, n1, grid, views):
    """Fill ``views`` (components, m_used, sigma_mid, a, b) at ``rows`` of
    complete, tie-free columns from ys, their labels in value order: the
    entry of rank r takes the score T[r - 1] of the grid's table T.  One
    matmul a column, so that no other column moves its bits."""
    comps, m_used, sigma, a, b = views
    table = grid.score_matrix
    n, m = table.shape
    mean_t = table.mean(axis=0)
    sd_t = np.sqrt(np.maximum((table**2).mean(axis=0) - mean_t**2, 0.0))
    pi = n1[rows, None] / n
    cov = (ys[:, None, :] @ table)[:, 0] / n - pi * mean_t
    comps[rows] = cov / (np.sqrt(pi * (1.0 - pi)) * sd_t)
    m_used[rows] = m
    sigma[rows], a[rows], b[rows] = grid.sigma_mid, grid.a, grid.b


def _masked(first, ys, nj, n1, m):
    """Components (q, m), m_used, sigma_mid, a and b, as in PanelCr, of q
    non-degenerate columns in value order: ``first`` marks the entries that
    start a new distinct value, ys holds the labels, and each column's n_j
    present entries come first."""
    # No column has more than n_j - 2 scores; what lies past them is zeroed.
    k = min(m, int(nj.max()) - 2)
    scores, m_used, sigma, a, b = _masked_scores(first, nj, k)
    r, keep = label_correlations(scores, ys, nj, n1), np.arange(m) < m_used[:, None]
    comps, a, b = (np.where(kept, np.pad(v, ((0, 0), (0, m - k))), 0.0)
                   for v, kept in ((r.T, keep), (a, keep[:, 1:]), (b, keep)))
    return comps, m_used, sigma, a, b


def _masked_scores(first, nj, m):
    """Scores (m, q, n), m_used, sigma_mid, a and b of q columns in value
    order, each with its n_j present entries first and ``first`` marking
    the entries that start a new distinct value.  The scores are zero past
    the n_j present entries, and the first m_used of each column are
    orthonormal under weights 1/n_j."""
    u, sigma = mid_ranks(first, nj)
    w = (np.arange(first.shape[1]) < nj[:, None]).astype(float)
    s1 = (u - 0.5) / sigma[:, None] * w
    scores, m_used, a, b = recurrence_scores(s1, w, nj, m)
    return scores, m_used, sigma, a, b
