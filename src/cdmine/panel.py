"""Panel-at-once CR engine: the CR components of many columns in one pass.

Every complete, tie-free column of length n has the mid-ranks (i - 1/2)/n in
some order, so all such columns share one n x M score table T.  Their label
correlations need only each column's labels in value order, and one matmul
with T.  ``midrank.label_order`` gives those labels from one int64 sort of
label-tagged keys of the whole block, for the columns whose keys all differ
above the label bit.  The other columns (incomplete, tied, holding both
zeros or two values one ulp apart) and every column when n is too short for
T take ``midrank.tie_groups``: one argsort and one sort.  Those of them that
are complete and tie-free after all take T with the labels gathered by their
sort order; the rest take a batched form of the single-column path, where
``mid_ranks`` gives their mid-ranks and ``recurrence_scores`` builds their
scores under per-column weights 1/n_j, as both do for a single column.
Which path a column takes depends on that column alone, and both routes to T
give the same bits.

The panel is a ``ColumnMatrix``: one (p, n) value matrix and its missing
mask.  Columns are processed in blocks of BLOCK_CELLS // n rows of it, so
each (q, n) temporary of a block holds about BLOCK_CELLS values (1 MB)
whatever n is.  At that size the heap reuses a block's temporaries for the
next block, rather than returning them to the OS and faulting them in
again.  A block's values and mask are slices of the matrix.  The masked
path's (k, q, n) scores, k = min(M, n - 2), are built for runs of at most
DEFAULT_M * BLOCK_CELLS // (k * n) columns, so they never hold more than
the whole block's at the default M.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cr import label_correlations
from .dataset import ColumnMatrix
from .errors import NonFinite
from .midrank import VariableColumn, label_order, mid_rank_transform, mid_ranks, tie_groups
from .score_basis import DEFAULT_M, ScoreBasis, check_m, feasible_score_basis, recurrence_scores

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
    complete, tie-free column of length n shares; None when the grid has
    fewer than m scores."""
    if n < m + 2:
        return None
    grid = mid_rank_transform(VariableColumn.from_values(np.arange(float(n))))
    basis = feasible_score_basis(grid, m)
    return basis if basis is not None and basis.m == m else None


def panel_cr(variables: ColumnMatrix, labels, m: int) -> PanelCr:
    """CR components with up to m >= 1 scores of every column of the
    ``ColumnMatrix`` ``variables``.

    Complete, tie-free columns take the shared ``grid_scores`` table, or
    the masked path when it has fewer than m scores.  A non-missing NaN or
    infinite value in a column with at least two non-missing entries raises
    NonFinite naming it.
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
    present = ~cols.missing
    nj = present.sum(axis=1)
    n1 = present @ y
    bad = np.flatnonzero((nj >= 2) & (present & ~np.isfinite(cols.values)).any(axis=1))
    if bad.size:
        raise NonFinite(f"variable {cols.names[bad[0]]!r}: non-missing NaN or infinite value")

    flags = np.full(q, "", dtype=object)
    flags[(n1 < 2) | (nj - n1 < 2)] = "class-too-small"
    views = [v[start : start + q] for v in (out.components, out.m_used, out.sigma_mid, out.a, out.b)]

    clean = np.zeros(q, dtype=bool)
    if grid is not None:
        labels, clean = label_order(np.where(present, cols.values, np.nan), y)
        shared = clean & (flags == "")
        if shared.any():
            _shared(shared, labels if shared.all() else labels[shared], n1, grid, views)
        del labels  # freed before the other rows' sorts below

    # The other rows: their tie groups, then the shared table for those that
    # are complete and tie-free after all (values one ulp apart).
    slow = np.flatnonzero(~clean)
    if slow.size:
        order, first = tie_groups(np.where(present[slow], cols.values[slow], np.nan))
        distinct = (first & (np.arange(n) < nj[slow, None])).sum(axis=1)
        slow_flags = flags[slow]
        slow_flags[distinct == 1] = "constant"
        slow_flags[nj[slow] < 2] = "all-missing"
        flags[slow] = slow_flags
        ok = slow_flags == ""
        tie_free = ok & (nj[slow] == n) & (distinct == n) & (grid is not None)
        if tie_free.any():
            _shared(slow[tie_free], y[order[tie_free]], n1, grid, views)
        masked = np.flatnonzero(ok & ~tie_free)  # positions in slow
        if masked.size:
            comps, m_used, sigma, a, b = views
            # See the module docstring; M <= DEFAULT_M takes one run.
            run = max(1, DEFAULT_M * BLOCK_CELLS // (min(m, n - 2) * n))
            for lo in range(0, masked.size, run):
                part = masked[lo : lo + run]
                rows = slow[part]
                comps[rows], m_used[rows], sigma[rows], a[rows], b[rows] = _masked(
                    order[part], first[part], present[rows], nj[rows], n1[rows], y, m
                )
            reduced = slow[masked][m_used[slow[masked]] < m]
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


def _masked(order, first, present, nj, n1, y, m):
    """Components (q, m), m_used, sigma_mid, a and b, as in PanelCr, of q
    non-degenerate columns with ties or missing entries.  ``first`` marks, in
    each column's sort order, the entries that start a new distinct value."""
    # No column has more than n_j - 2 scores; what lies past them is zeroed.
    k = min(m, int(nj.max()) - 2)
    scores, m_used, sigma, a, b = _masked_scores(order, first, present, nj, k)
    r, keep = label_correlations(scores, y, nj, n1), np.arange(m) < m_used[:, None]
    comps, a, b = (np.where(kept, np.pad(v, ((0, 0), (0, m - k))), 0.0)
                   for v, kept in ((r.T, keep), (a, keep[:, 1:]), (b, keep)))
    return comps, m_used, sigma, a, b


def _masked_scores(order, first, present, nj, m):
    """Scores (m, q, n), zero at missing entries, m_used, sigma_mid, a and b of
    q columns; the first m_used scores of each are orthonormal under weights 1/n_j."""
    u, sigma = mid_ranks(order, first, nj)
    w = present.astype(float)
    s1 = (u - 0.5) / sigma[:, None] * w
    scores, m_used, a, b = recurrence_scores(s1, w, nj, m)
    return scores, m_used, sigma, a, b
