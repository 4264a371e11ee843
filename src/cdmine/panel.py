"""Panel-at-once CR engine: the CR components of many columns in one pass.

Every complete, tie-free column of length n has the mid-ranks (i - 1/2)/n in
some order, so all such columns share one n x M score table T.  Their label
correlations are a gather of the labels by each column's sort order and one
matmul with T.  Columns with ties or missing entries take a batched form of
the single-column path instead: ``midrank.tie_groups`` and ``mid_ranks``
give the batch's mid-ranks from one sort, then ``recurrence_scores`` builds
its scores under per-column weights 1/n_j, as both do for a single column.
Which path a column takes depends only on whether it is complete and
tie-free.

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
from .midrank import VariableColumn, mid_rank_transform, mid_ranks, tie_groups
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
    n = y.size
    present = ~cols.missing
    x = np.where(present, cols.values, np.nan)
    nj = present.sum(axis=1)
    n1 = present @ y
    bad = np.flatnonzero((nj >= 2) & (present & ~np.isfinite(x)).any(axis=1))
    if bad.size:
        raise NonFinite(f"variable {cols.names[bad[0]]!r}: non-missing NaN or infinite value")

    order, first = tie_groups(x)  # missing (NaN) entries last
    del x  # freed before the gathers below to lower the block's peak
    present_sorted = np.arange(n) < nj[:, None]
    distinct = (first & present_sorted).sum(axis=1)

    flags = np.full(len(cols), "", dtype=object)
    flags[(n1 < 2) | (nj - n1 < 2)] = "class-too-small"
    flags[distinct == 1] = "constant"
    flags[nj < 2] = "all-missing"
    ok = flags == ""
    shared = ok & (nj == n) & (distinct == n) & (grid is not None)
    views = (out.components, out.m_used, out.sigma_mid, out.a, out.b)
    comps, m_used, sigma, a, b = (v[start : start + len(cols)] for v in views)

    if shared.any():
        # Complete and tie-free: the score of the entry of rank r is T[r - 1].
        # One matmul a column, so that no other column moves its bits.
        table = grid.score_matrix
        mean_t = table.mean(axis=0)
        sd_t = np.sqrt(np.maximum((table**2).mean(axis=0) - mean_t**2, 0.0))
        pi = n1[shared, None] / n
        cov = (y[order[shared]][:, None, :] @ table)[:, 0] / n - pi * mean_t
        comps[shared] = cov / (np.sqrt(pi * (1.0 - pi)) * sd_t)
        m_used[shared] = m
        sigma[shared], a[shared], b[shared] = grid.sigma_mid, grid.a, grid.b

    masked = np.flatnonzero(ok & ~shared)
    if masked.size:
        # See the module docstring; M <= DEFAULT_M takes one run.
        run = max(1, DEFAULT_M * BLOCK_CELLS // (min(m, n - 2) * n))
        for lo in range(0, masked.size, run):
            part = masked[lo : lo + run]
            comps[part], m_used[part], sigma[part], a[part], b[part] = _masked(
                order[part], first[part], present[part], nj[part], n1[part], y, m
            )
        reduced = masked[m_used[masked] < m]
        flags[reduced] = [f"reduced-m:{k}" for k in m_used[reduced]]

    out.n_effective[start : start + len(cols)] = nj
    out.flags[start : start + len(cols)] = flags.tolist()


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
