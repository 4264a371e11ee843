"""The CR statistic: squared label/score correlations, chi-square p-values,
ranking and impact-type categorization."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc

from .comp_density import TwoSampleData
from .errors import DegenerateVariable
from .score_basis import ScoreBasis

CATEGORY_BY_COMPONENT = {1: "mean", 2: "variance", 3: "skewness", 4: "tail"}


@dataclass(frozen=True)
class CrResult:
    components: np.ndarray  # R_1 .. R_M
    cr: float
    pvalue: float
    category: str
    n_effective: int
    variable_id: str = ""
    flag: str = ""  # nonempty for degenerate/reduced columns


def component_correlations(data: TwoSampleData, basis: ScoreBasis) -> np.ndarray:
    """Sample correlation of the label with each score column: the
    one-column case of ``label_correlations``."""
    if data.pi_hat * (1.0 - data.pi_hat) == 0.0:
        raise DegenerateVariable("labels are constant")
    scores = basis.score_matrix.T[:, None, :]
    return label_correlations(scores, data.y.astype(float), data.y.size, data.n1)[:, 0]


def label_correlations(scores, y, nj, n1) -> np.ndarray:
    """Sample correlations (k, q) of the 0/1 labels y, (n,) or one row (q,
    n) a column, with the scores (k, q, n) of q columns, zero at a column's
    missing entries, each from its own dot products.  A column has nj
    present entries, n1 of them labelled 1; a score of zero spread gives a
    non-finite correlation, silently."""
    pi = n1 / nj
    mean_s = scores.sum(axis=2) / nj
    cov = (scores[..., None, :] @ y[..., None])[..., 0, 0] / nj - pi * mean_s
    sd_s = np.sqrt(np.maximum((scores**2).sum(axis=2) / nj - mean_s**2, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        return cov / (np.sqrt(pi * (1.0 - pi)) * sd_s)


def cr_statistic(components: np.ndarray) -> float:
    components = np.asarray(components, dtype=float)
    return float(components @ components)


def null_pvalue(cr, n, m):
    """Upper-tail chi-square (m df) probability at n * cr, which is 1 at
    and below 0.

    Arrays broadcast and give an array; scalars give a float.
    """
    n, m = np.asarray(n), np.asarray(m)
    if np.any(n <= 0) or np.any(m < 1):
        raise ValueError("need n > 0 and m >= 1")
    p = chdtrc(m, np.maximum(n * np.asarray(cr, dtype=float), 0.0))
    return float(p) if p.ndim == 0 else p


def categorize_rows(rows: np.ndarray) -> list:
    """Impact type of each row of a (p, M) array of components: the
    dominant component's label if it carries more than half of the row's
    CR, else 'mixed'.  Components beyond the fourth have no single moment
    label and fall back to 'mixed'."""
    sq = np.asarray(rows, dtype=float) ** 2
    total = sq.sum(axis=1)
    top = sq.argmax(axis=1)
    dominant = (total > 0.0) & (sq[np.arange(len(sq)), top] > 0.5 * total)
    m = sq.shape[1]
    names = np.array([CATEGORY_BY_COMPONENT.get(t + 1, "mixed") for t in range(m)] + ["mixed"],
                     dtype=object)
    return names[np.where(dominant, top, m)].tolist()


def rank_variables(cr) -> np.ndarray:
    """Input positions in rank order: descending CR, ties in input order."""
    cr = np.asarray(cr, dtype=float)
    if cr.size == 0:
        raise ValueError("no results to rank")
    return np.argsort(-cr, kind="stable")
