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
    """Sample correlation of the label with each score column."""
    y = data.y.astype(float)
    n = y.size
    sd_y = np.sqrt(data.pi_hat * (1.0 - data.pi_hat))
    if sd_y == 0.0:
        raise DegenerateVariable("labels are constant")
    cols = basis.score_matrix
    mean_cols = cols.mean(axis=0)
    cov = (y @ cols) / n - y.mean() * mean_cols
    sd_cols = np.sqrt(np.maximum((cols**2).mean(axis=0) - mean_cols**2, 0.0))
    return cov / (sd_y * sd_cols)


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


def categorize(components: np.ndarray) -> str:
    """Impact type: the dominant component's label if it carries more than
    half of CR, else 'mixed'.  Components beyond the fourth have no single
    moment label and fall back to 'mixed'."""
    return categorize_rows(np.atleast_2d(np.asarray(components, dtype=float)))[0]


def categorize_rows(rows: np.ndarray) -> list:
    """``categorize`` of each row of a (p, M) array of components."""
    sq = np.asarray(rows, dtype=float) ** 2
    total = sq.sum(axis=1)
    top = sq.argmax(axis=1)
    dominant = (total > 0.0) & (sq[np.arange(len(sq)), top] > 0.5 * total)
    return [
        CATEGORY_BY_COMPONENT.get(t + 1, "mixed") if d else "mixed"
        for t, d in zip(top.tolist(), dominant.tolist())
    ]


def cr_result(data: TwoSampleData, basis: ScoreBasis, variable_id: str = "") -> CrResult:
    comps = component_correlations(data, basis)
    cr = cr_statistic(comps)
    return CrResult(
        components=comps,
        cr=cr,
        pvalue=null_pvalue(cr, data.y.size, basis.m),
        category=categorize(comps),
        n_effective=data.y.size,
        variable_id=variable_id,
    )


def rank_variables(cr) -> np.ndarray:
    """Input positions in rank order: descending CR, ties in input order."""
    cr = np.asarray(cr, dtype=float)
    if cr.size == 0:
        raise ValueError("no results to rank")
    return np.argsort(-cr, kind="stable")
