"""Independent CR oracle: numpy and ``scipy.stats.rankdata`` only.

The M score functions are an orthonormal basis of the polynomials of degree
1..M in the centred mid-rank, orthogonal to the constant.  A QR
factorisation of the Vandermonde matrix [1, s, ..., s^M] spans the same
nested subspaces, so the label correlations with its Q columns are the CR
components, up to the sign of each diagonal entry of R.
"""

from __future__ import annotations

import numpy as np
from scipy.stats import rankdata

TOLERANCE = 1e-10


def cr_components(values, labels, m: int) -> np.ndarray:
    """Label correlations with the M orthonormal mid-rank scores of one column."""
    values = np.asarray(values, dtype=float)
    n = values.size
    s = (rankdata(values) - 0.5) / n - 0.5
    q, r = np.linalg.qr(np.vander(s, m + 1, increasing=True))
    yc = np.asarray(labels, dtype=float)
    yc = yc - yc.mean()
    return np.sign(np.diag(r)[1:]) * (q[:, 1:].T @ yc) / np.linalg.norm(yc)


def panel_components(X, y, names, m_by_name) -> dict:
    """name -> oracle components, for the columns named in ``m_by_name``.

    Missing entries of X are NaN and are dropped column by column.
    """
    out = {}
    for j, name in enumerate(names):
        m = m_by_name.get(name)
        if m is None:
            continue
        present = ~np.isnan(X[:, j])
        out[name] = cr_components(X[present, j], y[present], m)
    return out


def mismatches(expected: dict, got: dict, tol: float = TOLERANCE):
    """(problems, worst deviation) comparing program components and CR to the oracle."""
    problems = []
    worst = 0.0
    for name, ref in expected.items():
        comps = got.get(name)
        if comps is None:
            problems.append(f"{name}: no CR reported")
            continue
        comps = np.asarray(comps, dtype=float)[: ref.size]
        dev = max(np.abs(comps - ref).max(), abs(comps @ comps - ref @ ref))
        worst = max(worst, float(dev))
        if not dev <= tol:
            problems.append(f"{name}: CR deviates from the oracle by {dev:.3e}")
    return problems, worst
