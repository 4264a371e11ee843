"""Comparison-density local fdr (CDfdr) threshold selection.

Scores are flattened through a Gaussian null fit by their pooled mean and
standard deviation, the residual density of the flattened values is fit by a
short shifted-Legendre series, and the inverse fdr f/f0 is recovered as
(estimated-null / theoretical-null density ratio) x (residual density).
Items with inverse fdr >= 1/level pass; the conventional level 0.2
corresponds to the threshold 5.  On each side of the null centre the
selection is then one threshold in z: an item is selected only when every
item beyond it on its side passes.

This is the one selection rule.  Strong signals inflate the pooled scale
above 1, so the weight grows with z; under a robust scale below 1 it shrinks,
and a weight of 1 leaves the series alone, which for sparse signals stays
under the threshold: both missed the strongest items.

Every stage works along the last axis of z: a (runs, p) matrix is that many
independent selections, and each row gets the bits a 1-D call on it gets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import eval_legendre, gammaln, log_ndtr, logsumexp, ndtr, ndtri_exp

from .errors import ConfigError, NonFinite, TooFewItems, ZeroSpread

# Fewest scores a null and a residual series are estimated from.
MIN_FDR_ITEMS = 20
U_EPS = 1e-12
DENSITY_FLOOR = 0.01
# p-values above 1 - 1e-16 are clipped there, so a flagged or null item
# (CR = 0, p = 1) gets a finite z of about -8.2.
LOG_P_MAX = np.log(1.0 - 1e-16)
# The largest |z| a selection takes: z**2 overflows past about 1.34e154, in
# the null fits and in the theoretical weight.
Z_MAX = 1e150
# The largest finite double: the printed inverse fdr of an item whose f/f0
# overflows.
INVERSE_FDR_MAX = np.finfo(float).max
_SQRT_2PI = np.sqrt(2 * np.pi)
_LOG_SQRT_2PI = np.log(_SQRT_2PI)


@dataclass(frozen=True)
class EmpiricalNull:
    """Null location and scale: floats for 1-D scores, arrays over the
    leading axes of a batch."""

    mu0: float | np.ndarray
    sigma0: float | np.ndarray


@dataclass(frozen=True)
class ResidualDensity:
    """Shifted-Legendre series for the density of the flattened scores.

    Coefficients with theta_k^2 <= 2/p are zeroed (kept mask records the
    survivors); the evaluator is floored at DENSITY_FLOOR.  ``coeffs`` and
    ``kept`` have the series index last, after any batch axes.
    """

    coeffs: np.ndarray
    kept: np.ndarray

    def __call__(self, u):
        """The floored series 1 + sum_k coeffs[..., k] P_{k+1}(u).  A zeroed
        coefficient adds exactly 0, so a term no row keeps is skipped, and
        the recurrence stops at the last term a row keeps."""
        u = np.asarray(u, dtype=float)
        d = np.ones(u.shape)
        used = self.kept.reshape(-1, self.kept.shape[-1]).any(axis=0)
        n_terms = np.flatnonzero(used).max(initial=-1) + 1
        for k, term in enumerate(_legendre_terms(u, n_terms)):
            if used[k]:
                _add_term(d, self.coeffs[..., k], term)
        return np.maximum(d, DENSITY_FLOOR)


def check_fdr_level(level):
    """The level rule of every selection, CDfdr and baselines alike."""
    if not 0.0 < level < 1.0:
        raise ConfigError("fdr_level must be in (0, 1)", ("fdr_level",))


def check_n_coeffs(n_coeffs):
    """The rule on the length of the residual series."""
    if n_coeffs < 1:
        raise ConfigError("n_coeffs must be >= 1", ("n_coeffs",))


@dataclass(frozen=True)
class FdrConfig:
    """The CDfdr settings; their defaults are the package's defaults."""

    fdr_level: float = 0.2
    n_coeffs: int = 6
    sides: str = "two"  # "two", "left", "right"

    def __post_init__(self):
        check_fdr_level(self.fdr_level)
        check_n_coeffs(self.n_coeffs)


@dataclass(frozen=True)
class FdrResult:
    z: np.ndarray
    u_flat: np.ndarray
    null: EmpiricalNull
    residual: ResidualDensity
    inverse_fdr: np.ndarray
    selected: np.ndarray


def estimate_null(z) -> EmpiricalNull:
    """The empirical null of each row of z, reduced along its last axis: the
    pooled mean and standard deviation of the row's scores."""
    z = np.asarray(z, dtype=float)
    p = z.shape[-1] if z.ndim else z.size
    if p < MIN_FDR_ITEMS:
        raise TooFewItems(f"need at least {MIN_FDR_ITEMS} scores, got {p}")
    mu0, sigma0 = z.mean(axis=-1), z.std(axis=-1, ddof=1)
    _check_spread(z, sigma0)
    if z.ndim == 1:
        mu0, sigma0 = float(mu0), float(sigma0)
    return EmpiricalNull(mu0, sigma0)


def _check_spread(z, sigma0):
    """Raise ZeroSpread where an estimated null scale is at or below eps
    times the interquartile range of its scores.  Such a scale is zero at
    the scores' resolution, as the pooled scale of a constant row is, or of
    a row whose deviations square to below the smallest double: it would
    standardize every score off the null centre past any bound."""
    eps = np.finfo(float).eps
    sigma0 = np.asarray(sigma0)
    # The interquartile range is at most the range, so only a scale within
    # eps of its range, a zero one among them, needs the quartiles.
    suspect = sigma0 <= eps * np.ptp(z, axis=-1)
    if np.any(suspect):
        q25, q75 = np.percentile(z[suspect], [25, 75], axis=-1)
        if np.any(sigma0[suspect] <= eps * (q75 - q25)):
            raise ZeroSpread("null scale estimate is zero at the scores' resolution: "
                             "at most eps times their interquartile range")


def norm_cdf(x):
    """Standard normal cdf.  This and the sf, pdf and log-pdf below run the
    kernels of scipy's ``norm`` distribution without its argument handling,
    so they agree with it bit for bit."""
    return ndtr(x)


def norm_sf(x):
    return ndtr(-x)


def norm_pdf(x):
    return np.exp(-x**2 / 2.0) / _SQRT_2PI


def norm_logpdf(x):
    return -x**2 / 2.0 - _LOG_SQRT_2PI


def preflatten(z, null: EmpiricalNull) -> np.ndarray:
    """Flatten scores through the estimated null cdf, clamped into (0, 1);
    a standardized score that overflows under a tiny null scale flattens to
    the clamp."""
    z = np.asarray(z, dtype=float)
    with np.errstate(over="ignore"):
        u = norm_cdf((z - _col(null.mu0)) / _col(null.sigma0))
    return np.clip(u, U_EPS, 1.0 - U_EPS)


def estimate_residual_density(u_flat, n_coeffs: int = FdrConfig.n_coeffs) -> ResidualDensity:
    check_n_coeffs(n_coeffs)
    return _fit_residual(u_flat, n_coeffs)[0]


def _fit_residual(u_flat, n_coeffs: int):
    """(residual density, its values at u_flat) from one pass of the
    Legendre recurrence at u_flat.

    theta_k is a mean along the last axis, and whether it is kept depends on
    term k alone, so each term is added to the series as soon as it is fit,
    in the order ``ResidualDensity.__call__`` adds it, and then dropped.
    """
    u = np.asarray(u_flat, dtype=float)
    p = u.shape[-1]
    coeffs = np.empty(u.shape[:-1] + (n_coeffs,))
    kept = np.empty(coeffs.shape, dtype=bool)
    d = np.ones(u.shape)
    for k, term in enumerate(_legendre_terms(u, n_coeffs)):
        theta = term.mean(axis=-1)
        kept[..., k] = theta**2 > 2.0 / p
        coeffs[..., k] = np.where(kept[..., k], theta, 0.0)
        if kept[..., k].any():
            _add_term(d, coeffs[..., k], term)
    return ResidualDensity(coeffs=coeffs, kept=kept), np.maximum(d, DENSITY_FLOOR)


def _add_term(d, coeff, term):
    """d += coeff * term in place, with one coefficient per row; term is
    overwritten."""
    term *= _col(coeff)
    d += term


def inverse_fdr_curve(z, null: EmpiricalNull, resid: ResidualDensity) -> np.ndarray:
    """Per-item inverse fdr f/f0: the exactly-known density ratio between the
    estimated null and the standard normal acts as a weight on the residual
    density."""
    z = np.asarray(z, dtype=float)
    return _inverse_fdr(z, null, resid(preflatten(z, null)))


def _inverse_fdr(z, null: EmpiricalNull, d):
    """Inverse fdr from the residual density d at the items' flattened scores.

    Where the theoretical weight overflows (z^2/2 - zs^2/2 past about 709),
    the inverse fdr is capped at INVERSE_FDR_MAX, which every threshold
    1/level selects; where the standardized score zs or its square
    overflows under a tiny null scale, the weight is 0.
    """
    sigma0 = _col(null.sigma0)
    with np.errstate(over="ignore"):
        zs = (z - _col(null.mu0)) / sigma0
        log_w = norm_logpdf(zs) - np.log(sigma0) - norm_logpdf(z)
        return np.minimum(np.exp(log_w) * d, INVERSE_FDR_MAX)


def select(
    z, inverse_fdr, u_flat, fdr_level: float = FdrConfig.fdr_level,
    sides: str = FdrConfig.sides,
) -> np.ndarray:
    """The items selected on the chosen sides of the null centre, the right
    side being u_flat >= 0.5 and the left side the rest.

    An item passes where its inverse fdr is at least 1/level, and it is
    selected only when every item beyond it on its side passes too.  So each
    side's selection is everything past one threshold in z, taken per row:
    the failing item farthest from the centre cuts off every item between
    it and the centre.
    """
    check_fdr_level(fdr_level)
    if sides not in ("two", "left", "right"):
        raise ConfigError(f"unknown sides {sides!r}")
    z = np.asarray(z, dtype=float)
    right = np.asarray(u_flat, dtype=float) >= 0.5
    # Each row's failing scores, NaN where an item passes.  Every left item
    # lies below every right one, so the largest failing z is the right
    # side's cut, or left of every right item when none of them fails, and
    # the smallest is the left side's.
    failing = z.copy()
    failing[np.asarray(inverse_fdr, dtype=float) >= 1.0 / fdr_level] = np.nan
    mask = np.zeros(z.shape, dtype=bool)
    if sides != "left":
        cut = np.fmax.reduce(failing, axis=-1, initial=-np.inf, keepdims=True)
        mask |= right & (z > cut)
    if sides != "right":
        cut = np.fmin.reduce(failing, axis=-1, initial=np.inf, keepdims=True)
        mask |= ~right & (z < cut)
    return mask


def cr_to_z(cr, n, m) -> np.ndarray:
    """One-sided bridge: CR values map to z through the chi-square p-value.

    The p-value is taken in log space, so z stays finite and increasing at
    any strength.  n (sample size) and m (integer df) broadcast against cr.
    """
    return log_p_to_z(chi2_logsf(np.asarray(n) * np.asarray(cr, dtype=float), m))


def log_p_to_z(log_p) -> np.ndarray:
    """The z of upper-tail normal probability exp(log_p), clipped at LOG_P_MAX."""
    return -ndtri_exp(np.minimum(log_p, LOG_P_MAX))


def chi2_logsf(x, df) -> np.ndarray:
    """log P(chi-square_df > x) for integer df >= 1, finite for finite x >= 0.

    Closed forms: even df = 2k gives exp(-x/2) sum_{j<k} (x/2)^j / j!; odd
    df = 2k+1 gives 2 Phi(-sqrt x) + 2 phi(sqrt x) sum_{j=1..k} x^(j-1/2) /
    (1 * 3 * ... * (2j-1)).
    """
    x, df = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(df))
    out = np.empty(x.shape)
    for d in np.unique(df):
        sel = df == d
        out[sel] = _chi2_logsf_int(x[sel], int(d))
    return out


def _chi2_logsf_int(x, df: int):
    if df < 1:
        raise ValueError("chi-square df must be >= 1")
    k = df // 2
    if df % 2 == 0:
        h = x / 2.0
        term, total = np.ones_like(h), np.zeros_like(h)
        with np.errstate(over="ignore"):
            for j in range(1, k):
                term = term * h / j
                total = total + term
        j = np.arange(k)
        return -h + _log_series(np.log1p(total), total, h, j, -gammaln(j + 1))
    t = np.sqrt(x)
    head = np.log(2.0) + log_ndtr(-t)
    if df == 1:
        return head
    term = total = t
    with np.errstate(over="ignore"):
        for j in range(2, k + 1):
            term = term * x / (2 * j - 1)
            total = total + term
    with np.errstate(divide="ignore"):
        log_total = np.log(total)
    # The j-th term is t^(2j - 1) / (1 * 3 * ... * (2j - 1)).
    j = np.arange(1, k + 1)
    log_total = _log_series(log_total, total, t, 2 * j - 1,
                            j * np.log(2.0) + gammaln(j + 1) - gammaln(2 * j + 1))
    tail = np.log(2.0) + norm_logpdf(t) + log_total
    return np.logaddexp(head, tail)


def _log_series(log_total, total, base, powers, log_coeffs):
    """``log_total``, the log of the series sum ``total``, with each entry
    where ``total`` overflowed recomputed in log space as the log of
    sum_i exp(log_coeffs[i]) base^powers[i]."""
    big = np.isinf(total)
    if big.any():
        log_total[big] = logsumexp(
            powers[:, None] * np.log(base[big]) + log_coeffs[:, None], axis=0
        )
    return log_total


def cdfdr_pipeline(z, config: FdrConfig = FdrConfig()) -> FdrResult:
    """CDfdr selection on z-scores; CR values go through ``cr_to_z`` first.

    Each row of a 2-D z is selected on its own; a non-finite cell or a
    zero-spread row anywhere fails the whole call.
    """
    z = np.asarray(z, dtype=float)
    if not np.all(np.abs(z) <= Z_MAX):
        raise NonFinite(f"z-scores must be finite, with |z| <= {Z_MAX:g}")
    null = estimate_null(z)
    u = preflatten(z, null)
    # One pass over the Legendre terms at u serves both the fit and the
    # density at the items; estimate_residual_density followed by
    # inverse_fdr_curve would flatten z and evaluate the kept terms twice.
    resid, d = _fit_residual(u, config.n_coeffs)
    inv = _inverse_fdr(z, null, d)
    sel = select(z, inv, u, config.fdr_level, config.sides)
    return FdrResult(
        z=z, u_flat=u, null=null, residual=resid, inverse_fdr=inv, selected=sel
    )


def _col(x):
    """A per-row value of a batch as a column that broadcasts along the last
    axis; a scalar stays as it is."""
    return x[..., None] if np.ndim(x) else x


def _legendre_terms(u, n: int):
    """Yield the orthonormal shifted Legendre polynomials sqrt(2k + 1)
    P_k(2u - 1) at u, for k = 1 ... n, from one three-term recurrence.

    Each term equals ``sqrt(2k + 1) * eval_legendre(k, 2u - 1)`` bit for bit:
    the recurrence repeats scipy's integer-degree loop operation for
    operation, and where |x| < 1e-5, where scipy sums a power series
    instead, the term is that scipy call.  The yielded array is one buffer,
    overwritten by the next term, which the caller may overwrite too.
    """
    x = 2.0 * np.asarray(u, dtype=float) - 1.0
    small = np.abs(x) < 1e-5
    x_small = x[small]
    x_minus_1 = x - 1.0
    d = x_minus_1.copy()
    p = x  # P_k, updated in place from here on
    term = np.empty(x.shape)
    for k in range(1, n + 1):
        if k > 1:
            # d = ((2j + 1)/(j + 1)) (x - 1) P_j + (j/(j + 1)) d; P_k = P_j + d
            j = k - 1.0
            np.multiply((2.0 * j + 1.0) / (j + 1.0), x_minus_1, out=term)
            term *= p
            d *= j / (j + 1.0)
            d += term
            p += d
        scale = np.sqrt(2.0 * k + 1.0)
        np.multiply(p, scale, out=term)
        if x_small.size:
            term[small] = scale * eval_legendre(k, x_small)
        yield term
