import decimal
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import eval_legendre

from cdmine.cdfdr import (
    DENSITY_FLOOR,
    U_EPS,
    EmpiricalNull,
    FdrConfig,
    ResidualDensity,
    _check_spread,
    _legendre_terms,
    cdfdr_pipeline,
    chi2_logsf,
    cr_to_z,
    estimate_null,
    estimate_residual_density,
    inverse_fdr_curve,
    norm_cdf,
    norm_logpdf,
    norm_pdf,
    norm_sf,
    preflatten,
    select,
)
from cdmine.cr import null_pvalue
from cdmine.errors import ConfigError, NonFinite, TooFewItems, ZeroSpread


def legendre01(k, u):
    """The orthonormal shifted Legendre polynomial, one scipy call per degree."""
    return np.sqrt(2.0 * k + 1.0) * eval_legendre(k, 2.0 * np.asarray(u) - 1.0)


class TestEstimateNull:
    def test_pooled_moments_recovers_standard_normal(self):
        z = np.random.default_rng(0).standard_normal(1000)
        null = estimate_null(z)
        assert abs(null.mu0) < 0.1
        assert abs(null.sigma0 - 1.0) < 0.1

    def test_too_few_items(self):
        with pytest.raises(TooFewItems):
            estimate_null(np.arange(10.0))

    def test_zero_spread(self):
        with pytest.raises(ZeroSpread):
            estimate_null(np.full(30, 1.5))

    def test_a_scale_within_eps_of_the_quartile_gap_is_zero_spread(self):
        # Ten 0s and ten 1s: an interquartile range of 1.
        eps = np.finfo(float).eps
        z = np.r_[np.zeros(10), np.ones(10)]
        batch = np.stack([np.linspace(-1.0, 1.0, 20), z])
        for scale, raises in ((0.0, True), (eps, True), (2.0 * eps, False)):
            if raises:
                with pytest.raises(ZeroSpread, match="null scale estimate is zero"):
                    _check_spread(z, np.float64(scale))
                with pytest.raises(ZeroSpread):
                    _check_spread(batch, np.array([1.0, scale]))
            else:
                _check_spread(z, np.float64(scale))
                _check_spread(batch, np.array([1.0, scale]))
        # Ten 0s and ten s: deviations of s/2 square to 0 at s = 3.29e-265,
        # so the pooled scale is 0 against an interquartile range of s.
        for s, raises in ((3.29e-265, True), (1e-150, False)):
            z = np.r_[np.zeros(10), np.full(10, s)]
            batch = np.stack([np.linspace(-1.0, 1.0, 20), z])
            if raises:
                with pytest.raises(ZeroSpread, match="null scale estimate is zero"):
                    estimate_null(z)
                with pytest.raises(ZeroSpread):
                    estimate_null(batch)
            else:
                assert estimate_null(z).sigma0 == z.std(ddof=1) > 0.0


class TestPreflatten:
    def test_center_maps_to_half(self):
        null = estimate_null(np.arange(30.0))
        assert preflatten(np.array([null.mu0]), null)[0] == pytest.approx(0.5)

    def test_normal_quantile(self):
        null = estimate_null(np.arange(30.0))
        z = null.mu0 + 1.959964 * null.sigma0
        assert preflatten(np.array([z]), null)[0] == pytest.approx(0.975, abs=1e-6)

    def test_strictly_monotone_and_clamped(self):
        null = EmpiricalNull(0.0, 1.0)
        z = np.array([-100.0, -1.0, 0.0, 1.0, 100.0])
        u = preflatten(z, null)
        assert np.all(np.diff(u) > 0)
        assert u[0] >= 1e-12 and u[-1] <= 1.0 - 1e-12


class TestResidualDensity:
    def test_uniform_grid_is_flat(self):
        u = (np.arange(1000) + 0.5) / 1000
        resid = estimate_residual_density(u)
        assert not resid.kept.any()
        grid = np.linspace(0.001, 0.999, 500)
        assert np.abs(resid(grid) - 1.0).max() < 0.05
        # with nothing kept, the flattened-sample average is exactly one
        assert resid(u).mean() == pytest.approx(1.0, abs=1e-10)

    def test_unit_mass_on_unit_interval(self):
        rng = np.random.default_rng(5)
        u = np.clip(rng.beta(0.4, 0.4, size=2000), 1e-12, 1 - 1e-12)
        resid = estimate_residual_density(u)
        grid = np.linspace(5e-5, 1 - 5e-5, 20001)
        raw = np.ones_like(grid)
        for k in np.flatnonzero(resid.kept):
            raw += resid.coeffs[k] * legendre01(k + 1, grid)
        assert np.trapezoid(raw, grid) == pytest.approx(1.0, abs=1e-3)

    def test_gaussian_shift_mixture_piles_at_right_end(self):
        rng = np.random.default_rng(6)
        z = np.concatenate([rng.standard_normal(975), rng.normal(4.52, 1.0, 25)])
        null = estimate_null(z)
        resid = estimate_residual_density(preflatten(z, null))
        assert resid(np.array([0.999]))[0] > resid(np.array([0.5]))[0]

    def test_floor(self):
        resid = estimate_residual_density(np.full(100, 0.999))
        assert resid(np.array([0.5]))[0] >= DENSITY_FLOOR


def _legendre_points(size):
    """Random u, the clamp bounds, 0, 1/2 and 1, and u with |2u - 1| on, just
    under and just over 1e-5, where scipy leaves its recurrence for a power
    series, plus random u inside that band; padded with random u to size."""
    rng = np.random.default_rng(19)
    edge = [np.nextafter(t, t + s) for t in (0.5 + 0.5e-5, 0.5 - 0.5e-5) for s in (-1, 0, 1)]
    x_edge = np.abs(2.0 * np.array(edge) - 1.0)
    assert (x_edge < 1e-5).any() and (x_edge >= 1e-5).any()
    u = np.r_[U_EPS, 1.0 - U_EPS, 0.0, 0.5, 1.0, edge, 0.5 + rng.uniform(-0.5e-5, 0.5e-5, 500)]
    return np.r_[u, rng.uniform(size=size - u.size)]


@pytest.mark.parametrize("shape", [(3000,), (4, 750), (2, 3, 500)])
def test_legendre_terms_equal_scipy_bit_for_bit(shape):
    u = _legendre_points(int(np.prod(shape))).reshape(shape)
    for k, term in enumerate(_legendre_terms(u, 9), start=1):
        np.testing.assert_array_equal(term, legendre01(k, u), strict=True)
    assert k == 9


@pytest.mark.parametrize("batch", [(), (3,)])
def test_residual_density_equals_the_scipy_series_bit_for_bit(batch):
    p = 1000
    u = _legendre_points(int(np.prod(batch, dtype=int)) * p).reshape(batch + (p,))
    rng = np.random.default_rng(23)
    coeffs = rng.normal(scale=0.3, size=batch + (7,))
    # Term 2 is kept by no row, and the series' last term by none either.
    kept = rng.uniform(size=coeffs.shape) < 0.7
    kept[..., 0], kept[..., 1], kept[..., -1] = True, False, False
    coeffs[~kept] = 0.0
    d = np.ones(u.shape)
    for k in range(coeffs.shape[-1]):
        if kept[..., k].any():
            d = d + coeffs[..., k, None] * legendre01(k + 1, u)
    want = np.maximum(d, DENSITY_FLOOR)
    resid = ResidualDensity(coeffs=coeffs, kept=kept)
    np.testing.assert_array_equal(resid(u), want, strict=True)
    # The fit: theta_k is the mean of term k, kept where theta_k^2 > 2/p.
    fit = estimate_residual_density(u, 7)
    theta = np.stack([legendre01(k, u).mean(axis=-1) for k in range(1, 8)], axis=-1)
    np.testing.assert_array_equal(fit.kept, theta**2 > 2.0 / p)
    np.testing.assert_array_equal(fit.coeffs, np.where(fit.kept, theta, 0.0))


class TestInverseFdr:
    def test_weight_closed_form(self):
        # scalar oracle: weight at z = 4 under a (0, 1.135) estimated null
        null = EmpiricalNull(0.0, 1.135)
        resid = estimate_residual_density((np.arange(1000) + 0.5) / 1000)
        expected = (
            math.exp(-0.5 * (4.0 / 1.135) ** 2) / 1.135 / math.exp(-0.5 * 16.0)
        )
        inv = inverse_fdr_curve(np.array([4.0]), null, resid)
        assert inv[0] == pytest.approx(expected, rel=1e-10)
        # Under the standard normal null the weight is 1: the inverse fdr is
        # the residual density itself.
        z = np.linspace(-3, 3, 50)
        null = EmpiricalNull(0.0, 1.0)
        resid = estimate_residual_density(preflatten(z, null))
        np.testing.assert_allclose(
            inverse_fdr_curve(z, null, resid), resid(preflatten(z, null)), atol=1e-12
        )

    def test_overflowing_weight_is_capped_silently(self):
        # z = 41.2 puts z^2/2 - zs^2/2 past the largest exponent a double holds.
        z = np.concatenate([np.random.default_rng(9).standard_normal(39), [41.2]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = cdfdr_pipeline(z, FdrConfig(sides="right"))
        assert np.all(np.isfinite(result.inverse_fdr))
        assert result.inverse_fdr[-1] == np.finfo(float).max
        assert result.selected[-1]

    @pytest.mark.parametrize("tiny", [3.292478195469615e-265, 1e-320])
    def test_a_tiny_null_scale_gives_a_zero_weight_silently(self, tiny):
        # A null scale of 7 tiny, as a caller may pass one: (1 - mu0) / sigma0
        # squared, or the quotient itself, overflows.
        z = np.r_[np.zeros(4), np.arange(1, 13) * tiny, np.ones(4)]
        null = EmpiricalNull(6.5 * tiny, 7.0 * tiny)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = preflatten(z, null)
            inv = inverse_fdr_curve(z, null, estimate_residual_density(u))
        assert np.all(np.isfinite(inv))
        assert np.all(inv[z == 1.0] == 0.0)
        assert np.all(u[z == 1.0] == 1.0 - U_EPS)


class TestSelect:
    def test_all_ones_empty(self):
        u = np.linspace(0.01, 0.99, 50)
        assert not select(np.linspace(-2.3, 2.3, 50), np.ones(50), u).any()

    def test_level_is_inverse_threshold(self):
        z = np.array([2.33, 2.05, -0.84])
        u = np.array([0.99, 0.98, 0.2])
        inv = np.array([5.0, 4.999, 6.0])
        sel = select(z, inv, u, fdr_level=0.2)
        np.testing.assert_array_equal(sel, [True, False, True])

    def test_sidedness(self):
        z = np.array([-2.3, 2.3])
        u = np.array([0.01, 0.99])
        inv = np.array([10.0, 10.0])
        np.testing.assert_array_equal(select(z, inv, u, sides="right"), [False, True])
        np.testing.assert_array_equal(select(z, inv, u, sides="left"), [True, False])
        np.testing.assert_array_equal(select(z, inv, u, sides="two"), [True, True])

    def test_a_passing_item_nearer_the_centre_than_a_failing_one_is_not_selected(self):
        # Per side, from the centre out: pass, fail, pass, pass.
        z = np.array([-4.0, -3.0, -2.0, -1.0, 1.0, 2.0, 3.0, 4.0])
        u = norm_cdf(z)
        inv = np.array([9.0, 9.0, 1.0, 9.0, 9.0, 1.0, 9.0, 9.0])
        want = np.array([1, 1, 0, 0, 0, 0, 1, 1], dtype=bool)
        np.testing.assert_array_equal(select(z, inv, u), want)
        np.testing.assert_array_equal(select(z, inv, u, sides="right"), want & (z > 0))
        # Each row of a batch has its own thresholds.
        rows = select(np.stack([z, z]), np.stack([inv, np.full(8, 9.0)]), np.stack([u, u]))
        np.testing.assert_array_equal(rows, [want, np.ones(8, dtype=bool)])

    def test_bad_level(self):
        with pytest.raises(ConfigError):
            select(np.zeros(3), np.ones(3), np.full(3, 0.5), fdr_level=1.5)

    def test_bad_sides(self):
        with pytest.raises(ConfigError, match="unknown sides"):
            select(np.zeros(3), np.ones(3), np.full(3, 0.5), sides="both")


def test_cr_to_z_monotone():
    cr = np.array([0.0, 0.01, 0.05, 0.2, 1.0])
    z = cr_to_z(cr, n=100, m=4)
    assert np.all(np.diff(z) > 0)
    assert np.all(np.isfinite(z))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_cr_to_z_finite_and_increasing_at_any_strength(m):
    n = 100
    cr = np.linspace(0.0, 1e5 / n, 200_001)  # n * CR up to 1e5
    z = cr_to_z(cr, n=n, m=m)
    assert np.all(np.isfinite(z))
    assert np.all(np.diff(z) > 0)
    # The p-value itself underflows to 0 past n * CR of about 1425-1458,
    # which is why z, not the p-value, orders the extreme rows.
    p = null_pvalue(cr, n, m)
    assert np.all(np.isfinite(p))
    assert np.all(np.diff(p) <= 0)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_cr_to_z_agrees_with_the_chi2_sf_bridge(m):
    from scipy.stats import chi2, norm

    # Below n * CR = 0.01 the old bridge's p rounds to within 1e-5 of 1,
    # where norm.isf loses digits; above about 1300 it clipped at 1e-300.
    x = np.geomspace(1e-2, 2e3, 5000)
    p = chi2.sf(x, df=m)
    unclipped = (p > 1e-300) & (p < 1.0 - 1e-16)
    old = norm.isf(p[unclipped])
    new = cr_to_z(x[unclipped] / 50.0, n=50, m=m)
    assert unclipped.sum() > 4000
    assert np.all(np.abs(new - old) <= 1e-10 * np.maximum(1.0, np.abs(old)))


def decimal_chi2_logsf(x, df):
    """log P(chi-square_df > x) in 60-digit decimal arithmetic, from the
    closed forms of ``chi2_logsf``; for odd df it drops 2 Phi(-sqrt x),
    which is below 1e-40 of the sum when x >= 1e40."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        x = decimal.Decimal(x)
        if df % 2 == 0:
            h = x / 2
            total = sum(h**j / math.factorial(j) for j in range(df // 2))
            return float(total.ln() - h)
        t = x.sqrt()
        odd_factorial = [math.prod(range(1, 2 * j, 2)) for j in range(1, df // 2 + 1)]
        total = sum(t ** (2 * j - 1) / f for j, f in enumerate(odd_factorial, 1))
        log_2_phi = decimal.Decimal(2).ln() - x / 2 - (2 * decimal.Decimal(math.pi)).ln() / 2
        return float(log_2_phi + total.ln())


@pytest.mark.parametrize("df", [2, 3, 4, 5, 6, 7, 8, 12, 13, 40, 41])
def test_chi2_logsf_is_finite_and_silent_where_its_series_overflows(df):
    """The closed-form series overflows for df >= 5 once x is large (a CR of
    1e155 at n = 100 and M = 6); such points are summed in log space."""
    x = np.geomspace(1e3 if df % 2 == 0 else 1e40, 1e300, 60)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = chi2_logsf(x, df)
    want = np.array([decimal_chi2_logsf(v, df) for v in x])
    np.testing.assert_allclose(got, want, rtol=1e-13)


def test_cr_to_z_broadcasts_per_item_n_and_df():
    cr = np.array([0.0, 0.1, 0.1, 0.3])
    n = np.array([40, 40, 80, 80])
    m = np.array([1, 4, 2, 3])
    each = [cr_to_z(c, n=k, m=d) for c, k, d in zip(cr, n, m)]
    np.testing.assert_array_equal(cr_to_z(cr, n=n, m=m), each)


class TestPipeline:
    def test_shift_scale_equivariance(self):
        rng = np.random.default_rng(9)
        z = np.concatenate([rng.standard_normal(480), rng.normal(4.0, 1.0, 20)])
        base = cdfdr_pipeline(z)
        moved = cdfdr_pipeline(2.5 * z - 7.0)
        # The flattened scores and their residual density do not see an
        # affine map of z; the weight compares the null with N(0, 1), so it
        # does.
        np.testing.assert_allclose(moved.u_flat, base.u_flat, atol=1e-10)
        np.testing.assert_allclose(
            moved.residual.coeffs, base.residual.coeffs, atol=1e-10
        )

    def test_tail_monotonicity_of_evaluator(self):
        rng = np.random.default_rng(10)
        z = np.concatenate([rng.standard_normal(950), rng.normal(4.52, 1.0, 50)])
        result = cdfdr_pipeline(z)
        grid = np.linspace(0.98, 0.9999, 200)
        assert np.all(np.diff(result.residual(grid)) >= 0)
        tail = result.u_flat >= 0.98
        order = np.argsort(result.u_flat[tail])
        assert np.all(np.diff(result.inverse_fdr[tail][order]) >= 0)

    def test_threshold_coefficient_calibration(self):
        # stratified-uniform flattened values keep no series coefficients
        rng = np.random.default_rng(11)
        zero_kept = 0
        for _ in range(50):
            u = (np.arange(1000) + rng.uniform(size=1000)) / 1000
            resid = estimate_residual_density(np.clip(u, 1e-12, 1 - 1e-12))
            zero_kept += not resid.kept.any()
        assert zero_kept >= 45

    def test_pure_null_rarely_selects(self):
        rng = np.random.default_rng(12)
        good = 0
        for _ in range(20):
            z = rng.standard_normal(1000)
            result = cdfdr_pipeline(z, FdrConfig())
            good += int(result.selected.sum()) <= 5
        assert good >= 18

    def test_cr_mode_null_panel(self):
        rng = np.random.default_rng(13)
        frac = []
        for _ in range(10):
            # null chi-square_4 draws mapped back to CR scale
            cr = rng.chisquare(4, size=1000) / 100
            result = cdfdr_pipeline(cr_to_z(cr, 100, 4), FdrConfig(sides="right"))
            frac.append(result.selected.mean())
        assert np.mean(frac) <= 0.01

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_scores_rejected(self, bad):
        z = np.random.default_rng(15).standard_normal(100)
        z[7] = bad
        with pytest.raises(NonFinite):
            cdfdr_pipeline(z)

    def test_p0_fixed_at_one(self):
        # inverse fdr carries no null-proportion factor: a flat residual
        # gives exactly the weight, not the weight / p0_hat
        z = np.random.default_rng(14).standard_normal(500)
        result = cdfdr_pipeline(z)
        assert not result.residual.kept.any()
        zs = (z - result.null.mu0) / result.null.sigma0
        weight = norm_pdf(zs) / result.null.sigma0 / norm_pdf(z)
        np.testing.assert_allclose(result.inverse_fdr, weight, rtol=1e-12)


def test_normal_kernels_match_scipy_norm_bit_for_bit():
    from scipy.stats import norm

    z = np.r_[np.linspace(-40.0, 40.0, 8001), -38.5, -0.0, 1e-300, 8.3, 37.5]
    for ours, ref in [
        (norm_cdf, norm.cdf),
        (norm_sf, norm.sf),
        (norm_pdf, norm.pdf),
        (norm_logpdf, norm.logpdf),
    ]:
        np.testing.assert_array_equal(ours(z), ref(z))
        assert ours(z[3]) == ref(z[3])


@pytest.mark.parametrize("n_coeffs", [1, 3, 6, 9])
def test_pipeline_equals_the_public_entry_points(n_coeffs):
    rng = np.random.default_rng(n_coeffs)
    z = np.concatenate([rng.standard_normal(900), rng.normal(4.0, 1.0, 100)])
    cfg = FdrConfig(n_coeffs=n_coeffs)
    result = cdfdr_pipeline(z, cfg)
    u = preflatten(z, result.null)
    resid = estimate_residual_density(u, n_coeffs)
    np.testing.assert_array_equal(result.u_flat, u)
    np.testing.assert_array_equal(result.residual.coeffs, resid.coeffs)
    np.testing.assert_array_equal(result.residual.kept, resid.kept)
    assert resid.kept.any()
    np.testing.assert_array_equal(
        result.inverse_fdr, inverse_fdr_curve(z, result.null, resid)
    )
    np.testing.assert_array_equal(result.selected, select(z, result.inverse_fdr, u))


def test_series_length_below_one_is_rejected_where_it_is_set():
    with pytest.raises(ConfigError, match="n_coeffs must be >= 1") as info:
        FdrConfig(n_coeffs=0)
    assert info.value.fields == ("n_coeffs",)
    with pytest.raises(ConfigError, match="n_coeffs must be >= 1"):
        estimate_residual_density(np.linspace(0.1, 0.9, 30), 0)


@pytest.mark.parametrize("p, k, mu", [(200, 5, 10.0), (50, 2, 20.0), (1000, 25, 6.0), (1000, 0, 0.0)])
def test_strong_sparse_signals_are_selected_and_a_pure_null_is_not(p, k, mu):
    """In each of 200 seeded runs of p scores, k shifted by mu, the largest z
    is selected; with no signal nothing is."""
    rng = np.random.default_rng([p, k])
    for _ in range(200):
        z = rng.standard_normal(p)
        z[:k] += mu
        selected = cdfdr_pipeline(z, FdrConfig(sides="right")).selected
        assert selected[np.argmax(z)] if k else not selected.any()


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(20, 400),
    st.integers(0, 60),
    st.floats(-12.0, 12.0),
    st.sampled_from(["two", "left", "right"]),
    st.sampled_from([0.05, 0.2, 0.5]),
)
@example(seed=149, p=400, k=40, mu=10.0, sides="right", level=0.2)
def test_each_side_s_selection_is_an_upper_set_in_z(seed, p, k, mu, sides, level):
    """On each side of the null centre, every item beyond a selected one is
    selected, and every selected item passes the threshold 1/level."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(p)
    z[:k] += mu
    result = cdfdr_pipeline(z, FdrConfig(fdr_level=level, sides=sides))
    sel = result.selected
    assert np.all(result.inverse_fdr[sel] >= 1.0 / level)
    right = result.u_flat >= 0.5
    for side, out, chosen in ((right, z, sides != "left"), (~right, -z, sides != "right")):
        picked = sel & side
        if not chosen:
            assert not picked.any()
        elif picked.any():
            assert picked[side & (out >= out[picked].min())].all()
