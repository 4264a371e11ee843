import numpy as np
import pytest

from cdmine.comp_density import (
    TwoSampleData,
    estimate_cd,
    gof_norm,
    pp_plot_points,
    theta_hat,
)
from cdmine.cr import component_correlations
from cdmine.errors import EmptyClass
from cdmine.midrank import VariableColumn, mid_rank_transform
from cdmine.score_basis import build_score_basis


def analyzed(values, y, m=4):
    mid = mid_rank_transform(VariableColumn.from_values(np.asarray(values, float)))
    basis = build_score_basis(mid, m)
    data = TwoSampleData.from_arrays(mid.u, np.asarray(y, int))
    return mid, basis, data


def test_four_point_oracle():
    # Brute force on ranks of [1,2,3,4], class 1 = top two: theta_1 is the
    # class-1 average of S1(u) = (u - 0.5)/sigma with sigma^2 = (1/12)(1 - 4/64).
    mid = mid_rank_transform(VariableColumn.from_values([1.0, 2.0, 3.0, 4.0]))
    basis = build_score_basis(mid, 1)
    data = TwoSampleData.from_arrays(mid.u, [0, 0, 1, 1])
    sigma = np.sqrt((1.0 - 4 * 0.25**3) / 12.0)
    expected = ((0.625 - 0.5) / sigma + (0.875 - 0.5) / sigma) / 2.0
    assert theta_hat(data, basis)[0] == pytest.approx(expected, abs=1e-14)


def test_independent_labels_theta_small():
    rng = np.random.default_rng(8)
    n = 20_000
    _, basis, data = analyzed(rng.normal(size=n), rng.integers(0, 2, n))
    assert np.abs(theta_hat(data, basis)).max() < 0.05


def test_correlation_identity_random_data():
    rng = np.random.default_rng(15)
    for trial in range(20):
        n = rng.integers(20, 200)
        values = rng.choice([0.0, 1.0, 2.5, 7.0, 9.0, 11.0, 13.0, 17.0], size=n)
        y = rng.integers(0, 2, n)
        if y.sum() < 2 or y.sum() > n - 2 or np.unique(values).size < 6:
            continue
        _, basis, data = analyzed(values, y)
        th1 = theta_hat(data, basis)[0]
        r1 = component_correlations(data, basis)[0]
        factor = np.sqrt((1.0 - data.pi_hat) / data.pi_hat)
        assert th1 == pytest.approx(factor * r1, abs=1e-10)
        # same identity must hold after the label swap
        swapped = TwoSampleData.from_arrays(data.u, 1 - data.y)
        th1s = theta_hat(swapped, basis)[0]
        r1s = component_correlations(swapped, basis)[0]
        fs = np.sqrt((1.0 - swapped.pi_hat) / swapped.pi_hat)
        assert th1s == pytest.approx(fs * r1s, abs=1e-10)


def test_empty_class_rejected():
    mid = mid_rank_transform(VariableColumn.from_values(np.arange(10.0)))
    basis = build_score_basis(mid, 2)
    data = TwoSampleData.from_arrays(mid.u, [1, 0] + [1] * 8)
    with pytest.raises(EmptyClass):
        theta_hat(data, basis)


class TestEstimateCd:
    def test_zero_theta_is_flat(self):
        rng = np.random.default_rng(2)
        _, basis, _ = analyzed(rng.normal(size=50), rng.integers(0, 2, 50))
        dhat = estimate_cd(np.zeros(4), basis)
        grid = np.linspace(0.01, 0.99, 99)
        np.testing.assert_allclose(dhat(grid), 1.0)

    def test_empirical_integral_is_one(self):
        rng = np.random.default_rng(6)
        n = 150
        mid, basis, data = analyzed(rng.normal(size=n), (np.arange(n) % 3 == 0).astype(int))
        dhat = estimate_cd(theta_hat(data, basis), basis)
        assert np.mean(dhat(mid.u)) == pytest.approx(1.0, abs=1e-10)

    def test_location_shift_gives_increasing_density(self):
        n = 200
        values = np.arange(n, dtype=float)
        y = (values >= n / 2).astype(int)
        _, basis, data = analyzed(values, y)
        dhat = estimate_cd(theta_hat(data, basis), basis)
        # the truncated series wiggles at the edges; the trend is monotone
        # on the central region and class 1 clearly dominates the top
        grid = np.linspace(0.25, 0.75, 20)
        assert np.all(np.diff(dhat(grid)) > 0)
        assert dhat(0.9) > 1.0 > dhat(0.1)


class TestPpPlot:
    def test_proportional_tied_blocks_lie_on_diagonal(self):
        values = [1.0, 1.0, 2.0, 2.0, 3.0, 3.0]
        y = [0, 1, 0, 1, 0, 1]
        mid = mid_rank_transform(VariableColumn.from_values(values))
        data = TwoSampleData.from_arrays(mid.u, y)
        pts = pp_plot_points(data)
        np.testing.assert_allclose(pts[:, 0], pts[:, 1], atol=1e-15)

    def test_stochastic_dominance_below_diagonal(self):
        n = 100
        values = np.arange(n, dtype=float)
        y = (values > np.median(values)).astype(int)
        mid = mid_rank_transform(VariableColumn.from_values(values))
        pts = pp_plot_points(TwoSampleData.from_arrays(mid.u, y))
        assert np.all(pts[:, 1] <= pts[:, 0] + 1e-15)

    def test_endpoints_and_monotonicity(self):
        rng = np.random.default_rng(12)
        values = rng.choice([1.0, 2.0, 5.0, 8.0], size=40)
        y = rng.integers(0, 2, 40)
        mid = mid_rank_transform(VariableColumn.from_values(values))
        pts = pp_plot_points(TwoSampleData.from_arrays(mid.u, y))
        np.testing.assert_allclose(pts[0], [0.0, 0.0])
        np.testing.assert_allclose(pts[-1], [1.0, 1.0])
        assert np.all(np.diff(pts[:, 0]) >= 0)
        assert np.all(np.diff(pts[:, 1]) >= 0)

    def test_null_split_stays_in_ks_band(self):
        # label-independent split: PP deviation from the diagonal stays within
        # the level-0.999 two-sample KS band in at least 95 of 100 trials
        rng = np.random.default_rng(77)
        n = 10_000
        crit = np.sqrt(-np.log(0.001 / 2.0) / 2.0)
        passed = 0
        for _ in range(100):
            values = rng.normal(size=n)
            y = rng.integers(0, 2, n)
            mid = mid_rank_transform(VariableColumn.from_values(values))
            data = TwoSampleData.from_arrays(mid.u, y)
            pts = pp_plot_points(data)
            # |F - H| = (1 - pi)|F - G|, so rescale the F-vs-G band
            band = (1.0 - data.pi_hat) * crit * np.sqrt(n / (data.n0 * data.n1))
            if np.abs(pts[:, 1] - pts[:, 0]).max() < band:
                passed += 1
        assert passed >= 95


class TestGofNorm:
    def test_zero(self):
        assert gof_norm(np.zeros(4)) == 0.0

    def test_arithmetic(self):
        assert gof_norm(np.array([0.3, -0.4])) == pytest.approx(0.25)

    def test_empirical_parseval(self):
        rng = np.random.default_rng(13)
        n = 300
        mid, basis, data = analyzed(rng.normal(size=n), rng.integers(0, 2, n))
        theta = theta_hat(data, basis)
        dhat = estimate_cd(theta, basis)
        lhs = gof_norm(theta)
        rhs = np.mean((dhat(mid.u) - 1.0) ** 2)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_monotone_invariance_of_all_outputs():
    rng = np.random.default_rng(19)
    values = np.abs(rng.normal(size=90)) + 0.1
    y = rng.integers(0, 2, 90)

    def full(vals):
        mid, basis, data = analyzed(vals, y)
        return theta_hat(data, basis), pp_plot_points(data)

    base_theta, base_pp = full(values)
    for g in (np.log, lambda v: 2.0 * v + 5.0, lambda v: v**3):
        theta, pp = full(g(values))
        np.testing.assert_array_equal(theta, base_theta)
        np.testing.assert_array_equal(pp, base_pp)
        assert gof_norm(theta) == gof_norm(base_theta)
