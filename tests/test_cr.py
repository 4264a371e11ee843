import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdmine.comp_density import TwoSampleData, gof_norm, theta_hat
from cdmine.cr import (
    CrResult,
    categorize_rows,
    component_correlations,
    cr_statistic,
    null_pvalue,
    rank_variables,
)
from cdmine.dataset import Dataset
from cdmine.midrank import VariableColumn, mid_rank_transform
from cdmine.pipeline import analyze
from cdmine.score_basis import build_score_basis


def analyzed(values, y, m=4):
    mid = mid_rank_transform(VariableColumn.from_values(np.asarray(values, float)))
    basis = build_score_basis(mid, m)
    data = TwoSampleData.from_arrays(mid.u, np.asarray(y, int))
    return mid, basis, data


def analyzed_columns(columns, y, m=4):
    """``analyze`` of a panel of the given value columns under labels y."""
    cols = [VariableColumn.from_values(v, name=f"v{j}") for j, v in enumerate(columns)]
    y = np.asarray(y, int)
    return analyze(Dataset(cols, y, positive_label="1", n=y.size, p=len(cols)), m=m)


def one_column_result(values, y):
    """The CrResult of ``analyze`` on a one-column panel."""
    return analyzed_columns([values], y).per_variable[0].cr


def test_null_components_small():
    rng = np.random.default_rng(30)
    n = 10_000
    _, basis, data = analyzed(rng.normal(size=n), rng.integers(0, 2, n))
    assert np.abs(component_correlations(data, basis)).max() < 0.05


def test_location_alternative_first_component_dominates():
    n = 400
    values = np.arange(n, dtype=float)
    y = (values >= n / 2).astype(int)
    _, basis, data = analyzed(values, y)
    r = component_correlations(data, basis)
    assert r[0] ** 2 > np.sum(r[1:] ** 2)


def test_scale_alternative_second_component_dominates():
    n = 400
    values = np.arange(n, dtype=float)
    y = ((values < n / 4) | (values >= 3 * n / 4)).astype(int)
    _, basis, data = analyzed(values, y)
    r = component_correlations(data, basis)
    assert np.argmax(r**2) == 1


def test_cr_statistic_arithmetic():
    assert cr_statistic(np.zeros(4)) == 0.0
    assert cr_statistic(np.array([0.5, 0.0, 0.0, 0.0])) == pytest.approx(0.25)


def test_cr_equals_scaled_gof_norm():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = 150
        values = rng.normal(size=n)
        y = rng.integers(0, 2, n)
        if y.sum() < 2 or y.sum() > n - 2:
            continue
        _, basis, data = analyzed(values, y)
        cr = cr_statistic(component_correlations(data, basis))
        scaled = gof_norm(theta_hat(data, basis)) * data.pi_hat / (1.0 - data.pi_hat)
        assert cr == pytest.approx(scaled, abs=1e-10)


class TestNullPvalue:
    def test_zero_cr(self):
        assert null_pvalue(0.0, 100, 4) == 1.0

    def test_mean_near_median(self):
        for m in range(1, 7):
            p = null_pvalue(m / 100.0, 100, m)
            assert 0.3 < p < 0.7

    @pytest.mark.parametrize("df", [1, 2, 3, 4, 5, 6])
    def test_matches_scipy_chi2_sf_bit_for_bit(self, df):
        from scipy.stats import chi2

        x = np.r_[0.0, np.geomspace(1e-3, 2e3, 4000)]
        np.testing.assert_array_equal(null_pvalue(x, 1, df), chi2.sf(x, df))
        cr = x / 102.0
        np.testing.assert_array_equal(null_pvalue(cr, 102, df), chi2.sf(102 * cr, df))
        assert null_pvalue(x[7], 1, df) == chi2.sf(x[7], df)

    def test_chi2_two_df_closed_form(self):
        # chi-square with 2 df has survival exp(-x/2); 5.991 is the 5% point
        p = null_pvalue(5.991 / 100.0, 100, 2)
        assert p == pytest.approx(math.exp(-5.991 / 2.0), rel=1e-10)
        assert p == pytest.approx(0.05, abs=1e-4)


class TestCategorize:
    def test_component_labels(self):
        rows = np.full((4, 4), 0.1)
        np.fill_diagonal(rows, 0.9)
        assert categorize_rows(rows) == ["mean", "variance", "skewness", "tail"]

    def test_mixed_when_no_dominant(self):
        assert categorize_rows(np.array([[0.5, 0.5, 0.0, 0.0], [0.0] * 4])) == ["mixed"] * 2

    def test_fifth_component_has_no_label(self):
        assert categorize_rows(np.array([[0.0, 0.0, 0.0, 0.0, 0.9]])) == ["mixed"]


def make_result(cr, variable_id, category="mean"):
    return CrResult(
        components=np.array([np.sqrt(cr), 0, 0, 0]),
        cr=cr,
        pvalue=0.5,
        category=category,
        n_effective=100,
        variable_id=variable_id,
    )


class TestRankVariables:
    def test_stable_ties_preserve_input_order(self):
        results = [make_result(0.3, f"v{i}") for i in range(5)]
        order = rank_variables([r.cr for r in results])
        np.testing.assert_array_equal(order, np.arange(5))
        np.testing.assert_array_equal(np.argsort(order) + 1, np.arange(1, 6))

    def test_dominant_variable_heads_its_category(self):
        results = [make_result(0.001, f"n{i}") for i in range(4)]
        results.append(make_result(0.9, "big", category="variance"))
        cr = np.array([r.cr for r in results])
        order = rank_variables(cr)
        assert results[order[0]].variable_id == "big"
        assert results[order[0]].category == "variance"
        np.testing.assert_array_equal(cr[order], np.sort(cr[order])[::-1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rank_variables([])


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.sampled_from([0.0, 1e-300, 0.01, 0.25, 0.25 + 2**-54, 0.5, 1.0]), min_size=1, max_size=60
    )
)
def test_rank_order_is_descending_cr_then_input_position(values):
    cr = np.array(values)
    order = rank_variables(cr)
    want = sorted(range(len(values)), key=lambda i: (-values[i], i))
    assert order.tolist() == want
    assert (np.argsort(order) + 1)[want].tolist() == list(range(1, len(values) + 1))
    np.testing.assert_array_equal(cr[order], cr[want])


def test_cr_invariances():
    rng = np.random.default_rng(33)
    values = np.abs(rng.normal(size=120)) + 0.5
    y = rng.integers(0, 2, 120)
    base = one_column_result(values, y)

    # monotone transforms leave everything identical
    for g in (np.log, lambda v: 10.0 * v - 3.0):
        other = one_column_result(g(values), y)
        np.testing.assert_array_equal(other.components, base.components)
        assert other.cr == base.cr
        assert other.pvalue == base.pvalue
        assert other.category == base.category

    # label relabeling flips component signs but not CR
    swapped = one_column_result(values, 1 - y)
    assert swapped.cr == pytest.approx(base.cr, abs=1e-12)
    np.testing.assert_allclose(np.abs(swapped.components), np.abs(base.components), atol=1e-12)


def test_mixed_panel_categorization_small():
    # reduced version of the planted-panel check; the acceptance suite runs
    # the full 50-trial protocol
    rng = np.random.default_rng(34)
    n, trials = 500, 10
    correct = total = 0
    for _ in range(trials):
        y = np.zeros(n, int)
        y[n // 2:] = 1
        loc = rng.normal(size=n) + 1.0 * y
        scale = rng.normal(size=n) * (1.0 + 2.0 * y)
        categories = analyzed_columns([loc, scale], y).categories
        total += 2
        correct += (categories[0] == "mean") + (categories[1] == "variance")
    assert correct / total >= 0.9
