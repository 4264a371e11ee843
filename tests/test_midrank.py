import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from cdmine.errors import AllMissing, NonFinite
from cdmine.midrank import VariableColumn, mid_rank_transform


def column(values, missing=None):
    values = np.asarray(values, dtype=float)
    if missing is None:
        missing = np.zeros(values.size, dtype=bool)
    return VariableColumn(values=values, missing=np.asarray(missing, dtype=bool))


# Samples with deliberate ties: values drawn from a small alphabet.
tied_samples = st.lists(
    st.sampled_from([-2.0, -0.5, 0.0, 0.25, 1.0, 3.0]), min_size=2, max_size=60
)
# Values on a coarse lattice so the monotone maps below cannot collapse
# distinct inputs through float rounding.
continuous_samples = st.lists(
    st.integers(min_value=-5000, max_value=5000).map(lambda k: k / 100.0),
    min_size=2,
    max_size=60,
)


def test_hand_computed_example():
    x = [80, 75, 85, 54, 52, 78, 46, 63, 85, 62]
    mr = mid_rank_transform(column(x))
    expected = [0.75, 0.55, 0.90, 0.25, 0.15, 0.65, 0.05, 0.45, 0.90, 0.35]
    np.testing.assert_allclose(mr.u, expected, atol=1e-15)
    assert mr.n_effective == 10


def test_constant_column():
    mr = mid_rank_transform(column([7.0, 7.0, 7.0]))
    np.testing.assert_allclose(mr.u, [0.5, 0.5, 0.5])
    assert mr.sigma_mid == 0.0


def test_distinct_values_variance():
    for n in (2, 5, 40):
        mr = mid_rank_transform(column(np.arange(n, dtype=float)))
        expected = (1.0 - 1.0 / n**2) / 12.0
        assert mr.sigma_mid**2 == pytest.approx(expected, abs=1e-14)


def test_all_missing_raises():
    with pytest.raises(AllMissing):
        mid_rank_transform(column([1.0, 2.0, 3.0], missing=[True, True, False]))


def test_nonfinite_raises():
    with pytest.raises(NonFinite):
        mid_rank_transform(column([1.0, np.inf, 3.0]))
    with pytest.raises(NonFinite):
        mid_rank_transform(column([1.0, np.nan, 3.0]))


def test_nan_allowed_when_masked():
    mr = mid_rank_transform(column([1.0, np.nan, 3.0], missing=[False, True, False]))
    assert mr.n_effective == 2


@given(tied_samples)
def test_mean_half(xs):
    mr = mid_rank_transform(column(xs))
    assert mr.u.mean() == pytest.approx(0.5, abs=1e-12)


@given(tied_samples)
def test_variance_identity(xs):
    mr = mid_rank_transform(column(xs))
    p_hat = np.unique(xs, return_counts=True)[1] / mr.n_effective
    expected = (1.0 - np.sum(p_hat**3)) / 12.0
    var_n = np.mean((mr.u - mr.u.mean()) ** 2)
    assert var_n == pytest.approx(expected, abs=1e-12)
    assert mr.sigma_mid**2 == pytest.approx(expected, abs=1e-14)


@given(tied_samples)
def test_values_strictly_inside_unit_interval(xs):
    mr = mid_rank_transform(column(xs))
    assert np.all(mr.u > 0.0) and np.all(mr.u < 1.0)


@given(continuous_samples)
def test_rank_invariance_under_monotone_maps(xs):
    base = mid_rank_transform(column(xs))
    arr = np.asarray(xs)
    for g in (lambda v: 3.0 * v + 11.0, lambda v: v**3, lambda v: np.log1p(v - arr.min())):
        mr = mid_rank_transform(column(g(arr)))
        np.testing.assert_array_equal(mr.u, base.u)
        assert mr.sigma_mid == base.sigma_mid


def test_missing_value_locality():
    values = np.array([3.0, 1.0, 99.0, 2.0, 2.0])
    missing = np.array([False, False, True, False, False])
    with_missing = mid_rank_transform(column(values, missing))
    without = mid_rank_transform(column(values[~missing]))
    np.testing.assert_array_equal(with_missing.u, without.u)
    assert with_missing.sigma_mid == without.sigma_mid


@settings(max_examples=300)
@given(st.integers(2, 200), st.integers(1, 200), st.integers(0, 2**32 - 1))
def test_matches_rankdata_and_unique_counts_bit_for_bit(n, n_levels, seed):
    # n draws from n_levels random values plus both signed zeros and a
    # negative constant: heavy ties at few levels, few ties at many.
    rng = np.random.default_rng(seed)
    levels = np.r_[np.round(rng.normal(0.0, 50.0, n_levels), 1), -0.0, 0.0, -3.5]
    x = rng.choice(levels, n)
    mr = mid_rank_transform(column(x))
    np.testing.assert_array_equal(mr.u, (rankdata(x, method="average") - 0.5) / n)
    sizes = np.unique(x, return_counts=True)[1]
    assert mr.sigma_mid == float(np.sqrt(max((1.0 - np.sum(sizes**3.0) / n**3.0) / 12.0, 0.0)))
