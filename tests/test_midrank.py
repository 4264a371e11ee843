import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from cdmine.errors import AllMissing, NonFinite
from cdmine.midrank import VariableColumn, label_order, mid_rank_transform, tie_groups


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


# Values whose keys differ in the last bit or not at all: both zeros,
# subnormals, the largest doubles and neighbours of each (see ulps_from).
EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1.0, -1.0,
               1.7976931348623157e308, -1.7976931348623157e308)


def ulps_from(value, steps):
    """value moved |steps| neighbouring doubles up or down, kept finite."""
    for _ in range(abs(steps)):
        with np.errstate(over="ignore"):
            nxt = np.nextafter(value, np.inf if steps > 0 else -np.inf)
        value = nxt if np.isfinite(nxt) else value
    return float(value)


@st.composite
def keyed_rows(draw):
    """(x, y): a (q, n) matrix of runs of neighbouring doubles, edge values,
    any finite doubles and NaN-missing cells, and n 0/1 labels."""
    q, n = draw(st.integers(1, 5)), draw(st.integers(1, 24))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    anchors = draw(st.lists(st.one_of(st.sampled_from(EDGE_VALUES), finite), min_size=1, max_size=4))
    near = st.tuples(st.sampled_from(anchors), st.integers(-2, 2)).map(lambda t: ulps_from(*t))
    cells = draw(st.lists(st.one_of(near, finite, st.just(np.nan)), min_size=q * n, max_size=q * n))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return np.array(cells).reshape(q, n), np.array(labels)


@settings(max_examples=250, deadline=None)
@given(keyed_rows())
# -5e-324 labelled 0 tags to -0.0, which sorts on either side of a +0.0
@example(case=(np.array([[-5e-324, 0.0, -5e-324]]), np.array([1, 0, 0])))
# x next to -x, and a tie-free row straddling zero
@example(case=(np.array([[1.5, -1.5, 3.0, -7.0], [-5e-324, 0.0, 2.0, -3.0]]),
               np.array([0, 0, 1, 1])))
# NA cells, around distinct, tied and zero-straddling present values
@example(case=(np.array([[np.nan, 2.0, np.nan, -1.0, np.nan], [np.nan, 2.0, np.nan, 2.0, 0.5],
                         [np.nan, -5e-324, np.nan, 0.0, 1.0]]),
               np.array([1, 0, 1, 0, 0])))
def test_label_order_gives_the_sorted_labels_of_exactly_the_distinct_key_rows(case):
    x, y = case
    labels, exact, _ = label_order(x + 0.0, y, (~np.isnan(x)).sum(axis=1))
    order, first = tie_groups(x)
    present = ~np.isnan(x)
    nj = present.sum(axis=1)
    want = y.astype(float)[order]
    # An exact row's present values are tie-free and sort first, and its
    # labels there are y in the order of its values, bit for bit.
    for i in np.flatnonzero(exact):
        assert np.all(first[i, : nj[i]])
        np.testing.assert_array_equal(
            labels[i, : nj[i]].view(np.int64), want[i, : nj[i]].view(np.int64)
        )
    assert set(labels.view(np.int64).ravel().tolist()) <= {0, 0x3FF0000000000000}
    # A row is exact exactly when no two of its present values share their
    # bits above the last one, -0.0 counted as +0.0.
    high = (x + 0.0).view(np.int64) >> 1
    distinct_keys = [np.unique(h[keep]).size == keep.sum() for h, keep in zip(high, present)]
    np.testing.assert_array_equal(exact, distinct_keys)


def test_label_order_leaves_ties_both_zeros_and_neighbours_to_the_sort():
    one_up = np.nextafter(1.0, 2.0)
    x = np.array([
        [3.0, -1.0, 2.0, 0.0],  # distinct, with one zero: exact
        [-0.0, -1.0, 2.0, 0.0],  # -0.0 == 0.0
        [1.0, one_up, 2.0, 3.0],  # distinct values whose keys differ in the last bit only
        [1.0, 1.0, 2.0, 3.0],
        [1.0, np.nan, 2.0, 3.0],  # distinct present values: exact
        [np.nan, 1.0, np.nan, 1.0],  # a tie among the present values
    ])
    y = np.array([1, 0, 0, 1])
    labels, exact, _ = label_order(x + 0.0, y, (~np.isnan(x)).sum(axis=1))
    assert exact.tolist() == [True, False, False, False, True, False]
    np.testing.assert_array_equal(labels[0], [0.0, 1.0, 0.0, 1.0])
    np.testing.assert_array_equal(labels[4, :3], [1.0, 0.0, 1.0])


def test_a_tie_free_column_with_missing_cells_is_exact():
    """Its NaN keys sort last and tie only among themselves, so its first
    n_j labels are y in the order of its values without a second sort."""
    rng = np.random.default_rng(3)
    n = 50
    x = rng.normal(size=(4, n))
    x[rng.random((4, n)) < 0.3] = np.nan
    y = rng.permutation(np.arange(n) % 2)
    labels, exact, _ = label_order(x + 0.0, y, (~np.isnan(x)).sum(axis=1))
    assert exact.all()
    want = y.astype(float)[np.argsort(x, axis=1)]
    for i, nj in enumerate((~np.isnan(x)).sum(axis=1)):
        assert 0 < nj < n
        np.testing.assert_array_equal(labels[i, :nj].view(np.int64), want[i, :nj].view(np.int64))
