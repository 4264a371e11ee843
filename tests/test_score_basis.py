import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdmine.errors import DegenerateVariable, OutOfDomain, RankDeficient
from cdmine.midrank import VariableColumn, mid_rank_transform
from cdmine.score_basis import build_score_basis, evaluate_scores


def mid_of(values):
    return mid_rank_transform(VariableColumn.from_values(np.asarray(values, float)))


def gram(basis):
    n = basis.score_matrix.shape[0]
    return basis.score_matrix.T @ basis.score_matrix / n


def test_m1_is_standardized_midrank():
    mid = mid_of(np.arange(20))
    basis = build_score_basis(mid, 1)
    np.testing.assert_array_equal(
        basis.score_matrix[:, 0], (mid.u - 0.5) / mid.sigma_mid
    )
    assert np.mean(basis.score_matrix[:, 0] ** 2) == pytest.approx(1.0, abs=1e-12)


def test_gram_identity_200_distinct():
    rng = np.random.default_rng(3)
    mid = mid_of(rng.normal(size=200))
    basis = build_score_basis(mid, 4)
    assert np.abs(gram(basis) - np.eye(4)).max() < 1e-8
    assert np.abs(basis.score_matrix.mean(axis=0)).max() < 1e-10


def test_rank_deficient_three_distinct():
    mid = mid_of([0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 2.0, 0.0, 1.0])
    with pytest.raises(RankDeficient):
        build_score_basis(mid, 4)


def test_degenerate_constant():
    mid = mid_of([5.0, 5.0, 5.0, 5.0])
    with pytest.raises(DegenerateVariable):
        build_score_basis(mid, 1)


def test_too_small_sample():
    mid = mid_of([1.0, 2.0, 3.0])
    with pytest.raises(RankDeficient):
        build_score_basis(mid, 4)


def test_evaluate_matches_sample_points():
    rng = np.random.default_rng(9)
    mid = mid_of(rng.normal(size=80))
    basis = build_score_basis(mid, 4)
    vals = evaluate_scores(basis, mid.u)
    assert np.abs(vals - basis.score_matrix).max() < 1e-10


def test_s1_vanishes_at_half():
    mid = mid_of(np.arange(50))
    basis = build_score_basis(mid, 2)
    assert evaluate_scores(basis, 0.5)[0] == pytest.approx(0.0, abs=1e-12)


def test_out_of_domain():
    basis = build_score_basis(mid_of(np.arange(30)), 2)
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(OutOfDomain):
            evaluate_scores(basis, bad)


def test_score_shapes_oscillate_like_polynomials():
    # S_k behaves like a degree-k orthogonal polynomial: k sign changes
    # (linear, U-shaped quadratic, cubic, quartic).
    rng = np.random.default_rng(11)
    basis = build_score_basis(mid_of(rng.normal(size=2000)), 4)
    grid = np.linspace(0.005, 0.995, 400)
    vals = evaluate_scores(basis, grid)
    for k in range(1, 5):
        signs = np.sign(vals[:, k - 1])
        changes = np.sum(signs[:-1] * signs[1:] < 0)
        assert changes == k
    # quadratic is U-shaped: high at both ends, low in the middle
    s2 = vals[:, 1]
    assert s2[0] > s2[200] and s2[-1] > s2[200]


def test_s1_converges_to_sqrt12_line():
    rng = np.random.default_rng(21)
    basis = build_score_basis(mid_of(rng.normal(size=10_000)), 1)
    grid = np.linspace(0.01, 0.99, 200)
    dev = evaluate_scores(basis, grid)[:, 0] - np.sqrt(12.0) * (grid - 0.5)
    assert np.abs(dev).max() < 0.01


def test_permutation_equivariance():
    rng = np.random.default_rng(4)
    x = rng.normal(size=60)
    mid = mid_of(x)
    basis = build_score_basis(mid, 4)
    perm = rng.permutation(60)
    basis_p = build_score_basis(mid_of(x[perm]), 4)
    # inner products accumulate in a different order, so allow rounding noise
    np.testing.assert_allclose(
        basis_p.score_matrix, basis.score_matrix[perm], atol=1e-12
    )
    np.testing.assert_allclose(basis_p.poly_coeffs, basis.poly_coeffs, atol=1e-12)


@settings(deadline=None, max_examples=40)
@given(
    st.lists(st.sampled_from(list(range(12))), min_size=12, max_size=80),
    st.integers(min_value=1, max_value=4),
)
def test_orthonormality_with_ties(values, m):
    values = np.asarray(values, float)
    if np.unique(values).size <= m + 1:
        return
    mid = mid_of(values)
    try:
        basis = build_score_basis(mid, m)
    except RankDeficient:
        return
    assert np.abs(gram(basis) - np.eye(m)).max() < 1e-8
    assert np.abs(basis.score_matrix.mean(axis=0)).max() < 1e-10
