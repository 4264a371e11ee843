import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from cdmine.errors import DegenerateVariable, OutOfDomain, RankDeficient
from cdmine.midrank import VariableColumn, mid_rank_transform
from cdmine.score_basis import build_score_basis, evaluate_scores, recurrence_scores


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
    # the same functions of u, not only the same values at the sample
    grid = np.linspace(0.005, 0.995, 200)
    np.testing.assert_allclose(
        evaluate_scores(basis_p, grid), evaluate_scores(basis, grid), atol=1e-12
    )


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


def vandermonde_qr_scores(x, m):
    """Oracle: S_1..S_m at the entries of x, from a QR factorisation of
    [1, s, ..., s^m] in the centred mid-rank s, scaled to unit norm under
    the weights 1/n; the sign of each column is that of the diagonal of R,
    so each score has a positive leading coefficient."""
    n = x.size
    s = (rankdata(x) - 0.5) / n - 0.5
    q, r = np.linalg.qr(np.vander(s, m + 1, increasing=True) / np.sqrt(n))
    return (np.sign(np.diag(r)) * q * np.sqrt(n))[:, 1:].T


@st.composite
def tied_batches(draw):
    """(values (q, n) with NaN at missing cells, m): each column has at
    least 4 present cells and 2 distinct values, drawn from a few levels."""
    n = draw(st.integers(4, 40))
    q = draw(st.integers(1, 6))
    cols = []
    for _ in range(q):
        levels = draw(st.integers(2, 12))
        x = np.array(draw(st.lists(st.integers(0, levels - 1), min_size=n, max_size=n)), float)
        holes = draw(st.lists(st.booleans(), min_size=n, max_size=n)) if draw(st.booleans()) else []
        x[np.flatnonzero(holes)] = np.nan
        present = x[~np.isnan(x)]
        if present.size < 4 or np.unique(present).size < 2:
            x = np.arange(n) % 2.0
        cols.append(x)
    return np.array(cols), draw(st.integers(1, 6))


@settings(deadline=None, max_examples=300)
@given(tied_batches())
def test_recurrence_matches_a_vandermonde_qr(case):
    values, m = case
    w = (~np.isnan(values)).astype(float)
    nj = w.sum(axis=1).astype(int)
    s1 = np.zeros(values.shape)
    for j, x in enumerate(values):
        keep = w[j] > 0
        s = (rankdata(x[keep]) - 0.5) / nj[j] - 0.5
        s1[j, keep] = s / np.sqrt(np.mean(s**2))
    scores, m_used, _, _ = recurrence_scores(s1, w, nj, m)
    assert scores.shape == (m,) + values.shape
    assert np.all(scores[:, w == 0] == 0.0)
    for j, x in enumerate(values):
        keep = w[j] > 0
        distinct = np.unique(x[keep]).size
        assert m_used[j] == min(m, nj[j] - 2, distinct - 1)
        k = m_used[j]
        want = vandermonde_qr_scores(x[keep], k)
        assert np.abs(scores[:k, j][:, keep] - want).max() < 1e-10
