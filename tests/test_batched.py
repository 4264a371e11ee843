"""Batched CDfdr and baselines: row i of a (runs, p) call is the 1-D call on
row i, bit for bit, and the baselines equal their per-row reference forms."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdmine.cdfdr import (
    INVERSE_FDR_MAX,
    FdrConfig,
    cdfdr_pipeline,
    estimate_residual_density,
    inverse_fdr_curve,
    norm_pdf,
    norm_sf,
)
from cdmine.errors import NonFinite, TooFewItems, ZeroSpread
from cdmine.simulate import bh_baseline, naive_two_step_baseline


def make_row(kind, p, rng):
    z = rng.standard_normal(p)
    if kind == "tied":
        z = np.round(2.0 * z) / 2.0
    elif kind == "signals":
        z[: max(1, p // 10)] += 4.5
    elif kind == "outlier":  # one item far out in the tail
        z[rng.integers(p)] = 8.0
    elif kind == "capped":  # far enough out that the theoretical weight overflows
        z[rng.integers(p)] = 41.0
    elif kind == "strong":  # every BH p-value far under its line
        z = 10.0 + rng.uniform(size=p)
    elif kind == "edges":  # items on and one ulp off the naive baseline's bin edges
        lo = rng.uniform(-5.0, 0.0)
        hi = lo + rng.uniform(0.1, 6.0)
        edges = np.linspace(lo, hi, 41)
        near = np.r_[edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)]
        z = rng.choice(near[(near >= lo) & (near <= hi)], p)
        z[0], z[-1] = lo, hi
    elif kind == "flat":
        z[:] = 1.25
    return z


ROW_KINDS = ("normal", "tied", "signals", "outlier", "capped", "strong", "edges")


@st.composite
def batches(draw, kinds=ROW_KINDS, min_p=20):
    p = draw(st.integers(min_p, 90))
    rows = draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return np.array([make_row(kind, p, rng) for kind in rows])


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert (a.dtype, a.shape) == (b.dtype, b.shape)
    assert a.tobytes() == b.tobytes()


def bh_reference(z, level):
    """Benjamini-Hochberg on one row through a stable ordering."""
    p = 2.0 * norm_sf(np.abs(z))
    order = np.argsort(p, kind="stable")
    passing = np.flatnonzero(p[order] <= level * (np.arange(1, p.size + 1) / p.size))
    mask = np.zeros(p.size, dtype=bool)
    if passing.size:
        mask[order[: passing[-1] + 1]] = True
    return mask


def naive_reference(z, level, bins=40):
    """The naive two-step fdr on one row through np.histogram."""
    lo, hi = z.min(), z.max()
    if hi - lo <= 0.0:
        return np.zeros(z.size, dtype=bool)
    dens, edges = np.histogram(z, bins=bins, range=(lo, hi), density=True)
    dens = np.maximum(dens, 1.0 / (z.size * (hi - lo)))
    idx = np.clip(np.searchsorted(edges, z, side="right") - 1, 0, bins - 1)
    return norm_pdf(z) / dens[idx] <= level


@settings(max_examples=120, deadline=None)
@given(
    batches(),
    st.sampled_from(["two", "left", "right"]),
    st.integers(1, 7),
    st.sampled_from([0.05, 0.2, 0.5]),
)
def test_cdfdr_rows_are_the_one_dimensional_calls(z, sides, n_coeffs, level):
    cfg = FdrConfig(fdr_level=level, n_coeffs=n_coeffs, sides=sides)
    try:
        rows = [cdfdr_pipeline(row, cfg) for row in z]
    except ZeroSpread:
        with pytest.raises(ZeroSpread):
            cdfdr_pipeline(z, cfg)
        return
    batch = cdfdr_pipeline(z, cfg)
    assert batch.null.mu0.shape == batch.null.sigma0.shape == (len(z),)
    for i, one in enumerate(rows):
        assert type(one.null.mu0) is float and type(one.null.sigma0) is float
        assert_same_bits(batch.null.mu0[i], one.null.mu0)
        assert_same_bits(batch.null.sigma0[i], one.null.sigma0)
        for field in ("u_flat", "inverse_fdr", "selected"):
            assert_same_bits(getattr(batch, field)[i], getattr(one, field))
        assert_same_bits(batch.residual.coeffs[i], one.residual.coeffs)
        assert_same_bits(batch.residual.kept[i], one.residual.kept)
    # The public steps compose to the pipeline on a batch as they do on a row.
    resid = estimate_residual_density(batch.u_flat, n_coeffs)
    assert_same_bits(resid.coeffs, batch.residual.coeffs)
    assert_same_bits(
        inverse_fdr_curve(z, batch.null, resid), batch.inverse_fdr
    )


@settings(max_examples=120, deadline=None)
@given(batches(ROW_KINDS + ("flat",), min_p=1), st.sampled_from([0.05, 0.2, 0.5]))
def test_baseline_rows_are_the_one_dimensional_calls(z, level):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bh, naive = bh_baseline(z, level), naive_two_step_baseline(z, level)
        for i, row in enumerate(z):
            assert_same_bits(bh[i], bh_baseline(row, level))
            assert_same_bits(bh[i], bh_reference(row, level))
            assert_same_bits(naive[i], naive_two_step_baseline(row, level))
            assert_same_bits(naive[i], naive_reference(row, level))


def test_edge_rows_in_one_batch():
    rng = np.random.default_rng(4)
    p = 200
    tied = np.r_[np.full(6, 3.9), np.full(6, -3.9), rng.standard_normal(p - 12)]
    capped = make_row("capped", p, rng)
    z = np.array([make_row("normal", p, rng), make_row("strong", p, rng), tied,
                  capped, make_row("outlier", p, rng)])
    bh = bh_baseline(z, 0.2)
    assert not bh[0].any() and bh[1].all()
    assert bh[2, :12].all()  # tied p-values pass or fail together
    for i, row in enumerate(z):
        assert_same_bits(bh[i], bh_reference(row, 0.2))
    result = cdfdr_pipeline(z)
    assert result.inverse_fdr[3].max() == INVERSE_FDR_MAX
    assert result.selected[3, np.argmax(capped)]
    for i, row in enumerate(z):
        assert_same_bits(result.inverse_fdr[i], cdfdr_pipeline(row).inverse_fdr)

    flat = np.vstack([z, np.full(p, -2.5)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        naive = naive_two_step_baseline(flat)
    assert not naive[-1].any()
    for i, row in enumerate(flat):
        assert_same_bits(naive[i], naive_reference(row, 0.2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("row", [0, 2])
def test_non_finite_cell_in_any_row_raises(bad, row):
    z = np.random.default_rng(1).standard_normal((3, 50))
    z[row, 7] = bad
    with pytest.raises(NonFinite):
        cdfdr_pipeline(z)


@pytest.mark.parametrize("row", [0, 2])
def test_constant_row_raises_zero_spread(row):
    z = np.random.default_rng(2).standard_normal((3, 50))
    z[row] = 0.75
    with pytest.raises(ZeroSpread):
        cdfdr_pipeline(z)


def test_short_rows_raise_too_few_items():
    with pytest.raises(TooFewItems, match="need at least 20 scores, got 19"):
        cdfdr_pipeline(np.random.default_rng(3).standard_normal((4, 19)))
