"""The batched panel engine behind ``analyze`` against an independent
single-column oracle, and its components against the curve coefficients
drawn with its ``m_used``.

The oracle shares no code with the engine: its mid-ranks come from
``scipy.stats.rankdata`` and its scores from a QR factorisation of the
Vandermonde matrix of the centred mid-ranks, whose Q columns span the same
nested polynomial subspaces as the engine's recurrence; the sign of each
diagonal entry of R fixes the sign of each score."""

import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2, rankdata

from cdmine import panel, pipeline
from cdmine.comp_density import TwoSampleData, estimate_cd, theta_hat
from cdmine.dataset import ColumnMatrix, Dataset, load_csv
from cdmine.errors import ConfigError, NonFinite
from cdmine.midrank import VariableColumn, label_order, mid_rank_transform
from cdmine.pipeline import analyze
from cdmine.score_basis import build_score_basis

CATEGORIES = ("mean", "variance", "skewness", "tail")
KINDS = (
    "continuous",
    "shifted",
    "rounded",
    "binary",
    "ternary",
    "constant",
    "all-missing",
    "one-present",
    "class-too-small",
)
TOL = 1e-12
# Rows of the panels that cross a block boundary of the real size: a block
# then holds BLOCK_CELLS // WIDE_N = 512 columns.
WIDE_N = 256


def make_panel(n, n1, kinds, missing_rate, seed):
    rng = np.random.default_rng(seed)
    y = np.zeros(n, dtype=int)
    y[:n1] = 1
    rng.shuffle(y)
    cols = []
    for j, kind in enumerate(kinds):
        x = rng.normal(size=n)
        if kind == "shifted":
            x += 1.5 * y
        elif kind == "rounded":
            x = np.round(x, int(rng.integers(0, 2)))
        elif kind == "binary":
            x = rng.integers(0, 2, n).astype(float)
        elif kind == "ternary":
            x = rng.integers(0, 3, n).astype(float)
        elif kind == "constant":
            x[:] = 3.5
        elif kind == "all-missing":
            x[:] = np.nan
        elif kind == "one-present":
            x[np.arange(n) != rng.integers(0, n)] = np.nan
        elif kind == "class-too-small":
            x[y == 1] = np.nan
            if n1:
                x[np.flatnonzero(y == 1)[0]] = 0.25
        if kind in ("continuous", "shifted", "rounded", "binary", "ternary"):
            x[rng.random(n) < missing_rate] = np.nan
        cols.append(VariableColumn.from_values(x, name=f"{kind}{j}"))
    return Dataset(variables=cols, labels=y, positive_label="1", n=n, p=len(cols))


def oracle(values, missing, labels, m):
    """(flag, n_effective, m_used, components (m,)) of one column.

    m_used is min(m, n_j - 2, distinct - 1): the polynomials in the mid-rank
    that are orthogonal to the constant and not zero on the sample.  The
    flags come from the counts, all-missing before constant before
    class-too-small; a column with fewer than m scores is reduced-m."""
    present = ~np.asarray(missing)
    x = np.asarray(values)[present]
    y = np.asarray(labels)[present].astype(float)
    nj, n1, distinct = x.size, int(y.sum()), np.unique(x).size
    comps = np.zeros(m)
    if nj < 2:
        return "all-missing", nj, 0, comps
    if distinct == 1:
        return "constant", nj, 0, comps
    if n1 < 2 or nj - n1 < 2:
        return "class-too-small", nj, 0, comps
    k = min(m, nj - 2, distinct - 1)
    s = (rankdata(x) - 0.5) / nj - 0.5
    q, r = np.linalg.qr(np.vander(s, k + 1, increasing=True))
    yc = y - y.mean()
    comps[:k] = np.sign(np.diag(r)[1:]) * (q[:, 1:].T @ yc) / np.linalg.norm(yc)
    return ("" if k == m else f"reduced-m:{k}"), nj, k, comps


def oracle_category(components):
    """The label of the component that carries more than half of CR, else
    'mixed'; components past the fourth have no label."""
    sq = components**2
    top = int(sq.argmax())
    if top < len(CATEGORIES) and sq[top] > 0.5 * sq.sum() > 0.0:
        return CATEGORIES[top]
    return "mixed"


def category_is_determined(components):
    """False when CR is zero up to roundoff or the top component's share of
    CR is within roundoff of the one-half cut; either path may then round
    to the other side of that cut."""
    sq = np.asarray(components, dtype=float) ** 2
    total = sq.sum()
    return total > 1e-20 and abs(sq.max() / total - 0.5) > 1e-9


def assert_matches_reference(ds, m):
    report = analyze(ds, m=m)
    cols = ds.variables
    ref_cr = np.zeros(len(cols))
    for i, got in enumerate(report.per_variable):
        flag, n_eff, k, comps = oracle(cols.values[i], cols.missing[i], ds.labels, m)
        a = got.cr
        assert got.name == cols.names[i]
        assert (a.flag, a.n_effective, report.panel.m_used[i]) == (flag, n_eff, k), a.variable_id
        if category_is_determined(comps):
            assert a.category == oracle_category(comps), a.variable_id
        ref_cr[i] = comps @ comps
        assert np.abs(np.asarray(a.components) - comps).max() <= TOL, a.variable_id
        assert abs(a.cr - ref_cr[i]) <= TOL, a.variable_id
        pvalue = chi2.sf(n_eff * ref_cr[i], k) if k else 1.0
        assert a.pvalue == pytest.approx(pvalue, rel=1e-9, abs=1e-300)
    # Same ranks, except that columns whose oracle CRs agree within the
    # tolerance may come in either order.
    assert np.all(np.diff(ref_cr[report.order]) <= TOL)
    return report


@st.composite
def panels(draw):
    n = draw(st.integers(4, 40))
    n1 = draw(st.integers(0, n))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=16))
    missing_rate = draw(st.sampled_from([0.0, 0.0, 0.1, 0.4]))
    seed = draw(st.integers(0, 2**32 - 1))
    return make_panel(n, n1, kinds, missing_rate, seed), draw(st.integers(1, 6))


@settings(max_examples=150, deadline=None)
@given(panels(), st.integers(1, 5))
def test_engine_matches_reference_path(case, block):
    ds, m = case
    with mock.patch.object(panel, "BLOCK_CELLS", block * ds.n):  # block columns a block
        assert_matches_reference(ds, m)


@settings(max_examples=150, deadline=None)
@given(panels())
def test_curve_coefficients_are_the_engine_components(case):
    """The single-column reference path, a basis of the engine's m_used
    scores and its theta-hat, gives R_k sqrt((1 - pi)/pi): the identity a
    curve's theta is drawn from, so the curve and the CR row describe one
    fit."""
    ds, m = case
    out = panel.panel_cr(ds.variables, ds.labels, m)
    for i in np.flatnonzero(out.m_used):
        col, k = ds.variables[i], out.m_used[i]
        mid = mid_rank_transform(col)
        basis = build_score_basis(mid, k)
        assert basis.m == k, col.name
        data = TwoSampleData.from_arrays(mid.u, ds.labels[~col.missing])
        want = out.components[i, :k] * np.sqrt((1.0 - data.pi_hat) / data.pi_hat)
        assert np.abs(theta_hat(data, basis) - want).max() <= TOL, col.name


@settings(max_examples=100, deadline=None)
@given(panels(), st.data())
def test_a_subset_of_columns_gets_the_full_panel_s_flags_and_score_counts(case, data):
    """``cd`` runs the engine on its named columns only, in any order and
    with repeats: a column's flag, m_used and components do not depend on
    the other columns of the panel."""
    ds, m = case
    full = panel.panel_cr(ds.variables, ds.labels, m)
    idx = data.draw(st.lists(st.integers(0, ds.p - 1), min_size=1, max_size=8))
    subset = ds.variables[idx]
    assert subset.names == [ds.names[i] for i in idx]
    sub = panel.panel_cr(subset, ds.labels, m)
    assert sub.flags == [full.flags[i] for i in idx]
    np.testing.assert_array_equal(sub.m_used, full.m_used[idx])
    assert np.abs(sub.components - full.components[idx]).max() <= TOL


@pytest.mark.parametrize("n", [61, 90])
@pytest.mark.parametrize("m", [4, 8])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_a_column_s_row_depends_on_that_column_alone(n, m, seed):
    """On any subset of a panel's columns, in any order, each column's row
    equals the full panel's bit for bit: its components, counts, flag and
    basis depend on that column and the labels alone, in the shared path
    (complete and tie-free) and the masked one (tied or missing)."""
    rng = np.random.default_rng(seed)
    p = 60
    y = rng.permutation(np.arange(n) % 2)
    X = rng.normal(size=(p, n)) + 0.5 * y
    X[p // 2 :] = np.round(X[p // 2 :], 1)
    X[3 * p // 4 :, :: int(rng.integers(3, 9))] = np.nan
    cols = ColumnMatrix(X, np.isnan(X), [f"v{j}" for j in range(p)])
    full = panel.panel_cr(cols, y, m)
    assert (full.m_used[: p // 2] == m).all() and (full.m_used > 0).all()
    idx = rng.permutation(p)[: rng.integers(1, p + 1)].tolist()
    sub = panel.panel_cr(cols[idx], y, m)
    for field in ("components", "m_used", "n_effective", "sigma_mid", "a", "b"):
        np.testing.assert_array_equal(getattr(sub, field), getattr(full, field)[idx], field)
    assert sub.flags == [full.flags[i] for i in idx]


@settings(max_examples=60, deadline=None)
@given(panels())
def test_a_curve_is_drawn_from_its_engine_row(case):
    """``write_curves`` builds no basis of its own: its d-hat has the
    engine's sigma_mid, a and b for the column, and theta_k is exactly
    R_k sqrt((1 - pi)/pi), the class-1 mean of S_k."""
    ds, m = case
    out = panel.panel_cr(ds.variables, ds.labels, m)
    for i in np.flatnonzero(out.m_used):
        k = int(out.m_used[i])
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
            pipeline, "estimate_cd", wraps=pipeline.estimate_cd
        ) as draw:
            curve = pipeline.write_curves(ds, i, out, i, tmp, set())[0]
            dhat = np.loadtxt(curve, delimiter=",", skiprows=1)
        theta, basis = draw.call_args.args
        col = ds.variables[i]
        pi = ds.labels[~col.missing].mean()
        np.testing.assert_array_equal(theta, out.components[i, :k] * np.sqrt((1.0 - pi) / pi))
        assert basis.m == k and basis.sigma_mid == out.sigma_mid[i]
        np.testing.assert_array_equal(basis.a, out.a[i, : k - 1])
        np.testing.assert_array_equal(basis.b, out.b[i, :k])
        assert basis.score_matrix is None
        np.testing.assert_array_equal(dhat[:, 1], estimate_cd(theta, basis)(dhat[:, 0]))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_n_near_m_plus_one(seed, extra):
    """n from m + 1 to m + 4: reduced-m columns and the shared table's edge."""
    m = 4
    n = m + extra
    kinds = ["continuous"] * 4 + ["binary", "ternary", "rounded"]
    assert_matches_reference(make_panel(n, n // 2, kinds, 0.0, seed), m)


def test_blocks_of_the_real_size_are_crossed():
    rng = np.random.default_rng(5)
    block = panel.BLOCK_CELLS // WIDE_N
    kinds = list(rng.choice(KINDS, size=block + 37))
    # A missing rate low enough that complete, tie-free columns, which take
    # the shared table, sit on both sides of the block boundary.
    ds = make_panel(WIDE_N, 110, kinds, 0.005, 5)
    complete = ~ds.variables.missing.any(axis=1)
    shared = [
        j for j in np.flatnonzero(complete) if np.unique(ds.variables.values[j]).size == WIDE_N
    ]
    assert min(shared) < block <= max(shared)
    report = assert_matches_reference(ds, 4)
    assert len(report.per_variable) > block
    assert report.fdr is not None


def test_a_list_built_and_a_loaded_panel_give_the_same_analysis(tmp_path):
    """The same CSV as a list of columns and through ``load_csv``: ties, NA
    cells, constant columns and more than one block."""
    rng = np.random.default_rng(8)
    kinds = ["rounded", "binary", "constant", "all-missing"] + list(
        rng.choice(KINDS, size=panel.BLOCK_CELLS // WIDE_N + 37)
    )
    listed = make_panel(WIDE_N, 110, kinds, 0.005, 8)
    cells = np.where(listed.variables.missing, "NA", listed.variables.values.astype(str))
    rows = [listed.names + ["cls"]]
    rows += [list(row) + [str(label)] for row, label in zip(cells.T, listed.labels)]
    path = tmp_path / "panel.csv"
    path.write_text("".join(",".join(row) + "\n" for row in rows))
    loaded = load_csv(path, label_column="cls")
    assert loaded.names == listed.names
    np.testing.assert_array_equal(loaded.labels, listed.labels)
    np.testing.assert_array_equal(loaded.variables.missing, listed.variables.missing)
    np.testing.assert_array_equal(
        loaded.variables.values,
        np.where(listed.variables.missing, np.nan, listed.variables.values),
    )

    a, b = analyze(listed), analyze(loaded)
    assert a.panel.flags == b.panel.flags
    assert {"constant", "all-missing"} <= set(a.panel.flags)
    for got, want, fields in [
        (a.panel, b.panel, ("components", "n_effective", "m_used")),
        (a.fdr, b.fdr, ("z", "inverse_fdr", "selected")),
        (a, b, ("cr", "pvalue", "log_pvalue", "order")),
    ]:
        for field in fields:
            np.testing.assert_array_equal(getattr(got, field), getattr(want, field), field)


def test_both_paths_agree_on_a_complete_tie_free_column():
    rng = np.random.default_rng(6)
    n = 50
    y = np.arange(n) % 2
    x = rng.normal(size=n) + y
    ds = Dataset(
        variables=[VariableColumn.from_values(x, name="v")], labels=y,
        positive_label="1", n=n, p=1,
    )
    table = analyze(ds).per_variable[0].cr.components
    with mock.patch.object(panel, "grid_scores", lambda n, m: None):
        masked = panel.panel_cr(ds.variables, y, 4).components[0]
    np.testing.assert_allclose(table, masked, atol=TOL)


def every_row_sorted(x, y, nj):
    """``label_order`` with no exact row: every column takes ``tie_groups``."""
    return x, np.zeros(len(x), dtype=bool), np.ones(len(x), dtype=bool)


def assert_same_rows(got, want):
    for field in ("components", "n_effective", "m_used", "sigma_mid", "a", "b"):
        np.testing.assert_array_equal(
            getattr(got, field).view(np.uint8), getattr(want, field).view(np.uint8), field
        )
    assert got.flags == want.flags


def test_one_ulp_and_both_zero_columns_take_the_sort_and_keep_their_rows():
    rng = np.random.default_rng(12)
    n, p = 40, 5
    y = np.arange(n) % 2
    values = rng.normal(size=(p, n)) + y
    values[1, 4:6] = 1.0, np.nextafter(1.0, 2.0)  # tie-free, keys alike
    values[2, :2] = 0.0, -0.0  # tied: -0.0 == 0.0
    values[3, 7] = -0.0  # one zero only
    cols = ColumnMatrix(values, np.zeros((p, n), dtype=bool), [f"v{j}" for j in range(p)])
    assert label_order(values + 0.0, y, np.full(p, n))[1].tolist() == [True, False, False, True, True]
    got = panel.panel_cr(cols, y, 4)
    with mock.patch.object(panel, "label_order", every_row_sorted):
        want = panel.panel_cr(cols, y, 4)
    assert_same_rows(got, want)
    grid = panel.grid_scores(n, 4)
    # The one-ulp column is tie-free, so the sort sends it to the shared table.
    assert got.sigma_mid[1] == grid.sigma_mid and got.sigma_mid[2] < grid.sigma_mid


def test_only_rows_with_a_tagged_tie_take_the_sort():
    """A tie-free column with NA cells is exact: it takes the masked path in
    the order of its label keys, without ``tie_groups``, and its row equals
    the one a sort of every column gives, bit for bit."""
    rng = np.random.default_rng(13)
    n, p = 60, 12
    y = np.arange(n) % 2
    values = rng.normal(size=(p, n)) + y
    values[: p // 3] = np.round(values[: p // 3], 1)  # tied
    missing = rng.random((p, n)) < 0.1
    missing[:, 0] = True
    assert all(np.unique(row[~gap]).size < (~gap).sum() for row, gap in
               zip(values[: p // 3], missing[: p // 3]))
    cols = ColumnMatrix(values, missing, [f"v{j}" for j in range(p)])
    with mock.patch.object(panel, "tie_groups", wraps=panel.tie_groups) as sort:
        got = panel.panel_cr(cols, y, 4)
    assert sort.call_count == 1
    np.testing.assert_array_equal(sort.call_args.args[0], np.where(missing, np.nan, values)[: p // 3])
    assert (got.m_used == 4).all()
    with mock.patch.object(panel, "label_order", every_row_sorted):
        want = panel.panel_cr(cols, y, 4)
    assert_same_rows(got, want)


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 70), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_label_keys_give_the_rows_of_a_sort_of_every_column(n, m, seed):
    """Columns of every scale with ties, both zeros, neighbouring doubles,
    subnormals, NA and constants: the rows equal those of sorting them all."""
    rng = np.random.default_rng(seed)
    p = 30
    values = rng.normal(size=(p, n)) * 10.0 ** rng.integers(-300, 300, size=(p, 1))
    missing = np.zeros((p, n), dtype=bool)
    for j, kind in enumerate(rng.integers(0, 7, p)):
        i, k = rng.choice(n, 2, replace=False)
        if kind == 0:
            values[j] = np.round(rng.normal(size=n))
        elif kind == 1:
            values[j, i], values[j, k] = 0.0, -0.0
        elif kind == 2:
            values[j, k] = np.nextafter(values[j, i], np.inf)
        elif kind == 3:
            values[j] = rng.normal(size=n) * 1e-320
        elif kind == 4:
            missing[j, rng.random(n) < 0.2] = True
        elif kind == 5:
            values[j] = 3.0
    cols = ColumnMatrix(values, missing, [f"v{j}" for j in range(p)])
    y = rng.permutation(np.arange(n) % 2)
    got = panel.panel_cr(cols, y, m)
    with mock.patch.object(panel, "label_order", every_row_sorted):
        want = panel.panel_cr(cols, y, m)
    assert_same_rows(got, want)


def test_non_missing_inf_is_a_located_error():
    rng = np.random.default_rng(7)
    n = 30
    x = rng.normal(size=n)
    x[4] = np.inf
    cols = [
        VariableColumn.from_values(rng.normal(size=n), name="fine"),
        VariableColumn.from_values(x, name="gene 7"),
    ]
    ds = Dataset(variables=cols, labels=np.arange(n) % 2, positive_label="1", n=n, p=2)
    with pytest.raises(NonFinite, match=r"^variable 'gene 7': "):
        analyze(ds)


@pytest.mark.parametrize("with_na", [False, True], ids=["complete", "with-na"])
@pytest.mark.parametrize("label", [0, 1])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
def test_a_non_finite_cell_past_the_first_block_names_the_first_bad_column(bad, label, with_na):
    """Each kind of non-finite present cell, on a row of either label (+inf
    and -inf labelled 1 tag to NaNs), in a complete column or one with NA
    cells: the error names the first column with two or more present cells
    that holds one.  A column whose one present cell is non-finite is
    all-missing, not an error."""
    n = WIDE_N
    block = panel.BLOCK_CELLS // n
    p = block + 40
    values = np.random.default_rng(9).normal(size=(p, n))
    missing = np.zeros((p, n), dtype=bool)
    y = np.arange(n) % 2
    if with_na:
        missing[:, ::9] = True
    row = np.flatnonzero(y == label)[1]  # a present row of that label
    assert not missing[:, row].any()
    missing[3] = True
    for j in (3, block + 5, block + 20):
        values[j, row] = bad
        missing[j, row] = False
    values[missing] = np.nan
    cols = ColumnMatrix(values, missing, [f"g{j}" for j in range(p)])
    with pytest.raises(NonFinite, match=rf"^variable 'g{block + 5}': "):
        panel.panel_cr(cols, y, 4)


def test_m_below_one_is_a_config_error():
    col = VariableColumn.from_values(np.arange(30.0), name="a")
    with pytest.raises(ConfigError, match="m must be >= 1"):
        panel.panel_cr(ColumnMatrix.stack([col], 30), np.arange(30) % 2, 0)


def test_masked_scores_stop_at_the_largest_column_s_n_minus_2():
    """No column has more than n_j - 2 scores, so M past that adds zero
    columns of components and no memory."""
    rng = np.random.default_rng(10)
    n, p = 40, 30
    values = np.round(rng.normal(size=(p, n)), 1)  # tied: the masked path
    cols = ColumnMatrix(values, np.zeros((p, n), dtype=bool), [f"v{j}" for j in range(p)])
    y = np.arange(n) % 2

    def run(m):
        tracemalloc.start()
        try:
            out = panel.panel_cr(cols, y, m)
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    low, low_peak = run(n - 2)
    high, high_peak = run(n + 50)
    np.testing.assert_array_equal(high.m_used, low.m_used)
    assert high.flags == low.flags
    np.testing.assert_array_equal(high.components[:, : n - 2], low.components)
    assert not high.components[:, n - 2 :].any()
    assert high_peak <= 1.2 * low_peak


def test_masked_memory_at_the_largest_m_stays_near_the_default_m():
    """The masked path builds its (k, q, n) scores for runs of columns that
    hold no more than a block's at the default M, so its peak at M = n - 2
    stays within a small multiple of its peak at M = 4.  Runs change only
    the batching of each column's sums."""
    rng = np.random.default_rng(12)
    n = 40
    p = panel.BLOCK_CELLS // n  # one block
    values = np.round(rng.normal(size=(p, n)), 1)  # tied: the masked path
    cols = ColumnMatrix(values, np.zeros((p, n), dtype=bool), [f"v{j}" for j in range(p)])
    y = np.arange(n) % 2

    def run(m):
        tracemalloc.start()
        try:
            out = panel.panel_cr(cols, y, m)
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    _, default_peak = run(4)
    high, high_peak = run(n - 2)
    assert high_peak <= 3 * default_peak
    with mock.patch.object(panel, "DEFAULT_M", n * p):  # one run per block
        whole = panel.panel_cr(cols, y, n - 2)
    np.testing.assert_array_equal(high.m_used, whole.m_used)
    assert high.flags == whole.flags
    np.testing.assert_allclose(high.components, whole.components, rtol=0, atol=TOL)


@pytest.mark.parametrize(
    "n, p, decimals, multiple",
    [
        (500, 1000, None, 5),  # complete, tie-free: the shared table
        (100, 5000, None, 5),
        (100, 5000, 1, 20),  # rounded to one decimal: the masked path, M = 4 scores
    ],
)
def test_block_temporaries_stay_within_the_cell_budget(n, p, decimals, multiple):
    """A block holds BLOCK_CELLS // n columns, so the peak of ``panel_cr``
    above its outputs stays within a fixed multiple of BLOCK_CELLS doubles
    whatever the panel's shape."""
    values = np.random.default_rng(11).normal(size=(p, n))
    if decimals is not None:
        values = np.round(values, decimals)
    cols = ColumnMatrix(values, np.zeros((p, n), dtype=bool), [f"v{j}" for j in range(p)])
    y = np.arange(n) % 2
    tracemalloc.start()
    try:
        out = panel.panel_cr(cols, y, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = out.components.nbytes + out.n_effective.nbytes + out.m_used.nbytes + 8 * p
    assert peak <= multiple * panel.BLOCK_CELLS * 8 + outputs
