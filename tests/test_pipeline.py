import csv
import os

import numpy as np
import pytest

from cdmine.cdfdr import cr_to_z, log_p_to_z
from cdmine.comp_density import TwoSampleData, estimate_cd, pp_plot_points, theta_hat
from cdmine.dataset import Dataset
from cdmine.errors import ConfigError, TooFewItems
from cdmine.midrank import VariableColumn, mid_rank_transform
from cdmine.pipeline import (
    CURVE_GRID_SIZE,
    analyze,
    export_plots,
    write_ranked_csv,
    write_summary_json,
)
from cdmine.score_basis import build_score_basis


def make_dataset(X, y, names=None):
    n, p = X.shape
    names = names or [f"v{j}" for j in range(p)]
    cols = [
        VariableColumn(values=X[:, j], missing=np.isnan(X[:, j]), name=names[j])
        for j in range(p)
    ]
    return Dataset(variables=cols, labels=np.asarray(y, int), positive_label="1", n=n, p=p)


def column_sample(ds, i):
    """Mid-ranks and labels of the present entries of the variable at position i."""
    col = ds.variables[i]
    mid = mid_rank_transform(col)
    return mid, TwoSampleData.from_arrays(mid.u, ds.labels[~col.missing])


def reference_density(ds, i, m):
    """(u, dhat) on the curve grid, from the full basis of m scores of the
    variable at position i."""
    mid, data = column_sample(ds, i)
    basis = build_score_basis(mid, m)
    u = (np.arange(CURVE_GRID_SIZE) + 0.5) / CURVE_GRID_SIZE
    return u, estimate_cd(theta_hat(data, basis), basis)(u)


def null_dataset(rng, n=80, p=30):
    return make_dataset(rng.normal(size=(n, p)), rng.integers(0, 2, n))


def test_null_panels_rarely_select():
    rng = np.random.default_rng(100)
    quiet = 0
    for _ in range(10):
        report = analyze(null_dataset(rng, n=100, p=40))
        quiet += len(report.selected_names()) == 0
    assert quiet >= 9


def test_analyze_rejects_a_bad_level_and_an_empty_panel():
    # Ten variables are too few for the fdr stage, which used to be the only
    # place that read the level.
    small = null_dataset(np.random.default_rng(99), p=10)
    with pytest.raises(ConfigError, match="fdr_level"):
        analyze(small, fdr_level=1.5)
    empty = Dataset(variables=[], labels=small.labels, positive_label="1", n=small.n, p=0)
    with pytest.raises(TooFewItems, match="no variables"):
        analyze(empty)


def test_planted_location_column():
    rng = np.random.default_rng(101)
    n, p = 200, 30
    y = rng.integers(0, 2, n)
    X = rng.normal(size=(n, p))
    X[:, 7] += 2.0 * y
    report = analyze(make_dataset(X, y))
    top = report.order[0]
    assert report.names[top] == "v7"
    assert report.categories[top] == "mean"
    assert "v7" in report.selected_names()


def test_planted_scale_column_u_shaped_density(tmp_path):
    rng = np.random.default_rng(102)
    n, p = 400, 30
    y = rng.integers(0, 2, n)
    X = rng.normal(size=(n, p))
    X[:, 3] *= 1.0 + 3.0 * y
    report = analyze(make_dataset(X, y))
    top = report.order[0]
    assert report.names[top] == "v3"
    assert report.categories[top] == "variance"
    assert report.selected_positions()[0] == top
    export_plots(report, tmp_path, top_k=1)
    u, dhat = np.loadtxt(tmp_path / "cd_v3.csv", delimiter=",", skiprows=1).T
    want_u, want_dhat = reference_density(report.dataset, top, report.m)
    np.testing.assert_allclose(u, want_u, atol=1e-9)
    np.testing.assert_allclose(dhat, want_dhat, atol=1e-9)
    d = lambda q: dhat[np.argmin(np.abs(u - q))]
    assert d(0.05) > d(0.5) and d(0.95) > d(0.5)


def test_monotone_invariance_byte_identical(tmp_path):
    rng = np.random.default_rng(103)
    n, p = 100, 25
    y = rng.integers(0, 2, n)
    X = np.abs(rng.normal(size=(n, p))) + 0.1

    def report_bytes(Xv, tag):
        path = tmp_path / f"ranked_{tag}.csv"
        write_ranked_csv(analyze(make_dataset(Xv, y)), path)
        return path.read_bytes()

    base = report_bytes(X, "base")
    assert report_bytes(np.exp(X), "exp") == base
    assert report_bytes(np.log(X), "log") == base
    assert report_bytes(4.0 * X + 3.0, "affine") == base


def test_every_variable_reported_once_with_flags():
    rng = np.random.default_rng(104)
    n = 60
    y = rng.integers(0, 2, n)
    X = rng.normal(size=(n, 22))
    X[:, 0] = 7.0  # constant
    X[:, 1] = np.nan  # all missing
    X[:, 2] = (np.arange(n) % 2).astype(float)  # binary: basis reduced to m=1
    report = analyze(make_dataset(X, y))
    ids = [report.names[i] for i in report.order]
    assert sorted(ids) == sorted(f"v{j}" for j in range(22))
    flags = {va.name: va.cr.flag for va in report.per_variable}
    assert flags["v0"] == "constant"
    assert flags["v1"] == "all-missing"
    assert flags["v2"].startswith("reduced-m:")
    assert report.cr[report.names.index("v0")] == 0.0
    # One log tail serves z and log10_pvalue; a flagged row sits at p = 1.
    flagged = report.panel.m_used == 0
    assert flagged.sum() == 2 and (report.log_pvalue[flagged] == 0.0).all()
    np.testing.assert_array_equal(report.fdr.z, log_p_to_z(report.log_pvalue))
    np.testing.assert_array_equal(
        report.fdr.z, cr_to_z(report.cr, report.panel.n_effective,
                              np.maximum(report.panel.m_used, 1))
    )


def test_fdr_skipped_below_minimum_panel():
    rng = np.random.default_rng(105)
    report = analyze(null_dataset(rng, n=50, p=10))
    assert report.fdr is None
    assert report.selected_names() == []


def test_export_zero_selected_only_sorted_cr(tmp_path):
    rng = np.random.default_rng(106)
    report = analyze(null_dataset(rng, n=100, p=40))
    if report.selected_names():
        pytest.skip("unlucky null draw selected something")
    written = export_plots(report, tmp_path)
    assert [os.path.basename(p) for p in written] == ["sorted_cr.csv"]


def test_export_top_k_files_and_roundtrip(tmp_path):
    rng = np.random.default_rng(107)
    n, p = 200, 30
    y = rng.integers(0, 2, n)
    X = rng.normal(size=(n, p))
    X[:, 0] += 2.5 * y
    X[:, 1] *= 1.0 + 3.0 * y
    X[:, 2] += 2.0 * y
    report = analyze(make_dataset(X, y))
    assert len(report.selected_names()) >= 2
    written = export_plots(report, tmp_path, top_k=2, svg=True)
    names = sorted(os.path.basename(w) for w in written)
    assert sum(b.startswith("cd_") and b.endswith(".csv") for b in names) == 2
    assert sum(b.startswith("pp_") and b.endswith(".csv") for b in names) == 2
    assert sum(b.endswith(".svg") for b in names) == 2 * 2 + 1

    top = report.selected_positions()[0]
    top_name = report.names[top]
    u, dhat = reference_density(report.dataset, top, report.m)
    with open(tmp_path / f"cd_{top_name}.csv") as fh:
        rows = list(csv.DictReader(fh))
    got = np.array([[float(r["u"]), float(r["dhat"])] for r in rows])
    np.testing.assert_allclose(got[:, 0], u, atol=1e-9)
    np.testing.assert_allclose(got[:, 1], dhat, atol=1e-9)
    with pytest.raises(ConfigError):
        export_plots(report, tmp_path, top_k=-1)


def test_ranked_csv_rows_follow_positions_not_names(tmp_path):
    rng = np.random.default_rng(109)
    n, p = 200, 30
    y = rng.integers(0, 2, n)
    X = rng.normal(size=(n, p))
    X[:, 5] += 2.5 * y
    names = [f"v{j}" for j in range(p)]
    names[5] = names[20] = "dup"
    report = analyze(make_dataset(X, y, names))
    path = tmp_path / "ranked.csv"
    write_ranked_csv(report, path)
    with open(path) as fh:
        rows = [r for r in csv.DictReader(fh) if r["variable_id"] == "dup"]
    assert len(rows) == 2
    for row in rows:
        i = int(report.order[int(row["rank"]) - 1])
        assert float(row["CR"]) == report.per_variable[i].cr.cr
        assert float(row["z"]) == report.fdr.z[i]
        assert row["selected"] == str(int(report.fdr.selected[i]))
    assert sorted(r["selected"] for r in rows) == ["0", "1"]
    assert report.selected_names().count("dup") == 1


def test_one_column_class_too_small():
    y = np.zeros(30, int)
    y[0] = 1
    va = analyze(make_dataset(np.arange(30.0)[:, None], y), m=4).per_variable[0]
    assert va.cr.flag == "class-too-small"
    assert va.cr.cr == 0.0


def test_deterministic_output(tmp_path):
    rng = np.random.default_rng(108)
    n, p = 80, 25
    y = rng.integers(0, 2, n)
    X = rng.normal(size=(n, p))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_ranked_csv(analyze(make_dataset(X, y)), a)
    write_ranked_csv(analyze(make_dataset(X, y)), b)
    assert a.read_bytes() == b.read_bytes()


def test_rank_outputs_leave_per_variable_unbuilt(tmp_path):
    rng = np.random.default_rng(110)
    n, p = 120, 30
    y = rng.integers(0, 2, n)
    X = rng.normal(size=(n, p))
    X[:, 4] += 2.5 * y
    X[:5, 6] = np.nan
    report = analyze(make_dataset(X, y))
    write_ranked_csv(report, tmp_path / "ranked.csv")
    write_summary_json(report, tmp_path / "summary.json")
    export_plots(report, tmp_path, top_k=3, svg=True)
    assert report.selected_names()
    assert "per_variable" not in vars(report)
    # Built on demand, it agrees with the arrays the writers read.
    for i, va in enumerate(report.per_variable):
        assert va.name == report.names[i] and va.cr.variable_id == report.names[i]
        np.testing.assert_array_equal(va.cr.components, report.panel.components[i])
        assert va.cr.cr == report.cr[i] and va.cr.pvalue == report.pvalue[i]
        assert va.cr.category == report.categories[i]
        assert va.cr.flag == report.panel.flags[i]
        assert va.cr.n_effective == report.panel.n_effective[i]
    assert report.per_variable is report.per_variable


def test_export_names_that_sanitise_alike_keep_their_own_files(tmp_path):
    rng = np.random.default_rng(111)
    n, p = 200, 30
    y = rng.integers(0, 2, n)
    X = rng.normal(size=(n, p))
    X[:, 0] += 2.5 * y
    X[:, 1] += 2.0 * y
    names = ["a b", "a_b"] + [f"v{j}" for j in range(2, p)]
    report = analyze(make_dataset(X, y, names))
    assert {"a b", "a_b"} <= set(report.selected_names())
    written = export_plots(report, tmp_path, top_k=2)
    assert sorted(os.path.basename(w) for w in written) == [
        "cd_a_b.csv", "cd_a_b_2.csv", "pp_a_b.csv", "pp_a_b_2.csv", "sorted_cr.csv"
    ]
    first, second = report.selected_positions()[:2]
    for i, stem in ((first, "a_b"), (second, "a_b_2")):
        got = np.loadtxt(tmp_path / f"pp_{stem}.csv", delimiter=",", skiprows=1)
        np.testing.assert_array_equal(got, pp_plot_points(column_sample(report.dataset, i)[1]))
