"""Acceptance suite: one test per exit criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 9 needs an external 6033-gene z-score file and is skipped
unless CDMINE_PROSTATE_CSV points at it.
"""

import os
import time

import numpy as np
import pytest
from scipy.stats import chi2, kstest, rankdata

import cdmine as c
from cdmine import panel
from cdmine.cdfdr import FdrConfig, cdfdr_pipeline, cr_to_z
from cdmine.dataset import ColumnMatrix, Dataset
from cdmine.midrank import VariableColumn
from cdmine.panel import panel_cr
from cdmine.pipeline import analyze, write_ranked_csv
from cdmine.simulate import SimConfig, run_experiment


def report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def analyzed(values, y, m=4):
    mid = c.mid_rank_transform(VariableColumn.from_values(np.asarray(values, float)))
    basis = c.build_score_basis(mid, m)
    data = c.TwoSampleData.from_arrays(mid.u, np.asarray(y, int))
    return mid, basis, data


def make_dataset(X, y):
    n, p = X.shape
    cols = [
        VariableColumn(values=X[:, j], missing=np.isnan(X[:, j]), name=f"v{j}")
        for j in range(p)
    ]
    return Dataset(variables=cols, labels=np.asarray(y, int), positive_label="1", n=n, p=p)


def test_criterion_1_exact_identities():
    start = time.time()
    rng = np.random.default_rng(1001)
    worst = {"mean": 0.0, "var": 0.0, "thm2": 0.0, "parseval": 0.0}
    for _ in range(100):
        n = int(rng.integers(20, 200))
        values = rng.choice(np.arange(8, dtype=float), size=n)  # heavy ties
        if np.unique(values).size < 7:
            values = np.arange(n, dtype=float) % 8 + rng.integers(0, 2)
        y = rng.integers(0, 2, n)
        if y.sum() < 2 or y.sum() > n - 2:
            y[:2] = [0, 1]
            y[-2:] = [1, 0]
        mid, basis, data = analyzed(values, y)
        worst["mean"] = max(worst["mean"], abs(mid.u.mean() - 0.5))
        p_hat = np.unique(values, return_counts=True)[1] / mid.n_effective
        var_target = (1.0 - np.sum(p_hat**3)) / 12.0
        var_n = np.mean((mid.u - mid.u.mean()) ** 2)
        worst["var"] = max(worst["var"], abs(var_n - var_target))
        th = c.theta_hat(data, basis)
        r = c.component_correlations(data, basis)
        factor = np.sqrt((1.0 - data.pi_hat) / data.pi_hat)
        worst["thm2"] = max(worst["thm2"], abs(th[0] - factor * r[0]))
        dhat = c.estimate_cd(th, basis)
        worst["parseval"] = max(
            worst["parseval"], abs(c.gof_norm(th) - np.mean((dhat(mid.u) - 1.0) ** 2))
        )
    elapsed = time.time() - start
    ok = (
        worst["mean"] < 1e-12
        and worst["var"] < 1e-12
        and worst["thm2"] < 1e-10
        and worst["parseval"] < 1e-10
        and elapsed < 5.0
    )
    report(1, ok, f"max devs {worst}, {elapsed:.2f}s")


def test_criterion_2_basis_quality():
    start = time.time()
    rng = np.random.default_rng(1002)
    worst = 0.0
    for trial in range(50):
        if trial % 2:
            values = rng.normal(size=2000)
        else:
            values = rng.choice(np.arange(100, dtype=float), size=2000)
        mid = c.mid_rank_transform(VariableColumn.from_values(values))
        for m in (4, 5, 6):
            basis = c.build_score_basis(mid, m)
            gram = basis.score_matrix.T @ basis.score_matrix / 2000
            worst = max(worst, np.abs(gram - np.eye(m)).max())
    elapsed = time.time() - start
    ok = worst < 1e-8 and elapsed < 10.0
    report(2, ok, f"max gram dev {worst:.3e}, {elapsed:.2f}s")


def test_criterion_3_null_calibration():
    start = time.time()
    rng = np.random.default_rng(1003)
    n, reps = 100, 2000
    mid = c.mid_rank_transform(VariableColumn.from_values(rng.normal(size=n)))
    basis = c.build_score_basis(mid, 4)
    ncr = np.empty(reps)
    pvals = np.empty(reps)
    for r in range(reps):
        y = rng.integers(0, 2, n)
        while y.sum() < 2 or y.sum() > n - 2:
            y = rng.integers(0, 2, n)
        data = c.TwoSampleData.from_arrays(mid.u, y)
        cr = c.cr_statistic(c.component_correlations(data, basis))
        ncr[r] = n * cr
        pvals[r] = c.null_pvalue(cr, n, 4)
    ks = kstest(ncr, chi2(df=4).cdf).statistic
    frac = (pvals < 0.05).mean()
    elapsed = time.time() - start
    ok = ks < 0.05 and 0.035 <= frac <= 0.065 and elapsed < 60.0
    report(3, ok, f"KS {ks:.4f}, frac(p<0.05) {frac:.4f}, {elapsed:.1f}s")


def engine_columns(rng, n, p):
    """Columns of every kind the panel engine meets, in turn: complete and
    tie-free (the shared grid table), rounded (ties), rounded with missing
    cells, and three-level (m reduced to 2); the last three take the masked
    path."""
    X = rng.normal(size=(n, p))
    kind = np.arange(p) % 4
    X[:, kind == 1] = np.round(X[:, kind == 1], 1)
    X[:, kind == 2] = np.round(X[:, kind == 2], 1)
    X[:, kind == 2] = np.where(rng.random((n, (kind == 2).sum())) < 0.1, np.nan, X[:, kind == 2])
    X[:, kind == 3] = rng.integers(0, 3, size=(n, (kind == 3).sum()))
    return [
        VariableColumn(values=X[:, j], missing=np.isnan(X[:, j]), name=f"v{j}")
        for j in range(p)
    ]


def balanced_labels(rng, n):
    return rng.permutation(np.arange(n) % 2)


def test_criterion_1_engine_identity_in_both_paths():
    # Sum of R_k^2 from panel_cr is the R^2 of the labels on polynomials of
    # degree m_used in the column's mid-ranks, whose span the scores share.
    start = time.time()
    rng = np.random.default_rng(1011)
    worst, shared, masked = 0.0, 0, 0
    for _ in range(20):
        n = int(rng.integers(20, 200))
        y = balanced_labels(rng, n)
        cols = engine_columns(rng, n, 40)
        out = panel_cr(ColumnMatrix.stack(cols, n), y, 4)
        for j, col in enumerate(cols):
            k = out.m_used[j]
            if k == 0:
                continue
            keep = ~col.missing
            u = (rankdata(col.values[keep]) - 0.5) / keep.sum()
            yk = y[keep].astype(float)
            design = np.vander(u - 0.5, k + 1)
            coef = np.linalg.lstsq(design, yk, rcond=None)[0]
            resid = yk - design @ coef
            r2 = 1.0 - resid @ resid / np.sum((yk - yk.mean()) ** 2)
            worst = max(worst, abs((out.components[j] ** 2).sum() - r2))
            tie_free = keep.all() and np.unique(col.values).size == n
            shared += tie_free
            masked += not tie_free
    elapsed = time.time() - start
    ok = worst < 1e-10 and shared > 0 and masked > 0 and elapsed < 5.0
    report("1 (engine)", ok, f"max |sum R^2 - R^2| {worst:.2e} over {shared} shared-grid "
           f"and {masked} masked columns, {elapsed:.2f}s")


def test_criterion_2_engine_masked_scores_orthonormal():
    start = time.time()
    rng = np.random.default_rng(1012)
    worst, checked = 0.0, 0
    for trial in range(20):
        n = int(rng.integers(20, 300))
        m = 4 if trial % 2 else 6
        cols = engine_columns(rng, n, 40)
        x = np.array([np.where(c.missing, np.nan, c.values) for c in cols])
        # In value order: each column's present entries first, NaN last.
        xs = np.sort(x, axis=1)
        first = np.ones(x.shape, dtype=bool)
        first[:, 1:] = xs[:, 1:] != xs[:, :-1]
        nj = (~np.isnan(x)).sum(axis=1)
        present = np.arange(n) < nj[:, None]
        scores, m_used, *_ = panel._masked_scores(first, nj, m)
        for q in range(len(cols)):
            s = scores[: m_used[q], q]
            gram = s @ s.T / nj[q]
            worst = max(
                worst,
                np.abs(gram - np.eye(m_used[q])).max(),
                np.abs(s.sum(axis=1) / nj[q]).max(),
                np.abs(s[:, ~present[q]]).max(initial=0.0),
            )
            checked += 1
    elapsed = time.time() - start
    ok = worst < 1e-10 and elapsed < 10.0
    report("2 (engine)", ok, f"max gram dev {worst:.3e} over {checked} masked columns, "
           f"{elapsed:.2f}s")


def test_engine_identities_at_m_7_and_8():
    # Criteria 1-4 stop at M = 6; this checks both engine paths up to M = 8.
    start = time.time()
    rng = np.random.default_rng(1016)
    worst = {"r2": 0.0, "masked": 0.0, "grid": 0.0}
    full = {"shared": 0, "masked": 0}
    for m in (7, 8):
        for _ in range(4):
            n = int(rng.integers(60, 200))
            y = balanced_labels(rng, n)
            cols = engine_columns(rng, n, 40)
            out = panel_cr(ColumnMatrix.stack(cols, n), y, m)
            for j, col in enumerate(cols):
                k = out.m_used[j]
                keep = ~col.missing
                u = (rankdata(col.values[keep]) - 0.5) / keep.sum()
                yk = y[keep].astype(float)
                design = np.polynomial.legendre.legvander(2.0 * u - 1.0, k)
                resid = yk - design @ np.linalg.lstsq(design, yk, rcond=None)[0]
                r2 = 1.0 - resid @ resid / np.sum((yk - yk.mean()) ** 2)
                worst["r2"] = max(worst["r2"], abs((out.components[j] ** 2).sum() - r2))
                tie_free = keep.all() and np.unique(col.values).size == n
                full["shared" if tie_free else "masked"] += int(k == m)
            x = np.array([np.where(c.missing, np.nan, c.values) for c in cols])
            xs = np.sort(x, axis=1)  # value order, NaN last
            first = np.ones(x.shape, dtype=bool)
            first[:, 1:] = xs[:, 1:] != xs[:, :-1]
            nj = (~np.isnan(x)).sum(axis=1)
            scores, m_used, *_ = panel._masked_scores(first, nj, m)
            for q in range(len(cols)):
                s = scores[: m_used[q], q]
                worst["masked"] = max(
                    worst["masked"],
                    np.abs(s @ s.T / nj[q] - np.eye(m_used[q])).max(),
                    np.abs(s.sum(axis=1) / nj[q]).max(),
                )
    n = 20_000
    table = panel.grid_scores(n, 8).score_matrix
    worst["grid"] = max(np.abs(table.T @ table / n - np.eye(8)).max(),
                        np.abs(table.mean(axis=0)).max())
    X = np.round(rng.normal(size=(150, 30)), 1)
    tied = analyze(make_dataset(X, balanced_labels(rng, 150)), m=8)
    elapsed = time.time() - start
    ok = (max(worst.values()) < 1e-10 and min(full.values()) > 0
          and (tied.panel.m_used == 8).all() and elapsed < 5.0)
    report("1-2 (engine, M = 7, 8)", ok,
           f"max |sum R^2 - R^2| {worst['r2']:.2e}, masked gram dev {worst['masked']:.2e}, "
           f"grid gram dev at n = {n} {worst['grid']:.2e}, full-M columns {full}, "
           f"{elapsed:.2f}s")


def test_criterion_3_engine_null_calibration():
    # One panel_cr call on 2000 null columns: half complete and tie-free,
    # half tied and a quarter of those with missing cells.
    start = time.time()
    rng = np.random.default_rng(1013)
    n, p = 100, 2000
    y = balanced_labels(rng, n)
    X = rng.normal(size=(n, p))
    X[:, p // 2 :] = np.round(X[:, p // 2 :], 1)
    holes = rng.random((n, p // 4)) < 0.05
    X[:, 3 * p // 4 :][holes] = np.nan
    cols = [VariableColumn.from_values(X[:, j], name=f"v{j}") for j in range(p)]
    out = panel_cr(ColumnMatrix.stack(cols, n), y, 4)
    cr = (out.components**2).sum(axis=1)
    ncr = out.n_effective * cr
    pvals = c.null_pvalue(cr, out.n_effective, 4)
    ks = kstest(ncr, chi2(df=4).cdf).statistic
    frac = (pvals < 0.05).mean()
    elapsed = time.time() - start
    ok = (out.m_used == 4).all() and ks < 0.05 and 0.035 <= frac <= 0.065 and elapsed < 60.0
    report("3 (engine)", ok, f"KS {ks:.4f}, frac(p<0.05) {frac:.4f}, {elapsed:.2f}s")


def test_criterion_4_engine_monotone_invariance_in_both_paths():
    start = time.time()
    rng = np.random.default_rng(1014)
    ok = True
    for _ in range(10):
        n = int(rng.integers(20, 200))
        y = balanced_labels(rng, n)
        cols = engine_columns(rng, n, 40)
        base = panel_cr(ColumnMatrix.stack(cols, n), y, 4)
        for f in (np.exp, np.arctan, lambda v: 3.0 * v - 1.0):
            moved = [VariableColumn(values=f(col.values), missing=col.missing) for col in cols]
            for col, mv in zip(cols, moved):
                keep = ~col.missing
                assert np.array_equal(rankdata(col.values[keep]), rankdata(mv.values[keep]))
            out = panel_cr(ColumnMatrix.stack(moved, n), y, 4)
            ok = ok and np.array_equal(out.components, base.components)
            ok = ok and np.array_equal(out.m_used, base.m_used) and out.flags == base.flags
    elapsed = time.time() - start
    ok = ok and elapsed < 10.0
    report("4 (engine)", ok, f"10 panels x 3 transforms bit-identical, {elapsed:.2f}s")


def test_criterion_4_monotone_invariance(tmp_path):
    start = time.time()
    rng = np.random.default_rng(1004)
    ok = True
    for trial in range(10):
        n, p = 80, 25
        y = rng.integers(0, 2, n)
        X = np.abs(rng.normal(size=(n, p))) + 0.1

        def ranked_bytes(Xv, tag):
            path = tmp_path / f"r{trial}_{tag}.csv"
            write_ranked_csv(analyze(make_dataset(Xv, y)), path)
            return path.read_bytes()

        base = ranked_bytes(X, "base")
        ok = ok and ranked_bytes(np.exp(X), "exp") == base
        ok = ok and ranked_bytes(np.log(X), "log") == base
        ok = ok and ranked_bytes(3.0 * X + 2.0, "aff") == base
    elapsed = time.time() - start
    ok = ok and elapsed < 10.0
    report(4, ok, f"10 datasets x 3 transforms byte-identical, {elapsed:.1f}s")


def test_criterion_5_gaussian_shift_experiment():
    start = time.time()
    ok = True
    details = []
    bands = {25: (15, 35), 50: (35, 65)}
    for m, (lo, hi) in bands.items():
        rep = run_experiment(SimConfig(m_signals=m, runs=100, seed=7))
        med = rep.summary["cdfdr"]["median"]
        mae = rep.summary["cdfdr"]["mae"]
        naive_mae = rep.summary["naive-two-step"]["mae"]
        ok = ok and lo <= med <= hi and mae < naive_mae
        details.append(f"M={m}: median {med}, mae {mae:.2f} vs naive {naive_mae:.2f}")
    elapsed = time.time() - start
    ok = ok and elapsed < 180.0
    report(5, ok, "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion_6_uniform_band_experiment():
    start = time.time()
    rep = run_experiment(
        SimConfig(m_signals=50, signal_model="uniform-band", lo=2.0, hi=4.0,
                  runs=100, seed=7)
    )
    med = rep.summary["cdfdr"]["median"]
    mae = rep.summary["cdfdr"]["mae"]
    naive_mae = rep.summary["naive-two-step"]["mae"]
    elapsed = time.time() - start
    ok = 10 <= med <= 90 and mae < naive_mae and elapsed < 180.0
    report(6, ok, f"median {med}, mae {mae:.2f} vs naive {naive_mae:.2f}, {elapsed:.1f}s")


def test_criterion_7_pure_null_fdr():
    start = time.time()
    rng = np.random.default_rng(1007)
    good = 0
    for _ in range(100):
        z = rng.standard_normal(1000)
        result = cdfdr_pipeline(z, FdrConfig())
        good += int(result.selected.sum()) <= 5
    elapsed = time.time() - start
    ok = good >= 90 and elapsed < 30.0
    report(7, ok, f"{good}/100 trials with <= 5 selections, {elapsed:.1f}s")


def test_criterion_8_planted_categorization():
    start = time.time()
    rng = np.random.default_rng(1008)
    n, p, nloc, nscale, trials = 500, 1000, 10, 10, 50
    planted = {f"v{j}": ("mean" if j < nloc else "variance") for j in range(nloc + nscale)}
    correct = detected = 0
    for _ in range(trials):
        y = np.zeros(n, int)
        y[n // 2:] = 1
        X = rng.normal(size=(n, p))
        for j in range(nloc):
            X[y == 1, j] += 1.0
        for j in range(nloc, nloc + nscale):
            X[y == 1, j] *= 3.0
        rep = analyze(make_dataset(X, y))
        cats = {va.name: va.cr.category for va in rep.per_variable}
        for name in rep.selected_names():
            if name in planted:
                detected += 1
                correct += cats[name] == planted[name]
    accuracy = correct / detected if detected else 0.0
    elapsed = time.time() - start
    ok = detected > 0 and accuracy >= 0.9 and elapsed < 120.0
    report(8, ok, f"{correct}/{detected} detected planted correctly labeled, {elapsed:.1f}s")


def test_criterion_9_prostate_optional():
    path = os.environ.get("CDMINE_PROSTATE_CSV")
    if not path or not os.path.exists(path):
        print("ACCEPTANCE 9: SKIP (set CDMINE_PROSTATE_CSV to the 6033-gene file)")
        pytest.skip("prostate dataset not supplied")
    ds = c.load_csv(path, label_column="cls")
    assert ds.p == 6033
    # z-score route
    from scipy.stats import norm, ttest_ind

    z = np.empty(ds.p)
    y = ds.labels
    for j, col in enumerate(ds.variables):
        t, pval = ttest_ind(col.values[y == 1], col.values[y == 0])
        z[j] = norm.isf(pval / 2.0) * np.sign(t)
    z_count = int(cdfdr_pipeline(z, FdrConfig()).selected.sum())
    # two-component CR route
    crs = []
    for col in ds.variables:
        mid, basis, data = analyzed(col.present(), y[~col.missing], m=2)
        crs.append(c.cr_statistic(c.component_correlations(data, basis)))
    cr_count = int(
        cdfdr_pipeline(
            cr_to_z(np.array(crs), ds.n, 2), FdrConfig(sides="right")
        ).selected.sum()
    )
    ok = 40 <= z_count <= 55 and 14 <= cr_count <= 24
    report(9, ok, f"z-route {z_count} selections, CR-route {cr_count}")
