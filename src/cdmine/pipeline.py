"""End-to-end analysis: transform, basis expansion, CR statistics, ranking,
and CDfdr threshold selection, plus report/plot-data export."""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, replace

import numpy as np

from . import svgplot
from .cdfdr import FdrConfig, FdrResult, NullMethod, cdfdr_pipeline, cr_to_z
from .comp_density import CdEstimate, TwoSampleData, cd_estimate, estimate_cd
from .cr import (
    CrResult,
    RankedReport,
    categorize_rows,
    cr_result,
    null_pvalue,
    rank_variables,
)
from .dataset import Dataset
from .errors import AllMissing, ConfigError, DegenerateVariable
from .midrank import VariableColumn, mid_rank_transform
from .panel import panel_cr
from .score_basis import ScoreBasis, feasible_score_basis

CURVE_GRID_SIZE = 512
MIN_FDR_ITEMS = 20


def fmt(x) -> str:
    """Lossless decimal serialization for report numbers."""
    return format(float(x), ".17g")


@dataclass(frozen=True)
class VariableAnalysis:
    """One variable's CR result.

    ``analyze`` leaves basis and cd out; ``with_density`` rebuilds them
    from the column and labels kept here.
    """

    name: str
    cr: CrResult
    basis: ScoreBasis | None = None
    cd: CdEstimate | None = None
    column: VariableColumn | None = None
    labels: np.ndarray | None = None


@dataclass(frozen=True)
class AnalysisReport:
    per_variable: list  # VariableAnalysis, input order
    ranked: RankedReport
    fdr: FdrResult | None  # None when too few variables for the fdr stage
    m: int
    fdr_level: float
    n: int

    def selected_positions(self):
        """Input positions of the CDfdr-selected variables, in rank order."""
        if self.fdr is None:
            return []
        return [int(i) for i in np.argsort(self.ranked.ranks) if self.fdr.selected[i]]

    def selected_names(self):
        return [self.per_variable[i].name for i in self.selected_positions()]


def analyze_variable(
    col: VariableColumn, labels: np.ndarray, m: int
) -> VariableAnalysis:
    """Single-column reference path, basis and density estimate included.

    Degenerate columns come back flagged, not raised; m < 1 is a ConfigError.
    """
    if m < 1:
        raise ConfigError("m must be >= 1")
    name = col.name
    mask = ~col.missing
    y = np.asarray(labels)[mask]

    def flagged(reason, n_eff):
        cr = CrResult(
            components=np.zeros(m),
            cr=0.0,
            pvalue=1.0,
            category="mixed",
            n_effective=n_eff,
            variable_id=name,
            flag=reason,
        )
        return VariableAnalysis(name=name, cr=cr, column=col, labels=labels)

    try:
        mid = mid_rank_transform(col)
    except AllMissing:
        return flagged("all-missing", int(mask.sum()))
    if mid.sigma_mid <= 0.0:
        return flagged("constant", mid.n_effective)
    counts = np.bincount(y, minlength=2)
    if counts[0] < 2 or counts[1] < 2:
        return flagged("class-too-small", mid.n_effective)
    basis = feasible_score_basis(mid, m)
    if basis is None:
        return flagged("rank-deficient", mid.n_effective)

    data = TwoSampleData.from_arrays(mid.u, y)
    cr = cr_result(data, basis, variable_id=name)
    if basis.m < m:
        comps = np.zeros(m)
        comps[: basis.m] = cr.components
        cr = replace(cr, components=comps, flag=f"reduced-m:{basis.m}")
    return VariableAnalysis(
        name=name,
        cr=cr,
        basis=basis,
        cd=cd_estimate(data, basis),
        column=col,
        labels=labels,
    )


def with_density(va: VariableAnalysis) -> VariableAnalysis:
    """``va`` with its basis and density estimate, rebuilt through
    ``analyze_variable`` when ``analyze`` left them out."""
    if va.cd is not None or va.column is None:
        return va
    return analyze_variable(va.column, va.labels, len(va.cr.components))


def analyze(
    dataset: Dataset,
    m: int = 4,
    fdr_level: float = 0.2,
    null_method: NullMethod = NullMethod.POOLED_MOMENTS,
) -> AnalysisReport:
    if m < 1:
        raise ConfigError("m must be >= 1")
    labels = np.asarray(dataset.labels)
    panel = panel_cr(dataset.variables, labels, m)
    cr = (panel.components**2).sum(axis=1)
    ok = panel.m_used > 0
    pvalue = np.ones(cr.size)
    pvalue[ok] = null_pvalue(cr[ok], panel.n_effective[ok], panel.m_used[ok])
    categories = categorize_rows(panel.components)
    per_variable = [
        VariableAnalysis(
            name=col.name,
            cr=CrResult(
                components=panel.components[i],
                cr=float(cr[i]),
                pvalue=float(pvalue[i]),
                category=categories[i],
                n_effective=int(panel.n_effective[i]),
                variable_id=col.name,
                flag=panel.flags[i],
            ),
            column=col,
            labels=labels,
        )
        for i, col in enumerate(dataset.variables)
    ]

    ranked = rank_variables([va.cr for va in per_variable])

    fdr = None
    if len(per_variable) >= MIN_FDR_ITEMS:
        # A one-sided z per variable through its own chi-square df keeps
        # reduced-df columns comparable; flagged columns sit at p = 1.
        z = cr_to_z(cr, panel.n_effective, np.maximum(panel.m_used, 1))
        fdr = cdfdr_pipeline(
            z,
            FdrConfig(fdr_level=fdr_level, null_method=null_method, sides="right"),
        )
    return AnalysisReport(
        per_variable=per_variable,
        ranked=ranked,
        fdr=fdr,
        m=m,
        fdr_level=fdr_level,
        n=dataset.n,
    )


def curve_grid(va: VariableAnalysis, size: int = CURVE_GRID_SIZE):
    """(u, dhat) on an open-interval grid for one analyzed variable."""
    va = with_density(va)
    if va.cd is None or va.basis is None:
        raise DegenerateVariable(f"variable {va.name!r} has no density estimate")
    u = (np.arange(size) + 0.5) / size
    dhat = estimate_cd(va.cd.theta, va.basis)(u)
    return u, dhat


def write_ranked_csv(report: AnalysisReport, path):
    m = report.m
    header = (
        ["variable_id", "n_effective"]
        + [f"R{a}" for a in range(1, m + 1)]
        + ["CR", "pvalue", "category", "rank", "flag", "z", "inverse_fdr", "selected"]
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for rank0, i in enumerate(np.argsort(report.ranked.ranks)):
            cr = report.per_variable[i].cr
            if report.fdr is not None:
                z, inv = fmt(report.fdr.z[i]), fmt(report.fdr.inverse_fdr[i])
                sel = "1" if report.fdr.selected[i] else "0"
            else:
                z, inv, sel = "", "", "0"
            comps = list(cr.components) + [0.0] * (m - len(cr.components))
            row = (
                [cr.variable_id, str(cr.n_effective)]
                + [fmt(c) for c in comps[:m]]
                + [fmt(cr.cr), fmt(cr.pvalue), cr.category, str(rank0 + 1), cr.flag]
                + [z, inv, sel]
            )
            fh.write(",".join(row) + "\n")


def write_sorted_cr_csv(report: AnalysisReport, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("rank,variable_id,cr\n")
        for rank0, cr in enumerate(report.ranked.ordered):
            fh.write(f"{rank0 + 1},{cr.variable_id},{fmt(cr.cr)}\n")


def write_summary_json(report: AnalysisReport, path):
    payload = {
        "n": report.n,
        "p": len(report.per_variable),
        "m": report.m,
        "fdr_level": report.fdr_level,
        "selected": report.selected_names(),
        "n_selected": len(report.selected_names()),
        "flagged": {
            va.name: va.cr.flag for va in report.per_variable if va.cr.flag
        },
    }
    if report.fdr is not None:
        payload["null"] = {
            "mu0": report.fdr.null.mu0,
            "sigma0": report.fdr.null.sigma0,
            "method": report.fdr.null.method.value,
        }
    else:
        payload["fdr_skipped"] = f"fewer than {MIN_FDR_ITEMS} variables"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def export_plots(report: AnalysisReport, out_dir, top_k: int = 10, svg: bool = False):
    """Write sorted-CR data plus density/PP curves for the top_k selected
    variables in rank order.

    Returns the list of file paths written.
    """
    if top_k < 0:
        raise ConfigError("top_k must be >= 0")
    os.makedirs(out_dir, exist_ok=True)
    written = []

    path = os.path.join(out_dir, "sorted_cr.csv")
    write_sorted_cr_csv(report, path)
    written.append(path)
    if svg:
        pts = list(
            zip(range(1, len(report.ranked.sorted_cr) + 1), report.ranked.sorted_cr)
        )
        path = os.path.join(out_dir, "sorted_cr.svg")
        svgplot.polyline_svg(pts, path, xlabel="rank", ylabel="CR")
        written.append(path)

    for i in report.selected_positions()[:top_k]:
        va = with_density(report.per_variable[i])
        if va.cd is not None:
            written += write_curves(va, out_dir, svg=svg)
    return written


def write_curves(va: VariableAnalysis, out_dir, svg: bool = False):
    """Write the density and PP curves of one variable that has a density
    estimate, under its sanitised name inside ``out_dir``.

    Returns the list of file paths written.
    """
    safe = _safe_name(va.name)
    u, dhat = curve_grid(va)
    written = []
    path = os.path.join(out_dir, f"cd_{safe}.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("u,dhat\n")
        for ui, di in zip(u, dhat):
            fh.write(f"{fmt(ui)},{fmt(di)}\n")
    written.append(path)
    path = os.path.join(out_dir, f"pp_{safe}.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("h,f\n")
        for h, f in va.cd.pp_points:
            fh.write(f"{fmt(h)},{fmt(f)}\n")
    written.append(path)
    if svg:
        path = os.path.join(out_dir, f"cd_{safe}.svg")
        svgplot.polyline_svg(list(zip(u, dhat)), path, xlabel="u", ylabel="dhat")
        written.append(path)
        path = os.path.join(out_dir, f"pp_{safe}.svg")
        svgplot.polyline_svg(
            [tuple(p) for p in va.cd.pp_points], path, xlabel="H", ylabel="F"
        )
        written.append(path)
    return written


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", name)
