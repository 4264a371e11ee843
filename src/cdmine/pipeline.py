"""End-to-end analysis: transform, basis expansion, CR statistics, ranking,
and CDfdr threshold selection, plus report/plot-data export."""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import svgplot
from .cdfdr import (
    MIN_FDR_ITEMS,
    FdrConfig,
    FdrResult,
    cdfdr_pipeline,
    chi2_logsf,
    log_p_to_z,
)
from .comp_density import TwoSampleData, estimate_cd, pp_plot_points
from .cr import CrResult, categorize_rows, rank_variables
from .dataset import Dataset
from .errors import ConfigError, TooFewItems
from .midrank import mid_rank_transform
from .panel import PanelCr, panel_cr
from .score_basis import DEFAULT_M, ScoreBasis, check_m

CURVE_GRID_SIZE = 512
# Variables whose curves a report exports, the first selected in rank order.
DEFAULT_TOP_K = 10
# Lossless decimal serialization for report numbers, as a %-format.
NUMBER_FORMAT = "%.17g"
# Characters that make csv.QUOTE_MINIMAL quote a cell.
_NEEDS_QUOTE = re.compile('[,"\r\n]')


@dataclass(frozen=True)
class VariableAnalysis:
    """One variable's CR result."""

    name: str
    cr: CrResult


@dataclass(frozen=True)
class AnalysisReport:
    """A panel's CR results as arrays in input order, and its CDfdr stage.

    ``order`` lists input positions by descending CR, ties in input order;
    the report writers read the arrays.  ``per_variable`` and
    ``variable`` build ``VariableAnalysis`` objects only when asked.
    """

    panel: PanelCr  # the engine's rows: components, counts, flags and bases
    cr: np.ndarray
    pvalue: np.ndarray
    log_pvalue: np.ndarray  # chi-square log tail, 0 when flagged; z comes from it
    categories: list
    order: np.ndarray
    fdr: FdrResult | None  # None when too few variables for the fdr stage
    m: int
    fdr_level: float
    dataset: Dataset

    @property
    def names(self) -> list:
        """Variable names, input order."""
        return self.dataset.names

    def variable(self, i: int) -> VariableAnalysis:
        """The CR result of the variable at input position i."""
        name = self.names[i]
        cr = CrResult(
            components=self.panel.components[i],
            cr=float(self.cr[i]),
            pvalue=float(self.pvalue[i]),
            category=self.categories[i],
            n_effective=int(self.panel.n_effective[i]),
            variable_id=name,
            flag=self.panel.flags[i],
        )
        return VariableAnalysis(name=name, cr=cr)

    @cached_property
    def per_variable(self) -> list:
        """``variable(i)`` of every position, in input order."""
        return [self.variable(i) for i in range(len(self.names))]

    def selected_positions(self):
        """Input positions of the CDfdr-selected variables, in rank order."""
        if self.fdr is None:
            return []
        return self.order[self.fdr.selected[self.order]].tolist()

    def selected_names(self):
        return [self.names[i] for i in self.selected_positions()]


def analyze(
    dataset: Dataset,
    m: int = DEFAULT_M,
    fdr_level: float = FdrConfig.fdr_level,
) -> AnalysisReport:
    check_m(m)
    # Built first, so that a level out of range fails before any work.
    config = FdrConfig(fdr_level=fdr_level, sides="right")
    if not dataset.variables:
        raise TooFewItems("no variables to analyze")
    panel = panel_cr(dataset.variables, dataset.labels, m)
    cr = (panel.components**2).sum(axis=1)
    # A flagged column has CR 0, whose tail is exactly 1 at any df.
    log_pvalue = chi2_logsf(panel.n_effective * cr, np.maximum(panel.m_used, 1))
    pvalue = np.exp(log_pvalue)

    fdr = None
    if cr.size >= MIN_FDR_ITEMS:
        # A one-sided z per variable through its own chi-square df keeps
        # reduced-df columns comparable; flagged columns sit at p = 1.
        fdr = cdfdr_pipeline(log_p_to_z(log_pvalue), config)
    return AnalysisReport(
        panel=panel,
        cr=cr,
        pvalue=pvalue,
        log_pvalue=log_pvalue,
        categories=categorize_rows(panel.components),
        order=rank_variables(cr),
        fdr=fdr,
        m=m,
        fdr_level=fdr_level,
        dataset=dataset,
    )


def write_table(path, header, columns, fields):
    """Write a CSV: the header, then one row per position of the equal-length
    ``columns``, formatted by the %-templates ``fields`` joined with commas.

    String cells of ``columns`` are quoted the way ``csv.QUOTE_MINIMAL``
    does; the header is written as given.
    """
    row = ",".join(fields) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(map(row.__mod__, zip(*map(_quoted, columns))))


def _quoted(cells):
    """``cells``, with each string that holds a comma, quote, CR or LF quoted."""
    if not (cells and isinstance(cells[0], str) and _NEEDS_QUOTE.search("".join(cells))):
        return cells
    return ['"%s"' % c.replace('"', '""') if _NEEDS_QUOTE.search(c) else c for c in cells]


def write_json(path, payload):
    """Write ``payload`` as indented JSON with sorted keys."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_ranked_csv(report: AnalysisReport, path):
    """One row per variable in rank order, written column by column from
    the report arrays.  The trailing log10_pvalue is taken in log space, so
    it stays finite where pvalue underflows to 0."""
    m = report.m
    header = (
        ["variable_id", "n_effective"]
        + [f"R{a}" for a in range(1, m + 1)]
        + ["CR", "pvalue", "category", "rank", "flag", "z", "inverse_fdr", "selected"]
        + ["log10_pvalue"]
    )
    order = report.order
    by_rank = order.tolist()
    columns = [
        list(map(report.names.__getitem__, by_rank)),
        report.panel.n_effective[order].tolist(),
        *report.panel.components[order].T.tolist(),
        report.cr[order].tolist(),
        report.pvalue[order].tolist(),
        [report.categories[i] for i in by_rank],
        range(1, len(by_rank) + 1),
        [report.panel.flags[i] for i in by_rank],
    ]
    fields = ["%s", "%d"] + [NUMBER_FORMAT] * (m + 2) + ["%s", "%d", "%s"]
    if report.fdr is not None:
        fdr = report.fdr
        columns += [
            fdr.z[order].tolist(),
            fdr.inverse_fdr[order].tolist(),
            fdr.selected[order].tolist(),
        ]
        fields += [NUMBER_FORMAT, NUMBER_FORMAT, "%d"]
    else:
        fields += ["", "", "0"]
    columns.append((report.log_pvalue[order] / np.log(10.0)).tolist())
    fields.append(NUMBER_FORMAT)
    write_table(path, header, columns, fields)


def write_summary_json(report: AnalysisReport, path):
    selected = report.selected_names()
    payload = {
        "n": report.dataset.n,
        "p": len(report.names),
        "m": report.m,
        "fdr_level": report.fdr_level,
        "selected": selected,
        "n_selected": len(selected),
        "flagged": {
            name: flag for name, flag in zip(report.names, report.panel.flags) if flag
        },
    }
    if report.fdr is not None:
        payload["null"] = {
            "mu0": report.fdr.null.mu0,
            "sigma0": report.fdr.null.sigma0,
            "method": "pooled-moments",
        }
    else:
        payload["fdr_skipped"] = f"fewer than {MIN_FDR_ITEMS} variables"
    write_json(path, payload)


def check_top_k(top_k):
    """The rule on the number of variables whose curves are exported."""
    if top_k < 0:
        raise ConfigError("top_k must be >= 0")


def export_plots(
    report: AnalysisReport, out_dir, top_k: int = DEFAULT_TOP_K, svg: bool = False
):
    """Write sorted-CR data plus density/PP curves for the top_k selected
    variables in rank order.

    Returns the list of file paths written.
    """
    check_top_k(top_k)
    os.makedirs(out_dir, exist_ok=True)
    rank = np.arange(1, report.order.size + 1)
    sorted_cr = report.cr[report.order]
    path = os.path.join(out_dir, "sorted_cr.csv")
    write_table(
        path,
        ["rank", "variable_id", "cr"],
        [rank.tolist(), list(map(report.names.__getitem__, report.order.tolist())),
         sorted_cr.tolist()],
        ["%d", "%s", NUMBER_FORMAT],
    )
    written = [path]
    if svg:
        path = os.path.join(out_dir, "sorted_cr.svg")
        svgplot.polyline_svg(rank, sorted_cr, path, xlabel="rank", ylabel="CR")
        written.append(path)

    stems = set()
    for i in report.selected_positions()[:top_k]:
        if report.panel.m_used[i]:
            written += write_curves(report.dataset, i, report.panel, i, out_dir, stems, svg=svg)
    return written


def write_curves(dataset, i, panel: PanelCr, row, out_dir, stems: set, svg: bool = False):
    """Write the density and PP curves of the variable at input position i,
    under its sanitised name inside ``out_dir``.  The density is drawn from
    row ``row`` (m_used >= 1) of the engine's ``panel``: its basis, and
    theta_k = R_k sqrt((1 - pi)/pi), the class-1 mean of S_k.  The column's
    mid-ranks serve only the PP points.

    ``stems`` holds the file stems already written in this export; a name
    whose stem is taken gets the first free suffix ``_2``, ``_3``, ...  The
    stem used is added to ``stems``.  Returns the list of file paths written.
    """
    col = dataset.variables[i]
    safe = stem = re.sub(r"[^A-Za-z0-9_.-]", "_", col.name)
    k = 2
    while stem in stems:
        stem, k = f"{safe}_{k}", k + 1
    stems.add(stem)
    m = int(panel.m_used[row])
    basis = ScoreBasis(m, None, panel.sigma_mid[row], panel.a[row, : m - 1], panel.b[row, :m])
    data = TwoSampleData.from_arrays(mid_rank_transform(col).u, dataset.labels[~col.missing])
    theta = panel.components[row, :m] * np.sqrt((1.0 - data.pi_hat) / data.pi_hat)
    u = (np.arange(CURVE_GRID_SIZE) + 0.5) / CURVE_GRID_SIZE
    dhat = estimate_cd(theta, basis)(u)
    h, f = pp_plot_points(data).T
    # (file prefix, CSV header, SVG axis labels, x, y) of each curve
    curves = (("cd", ["u", "dhat"], ("u", "dhat"), u, dhat),
              ("pp", ["h", "f"], ("H", "F"), h, f))
    written = []
    for kind, header, _, x, y in curves:
        path = os.path.join(out_dir, f"{kind}_{stem}.csv")
        write_table(path, header, [x.tolist(), y.tolist()], [NUMBER_FORMAT] * 2)
        written.append(path)
    if svg:
        for kind, _, (xlabel, ylabel), x, y in curves:
            path = os.path.join(out_dir, f"{kind}_{stem}.svg")
            svgplot.polyline_svg(x, y, path, xlabel=xlabel, ylabel=ylabel)
            written.append(path)
    return written
