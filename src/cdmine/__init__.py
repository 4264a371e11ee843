"""Distributional variable ranking for two-class data.

Mid-rank transforms, orthonormal score functions, comparison-density
estimates, the CR detection statistic, and comparison-density local fdr
(CDfdr) threshold selection.
"""

from .cdfdr import (
    EmpiricalNull,
    FdrConfig,
    FdrResult,
    cdfdr_pipeline,
    estimate_null,
    estimate_residual_density,
    inverse_fdr_curve,
    preflatten,
    select,
)
from .comp_density import (
    TwoSampleData,
    estimate_cd,
    gof_norm,
    pp_plot_points,
    theta_hat,
)
from .cr import (
    CrResult,
    component_correlations,
    cr_statistic,
    null_pvalue,
    rank_variables,
)
from .dataset import ColumnMatrix, Dataset, load_csv
from .midrank import MidRankVector, VariableColumn, mid_rank_transform
from .pipeline import AnalysisReport, analyze, export_plots
from .score_basis import ScoreBasis, build_score_basis, evaluate_scores
from .simulate import SimConfig, SimReport, bh_baseline, naive_two_step_baseline, run_experiment

__version__ = "0.1.0"
