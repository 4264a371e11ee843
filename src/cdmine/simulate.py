"""Contamination experiments: CDfdr against BH and a naive two-step fdr.

Signal scores are drawn once per experiment; each run regenerates the null
items with fresh standard-normal noise.  Per-run RNG streams are spawned
from one seed so results are bit-identical regardless of execution order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cdfdr import FdrConfig, cdfdr_pipeline, norm_pdf, norm_sf
from .errors import ConfigError
from .pipeline import write_json, write_table

METHODS = ("cdfdr", "bh", "naive-two-step")
SIGNAL_MODELS = ("gaussian-shift", "uniform-band")


@dataclass(frozen=True)
class SimConfig:
    m_signals: int
    p: int = 1000
    signal_model: str = "gaussian-shift"  # or "uniform-band"
    mu: float = 4.52
    lo: float = 2.0
    hi: float = 4.0
    runs: int = 100
    seed: int = 0
    methods: tuple = METHODS
    fdr_level: float = 0.2  # level of every arm: CDfdr, BH and the naive two-step

    def validate(self):
        if not 0 <= self.m_signals <= self.p:
            raise ConfigError("m_signals must lie in [0, p]", ("m_signals", "p"))
        if self.runs < 1:
            raise ConfigError("runs must be >= 1", ("runs",))
        if self.signal_model not in SIGNAL_MODELS:
            raise ConfigError(f"unknown signal model {self.signal_model!r}")
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ConfigError(f"unknown methods {sorted(unknown)}")
        if not 0.0 < self.fdr_level < 1.0:
            raise ConfigError("fdr_level must be in (0, 1)", ("fdr_level",))


@dataclass(frozen=True)
class SimReport:
    config: SimConfig
    counts: dict  # method -> np.ndarray of selected counts, one per run
    summary: dict  # method -> {median, q1, q3, mean, mae}


def draw_signals(cfg: SimConfig, rng: np.random.Generator) -> np.ndarray:
    if cfg.signal_model == "gaussian-shift":
        return cfg.mu + rng.standard_normal(cfg.m_signals)
    return rng.uniform(cfg.lo, cfg.hi, size=cfg.m_signals)


def bh_baseline(z, level: float = 0.2) -> np.ndarray:
    """Benjamini-Hochberg step-up on two-sided normal p-values."""
    if not 0.0 < level < 1.0:
        raise ConfigError("level must be in (0, 1)")
    z = np.asarray(z, dtype=float)
    p = 2.0 * norm_sf(np.abs(z))
    n = p.size
    order = np.argsort(p, kind="stable")
    thresh = level * (np.arange(1, n + 1) / n)
    passing = np.flatnonzero(p[order] <= thresh)
    mask = np.zeros(n, dtype=bool)
    if passing.size:
        mask[order[: passing[-1] + 1]] = True
    return mask


def naive_two_step_baseline(z, level: float = 0.2, bins: int = 40) -> np.ndarray:
    """Histogram estimate of f, then fdr = f0/f per item.

    The two-step straw man: estimate the pooled density on equal bins over
    the data range, floor empty bins, and threshold f0(z)/f_hat(z) at the
    given level with f0 standard normal.
    """
    z = np.asarray(z, dtype=float)
    lo, hi = z.min(), z.max()
    span = hi - lo
    if span <= 0.0:
        return np.zeros(z.size, dtype=bool)
    dens, edges = np.histogram(z, bins=bins, range=(lo, hi), density=True)
    floor = 1.0 / (z.size * span)
    dens = np.maximum(dens, floor)
    idx = np.clip(np.searchsorted(edges, z, side="right") - 1, 0, bins - 1)
    fdr_hat = norm_pdf(z) / dens[idx]
    return fdr_hat <= level


def run_experiment(cfg: SimConfig) -> SimReport:
    cfg.validate()
    root = np.random.SeedSequence(cfg.seed)
    children = root.spawn(cfg.runs + 1)
    signals = draw_signals(cfg, np.random.default_rng(children[0]))
    counts = {m: np.empty(cfg.runs, dtype=int) for m in cfg.methods}
    fdr_config = FdrConfig(fdr_level=cfg.fdr_level)
    for r in range(cfg.runs):
        rng = np.random.default_rng(children[r + 1])
        noise = rng.standard_normal(cfg.p - cfg.m_signals)
        z = np.concatenate([signals, noise])
        for method in cfg.methods:
            if method == "cdfdr":
                sel = cdfdr_pipeline(z, fdr_config).selected
            elif method == "bh":
                sel = bh_baseline(z, cfg.fdr_level)
            else:
                sel = naive_two_step_baseline(z, cfg.fdr_level)
            counts[method][r] = int(sel.sum())
    summary = {m: _summarize(c, cfg.m_signals) for m, c in counts.items()}
    return SimReport(config=cfg, counts=counts, summary=summary)


def _summarize(counts: np.ndarray, truth: int) -> dict:
    q1, med, q3 = np.percentile(counts, [25, 50, 75])
    return {
        "median": float(med),
        "q1": float(q1),
        "q3": float(q3),
        "mean": float(counts.mean()),
        "mae": float(np.abs(counts - truth).mean()),
    }


def write_report_csv(report: SimReport, path):
    rows = [
        (r, method, c)
        for method, counts in report.counts.items()
        for r, c in enumerate(counts.tolist())
    ]
    write_table(path, ["run", "method", "selected"], list(zip(*rows)), ["%d", "%s", "%d"])


def write_report_json(report: SimReport, path):
    payload = {
        "p": report.config.p,
        "m_signals": report.config.m_signals,
        "signal_model": report.config.signal_model,
        "runs": report.config.runs,
        "seed": report.config.seed,
        "summary": report.summary,
    }
    write_json(path, payload)
