"""Contamination experiments: CDfdr against BH and a naive two-step fdr.

Signal scores are drawn once per experiment; each run regenerates the null
items with fresh standard-normal noise.  Per-run RNG streams are spawned
from one seed so results are bit-identical regardless of execution order.

An experiment is one (runs, p) matrix of z-scores, one row per run, and each
method thresholds every row in one call along the last axis.  Runs go in
chunks of at most about CHUNK_ITEMS scores, so a large p never holds every
run at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cdfdr import MIN_FDR_ITEMS, FdrConfig, cdfdr_pipeline, check_fdr_level, norm_pdf, norm_sf
from .errors import ConfigError
from .pipeline import write_json, write_table

METHODS = ("cdfdr", "bh", "naive-two-step")
SIGNAL_MODELS = ("gaussian-shift", "uniform-band")
# Most z-scores one chunk of runs holds (one row of p scores at the least).
# Each working array of a chunk is then about 128 KB, so an experiment's peak
# memory does not grow with its runs.
CHUNK_ITEMS = 2**14


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
    fdr_level: float = FdrConfig.fdr_level  # of every arm: CDfdr, BH, naive two-step

    def validate(self):
        """The one check of every setting: a ConfigError whose ``fields``
        name the settings the failed rule read."""
        if self.p < 1:
            raise ConfigError("p must be >= 1", ("p",))
        if not 0 <= self.m_signals <= self.p:
            raise ConfigError("m_signals must lie in [0, p]", ("m_signals", "p"))
        if self.runs < 1:
            raise ConfigError("runs must be >= 1", ("runs",))
        if self.seed < 0:
            raise ConfigError("seed must be >= 0", ("seed",))
        if self.signal_model not in SIGNAL_MODELS:
            raise ConfigError(f"model: {self.signal_model!r} is not one of "
                              f"{', '.join(SIGNAL_MODELS)}", ("signal_model",))
        if self.signal_model == "gaussian-shift" and not np.isfinite(self.mu):
            raise ConfigError(f"mu must be finite, got {self.mu}", ("mu",))
        band = np.isfinite([self.lo, self.hi]).all() and self.lo <= self.hi
        if self.signal_model == "uniform-band" and not band:
            raise ConfigError(
                f"lo = {self.lo} and hi = {self.hi} must be finite, with lo <= hi", ("lo", "hi")
            )
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ConfigError(f"methods: {unknown[0]!r} is not one of "
                              f"{', '.join(METHODS)}", ("methods",))
        if "cdfdr" in self.methods and self.p < MIN_FDR_ITEMS:
            raise ConfigError(
                f"p must be >= {MIN_FDR_ITEMS} for the cdfdr method", ("p", "methods")
            )
        check_fdr_level(self.fdr_level)


@dataclass(frozen=True)
class SimReport:
    config: SimConfig
    counts: dict  # method -> np.ndarray of selected counts, one per run
    summary: dict  # method -> {median, q1, q3, mean, mae}


def draw_signals(cfg: SimConfig, rng: np.random.Generator) -> np.ndarray:
    if cfg.signal_model == "gaussian-shift":
        return cfg.mu + rng.standard_normal(cfg.m_signals)
    return rng.uniform(cfg.lo, cfg.hi, size=cfg.m_signals)


def bh_baseline(z, level: float = FdrConfig.fdr_level) -> np.ndarray:
    """Benjamini-Hochberg step-up on two-sided normal p-values, per row of z.

    A row passes every p-value up to the largest sorted one under its
    step-up line.  That set is closed under ties, so a plain sort and one
    cut per row give the mask a stable ordering would.
    """
    check_fdr_level(level)
    z = np.asarray(z, dtype=float)
    p = 2.0 * norm_sf(np.abs(z))
    n = p.shape[-1]
    ordered = np.sort(p, axis=-1)
    thresh = level * (np.arange(1, n + 1) / n)
    # p >= 0, so -1 passes nothing in a row where no p-value is under the line.
    cut = np.where(ordered <= thresh, ordered, -1.0).max(axis=-1, initial=-1.0)
    return p <= cut[..., None]


def naive_two_step_baseline(
    z, level: float = FdrConfig.fdr_level, bins: int = 40
) -> np.ndarray:
    """Histogram estimate of f, then fdr = f0/f per item, per row of z.

    The two-step straw man: estimate the pooled density on equal bins over
    the data range, floor empty bins, and threshold f0(z)/f_hat(z) at the
    given level with f0 standard normal.  A row with zero span selects
    nothing.  Bins and densities are those of ``np.histogram(row, bins,
    range=(min, max), density=True)``: its uniform-bin index formula with the
    same one-step correction against the same ``np.linspace`` edges.
    """
    check_fdr_level(level)
    shape = np.shape(z)
    z = np.asarray(z, dtype=float).reshape(-1, shape[-1])
    lo, hi = z.min(axis=-1), z.max(axis=-1)
    flat = hi - lo <= 0.0
    if flat.any():
        # A zero step in any row would change linspace's formula for every
        # row, so a zero-span row is binned as zeros over (0, 1) instead.
        z = np.where(flat[:, None], 0.0, z)
        lo, hi = np.where(flat, 0.0, lo), np.where(flat, 1.0, hi)
    span = (hi - lo)[:, None]
    edges = np.linspace(lo, hi, bins + 1, axis=-1)
    idx = ((z - lo[:, None]) / span * bins).astype(np.intp)
    idx[idx == bins] -= 1
    # Gathers index the flat edges and densities, with each row's offset.
    rows = len(z)
    row = np.arange(rows)[:, None]
    flat_edges = edges.ravel()
    idx[z < flat_edges[idx + (bins + 1) * row]] -= 1
    idx[(z >= flat_edges[idx + 1 + (bins + 1) * row]) & (idx != bins - 1)] += 1
    cell = idx + bins * row
    counts = np.bincount(cell.ravel(), minlength=rows * bins).reshape(rows, bins)
    dens = counts / np.diff(edges, axis=-1) / counts.sum(axis=-1, keepdims=True)
    dens = np.maximum(dens, 1.0 / (z.shape[-1] * span))
    fdr_hat = norm_pdf(z) / dens.ravel()[cell]
    return ((fdr_hat <= level) & ~flat[:, None]).reshape(shape)


def run_experiment(cfg: SimConfig) -> SimReport:
    cfg.validate()
    root = np.random.SeedSequence(cfg.seed)
    children = root.spawn(cfg.runs + 1)
    signals = draw_signals(cfg, _stream(children[0]))
    counts = {m: np.empty(cfg.runs, dtype=int) for m in cfg.methods}
    fdr_config = FdrConfig(fdr_level=cfg.fdr_level)
    chunk = max(1, CHUNK_ITEMS // cfg.p)
    for start in range(0, cfg.runs, chunk):
        streams = children[start + 1 : start + 1 + chunk]
        z = np.empty((len(streams), cfg.p))
        z[:, : cfg.m_signals] = signals
        for row, child in zip(z, streams):
            _stream(child).standard_normal(out=row[cfg.m_signals :])
        for method in cfg.methods:
            if method == "cdfdr":
                sel = cdfdr_pipeline(z, fdr_config).selected
            elif method == "bh":
                sel = bh_baseline(z, cfg.fdr_level)
            else:
                sel = naive_two_step_baseline(z, cfg.fdr_level)
            counts[method][start : start + len(z)] = sel.sum(axis=-1)
    summary = {m: _summarize(c, cfg.m_signals) for m, c in counts.items()}
    return SimReport(config=cfg, counts=counts, summary=summary)


def _stream(seed_seq: np.random.SeedSequence) -> np.random.Generator:
    """The generator ``np.random.default_rng(seed_seq)`` returns, built
    directly: the same PCG64 stream without default_rng's argument dispatch."""
    return np.random.Generator(np.random.PCG64(seed_seq))


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
