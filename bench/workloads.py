"""Seeded inputs, the timed operation, and the output checks of each workload.

A workload has four steps.  ``prepare`` makes the inputs from the seed and
writes them to a work directory; it returns the truth the checks need.
``load`` reads them back the way a user of cdmine would (a fresh process
calls only ``load`` and ``op``).  ``op`` is the timed operation.  ``digest``
reduces its output to what the checks read, so no large result is kept
between operations.  Each entry point is looked up on its module at call
time, so the tracer's wrappers apply.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
from dataclasses import dataclass

import numpy as np

import cdmine.cli
import cdmine.pipeline
import cdmine.simulate
from cdmine.dataset import Dataset
from cdmine.midrank import VariableColumn

import oracle

M = 4


@dataclass(frozen=True)
class PanelDigest:
    """What the checks read from one panel analysis."""

    components: dict  # name -> R_1..R_m for columns analysed with m >= 1
    categories: dict  # name -> category
    flags: dict  # name -> flag, flagged columns only
    selected: tuple  # names selected by CDfdr, rank order
    bytes_written: int = 0
    problems: tuple = ()  # disagreements between the written outputs

    def key(self):
        """What must repeat exactly from one operation to the next."""
        return (self.selected, sorted(self.flags.items()), sorted(self.categories.items()))


@dataclass(frozen=True)
class PanelTruth:
    X: np.ndarray  # (n, p) values as cdmine reads them, NaN where missing
    y: np.ndarray
    names: list
    planted: dict  # name -> category of a planted signal column
    flags: dict  # name -> flag expected on a planted degenerate column


class Panel:
    """Checks shared by the workloads that rank the columns of a panel."""

    @staticmethod
    def reference(truth: PanelTruth) -> dict:
        """Oracle components for every column the truth expects to be analysed."""
        m_by_name = {name: _analysed_m(truth.flags.get(name, "")) for name in truth.names}
        m_by_name = {name: m for name, m in m_by_name.items() if m}
        return oracle.panel_components(truth.X, truth.y, truth.names, m_by_name)

    @staticmethod
    def quality(d: PanelDigest, truth: PanelTruth) -> dict:
        selected = set(d.selected)
        hits = [name for name in truth.planted if name in selected]
        right = sum(d.categories[name] == truth.planted[name] for name in hits)
        return {
            "planted_recall": len(hits) / len(truth.planted),
            "false_selection_ratio": len(selected - set(truth.planted)) / max(len(selected), 1),
            "category_accuracy": right / len(hits) if hits else 0.0,
        }

    @staticmethod
    def problems(d: PanelDigest, truth: PanelTruth, expected: dict) -> tuple:
        """(problems, worst oracle deviation) for one panel analysis."""
        problems = list(d.problems)
        if d.flags != truth.flags:
            problems.append(f"flags {d.flags} differ from the planted {truth.flags}")
        bad, worst = oracle.mismatches(expected, d.components)
        return problems + bad, worst


class PanelGauss(Panel):
    """In-memory ``pipeline.analyze`` on a complete Gaussian panel.

    The shape and planted effects follow the acceptance criterion-8
    generator: 500 x 1000, 10 columns shifted by +1.0 and 10 scaled by 3 in
    class 1, here at seeded positions.
    """

    name = "panel-gauss"
    n, p, n_shift, n_scale = 500, 1000, 10, 10
    items_per_op = p

    def prepare(self, seed: int, workdir) -> PanelTruth:
        rng = np.random.default_rng([seed, 1])
        y = np.zeros(self.n, dtype=np.int64)
        y[self.n // 2 :] = 1
        X = rng.normal(size=(self.n, self.p))
        cols = rng.choice(self.p, self.n_shift + self.n_scale, replace=False)
        shift, scale = cols[: self.n_shift], cols[self.n_shift :]
        X[np.ix_(y == 1, shift)] += 1.0
        X[np.ix_(y == 1, scale)] *= 3.0
        np.save(os.path.join(workdir, "X.npy"), X)
        np.save(os.path.join(workdir, "y.npy"), y)
        names = [f"v{j}" for j in range(self.p)]
        planted = {names[j]: "mean" for j in shift}
        planted.update({names[j]: "variance" for j in scale})
        return PanelTruth(X=X, y=y, names=names, planted=planted, flags={})

    def load(self, workdir) -> Dataset:
        X = np.load(os.path.join(workdir, "X.npy"))
        y = np.load(os.path.join(workdir, "y.npy"))
        n, p = X.shape
        complete = np.zeros(n, dtype=bool)
        cols = [
            VariableColumn(values=X[:, j], missing=complete, name=f"v{j}")
            for j in range(p)
        ]
        return Dataset(variables=cols, labels=y, positive_label="1", n=n, p=p)

    def op(self, dataset, outdir):
        return cdmine.pipeline.analyze(dataset, m=M)

    def digest(self, report, outdir) -> PanelDigest:
        comps, cats, flags = {}, {}, {}
        for va in report.per_variable:
            cats[va.name] = va.cr.category
            if va.cr.flag:
                flags[va.name] = va.cr.flag
            m = _analysed_m(va.cr.flag)
            if m:
                comps[va.name] = np.asarray(va.cr.components, dtype=float)[:m]
        return PanelDigest(
            components=comps,
            categories=cats,
            flags=flags,
            selected=tuple(report.selected_names()),
        )


class RankCsv(Panel):
    """``cdmine rank --top-k 10 --svg`` through ``cli.main`` on a wide, short CSV.

    102 x 6033 like the prostate panel: about 30% of the columns are
    rounded (ties), about 10% have NA cells, 20 carry a planted signal, and
    three columns hit each degenerate flag.
    """

    name = "rank-csv"
    n0, n1, p = 50, 52, 6033
    n_shift = n_scale = 10
    rounded_share, missing_share = 0.3, 0.1
    items_per_op = p
    cells_loaded = (n0 + n1) * (p + 1)
    degenerate = ("constant", "all-missing", "class-too-small",
                  "reduced-m:1", "reduced-m:2", "reduced-m:3")
    per_flag = 3

    def prepare(self, seed: int, workdir) -> PanelTruth:
        rng = np.random.default_rng([seed, 2])
        n, p = self.n0 + self.n1, self.p
        y = np.array([0] * self.n0 + [1] * self.n1)
        rng.shuffle(y)
        X = rng.normal(size=(n, p))
        cells = np.char.mod("%.5f", X).astype(object)
        names = [f"g{j:04d}" for j in range(1, p + 1)]

        order = rng.permutation(p)
        n_degen = len(self.degenerate) * self.per_flag
        degen, signal = order[:n_degen], order[n_degen : n_degen + self.n_shift + self.n_scale]
        rest = order[n_degen + len(signal) :]
        planted, flags = {}, {}
        for k, j in enumerate(signal):
            if k < self.n_shift:
                X[y == 1, j] += 2.0
                planted[names[j]] = "mean"
            else:
                X[y == 1, j] *= 4.0
                planted[names[j]] = "variance"
            cells[:, j] = np.char.mod("%.5f", X[:, j])
        rounded = rest[rng.random(rest.size) < self.rounded_share]
        cells[:, rounded] = np.char.mod("%.1f", X[:, rounded])
        holes = rest[rng.random(rest.size) < self.missing_share]
        for j in holes:
            rows = rng.choice(n, int(rng.integers(1, 11)), replace=False)
            cells[rows, j] = "NA"
        for k, j in enumerate(degen):
            flag = self.degenerate[k // self.per_flag]
            flags[names[j]] = flag
            if flag == "constant":
                cells[:, j] = "7.25"
            elif flag == "all-missing":
                cells[:, j] = "NA"
            elif flag == "class-too-small":
                cells[y == 1, j] = "NA"
                cells[np.flatnonzero(y == 1)[0], j] = "1.5"
            else:
                levels = int(flag.split(":")[1]) + 1
                cells[:, j] = rng.permutation(np.arange(n) % levels).astype(str)

        table = np.column_stack([cells, y.astype(str)])
        with open(os.path.join(workdir, "panel.csv"), "w", encoding="utf-8") as fh:
            fh.write(",".join(names + ["cls"]) + "\n")
            fh.write("\n".join(",".join(row) for row in table.tolist()) + "\n")
        values = np.where(cells == "NA", "nan", cells).astype(float)
        return PanelTruth(X=values, y=y, names=names, planted=planted, flags=flags)

    def load(self, workdir) -> str:
        return os.path.join(workdir, "panel.csv")

    def op(self, csv_path, outdir):
        argv = ["rank", csv_path, "--label", "cls", "--top-k", "10", "--svg",
                "--out", outdir]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cdmine.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"cdmine rank exited with code {code}")
        return outdir

    def digest(self, result, outdir) -> PanelDigest:
        comps, cats, flags, selected = {}, {}, {}, []
        with open(os.path.join(outdir, "ranked.csv"), encoding="utf-8", newline="") as fh:
            for row in csv.DictReader(fh):
                name = row["variable_id"]
                cats[name] = row["category"]
                if row["flag"]:
                    flags[name] = row["flag"]
                m = _analysed_m(row["flag"])
                if m:
                    comps[name] = np.array([float(row[f"R{a}"]) for a in range(1, m + 1)])
                if row["selected"] == "1":
                    selected.append(name)
        with open(os.path.join(outdir, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        problems = []
        if summary["selected"] != selected:
            problems.append(
                f"ranked.csv selects {selected}, summary.json {summary['selected']}"
            )
        if summary["n_selected"] != len(summary["selected"]):
            problems.append("summary.json n_selected differs from its selected list")
        if summary["flagged"] != flags:
            problems.append("ranked.csv and summary.json disagree on flags")
        size = sum(e.stat().st_size for e in os.scandir(outdir) if e.is_file())
        return PanelDigest(
            comps, cats, summary["flagged"], tuple(selected), size, tuple(problems)
        )


@dataclass(frozen=True)
class SimTruth:
    bands: tuple  # (lo, hi) per config, the criterion-5/6 bands for the CDfdr median


@dataclass(frozen=True)
class SimDigest:
    medians: tuple  # CDfdr median per config
    counts: tuple  # per config, per method, selected counts per run
    cdfdr_abs_error: float  # mean |selected - truth| of CDfdr over every run

    def key(self):
        return self.counts


class SimPaper:
    """``simulate.run_experiment`` for the criterion-5 and criterion-6 configs."""

    name = "sim-paper"
    configs = (  # (signal model, signals, CDfdr median band)
        ("gaussian-shift", 25, (15, 35)),
        ("gaussian-shift", 50, (35, 65)),
        ("uniform-band", 50, (10, 90)),
    )
    p, runs = 1000, 100
    items_per_op = len(configs) * p * runs  # z-scores thresholded per method

    def prepare(self, seed: int, workdir) -> SimTruth:
        seeds = np.random.SeedSequence([seed, 3]).generate_state(len(self.configs))
        spec = [
            {"signal_model": model, "m_signals": m, "p": self.p, "runs": self.runs,
             "seed": int(s)}
            for (model, m, _), s in zip(self.configs, seeds)
        ]
        with open(os.path.join(workdir, "sim.json"), "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        return SimTruth(bands=tuple(band for _, _, band in self.configs))

    def load(self, workdir) -> list:
        with open(os.path.join(workdir, "sim.json"), encoding="utf-8") as fh:
            return [cdmine.simulate.SimConfig(**c) for c in json.load(fh)]

    def op(self, configs, outdir):
        return [cdmine.simulate.run_experiment(cfg) for cfg in configs]

    def digest(self, reports, outdir) -> SimDigest:
        errors = np.concatenate(
            [np.abs(r.counts["cdfdr"] - r.config.m_signals) for r in reports]
        )
        return SimDigest(
            medians=tuple(r.summary["cdfdr"]["median"] for r in reports),
            counts=tuple(
                tuple((m, tuple(c.tolist())) for m, c in sorted(r.counts.items()))
                for r in reports
            ),
            cdfdr_abs_error=float(errors.mean()),
        )

    @staticmethod
    def reference(truth):
        return None

    @staticmethod
    def quality(d: SimDigest, truth: SimTruth) -> dict:
        return {"sim_cdfdr_mae": d.cdfdr_abs_error}

    @staticmethod
    def problems(d: SimDigest, truth: SimTruth, expected) -> tuple:
        problems = [
            f"CDfdr median {med} outside the band {lo}..{hi}"
            for med, (lo, hi) in zip(d.medians, truth.bands)
            if not lo <= med <= hi
        ]
        return problems, 0.0


def _analysed_m(flag: str) -> int:
    """Number of scores behind a column's CR: M, k for reduced-m:k, 0 if flagged."""
    if not flag:
        return M
    if flag.startswith("reduced-m:"):
        return int(flag.split(":")[1])
    return 0


WORKLOADS = {w.name: w for w in (PanelGauss(), RankCsv(), SimPaper())}
