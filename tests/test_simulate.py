import numpy as np
import pytest

from cdmine.errors import ConfigError
from cdmine.simulate import (
    SimConfig,
    bh_baseline,
    draw_signals,
    naive_two_step_baseline,
    run_experiment,
)


class TestBh:
    def test_all_null_pvalues_empty(self):
        assert not bh_baseline(np.zeros(50)).any()

    def test_single_strong_item(self):
        z = np.zeros(100)
        z[42] = 6.0  # p ~ 2e-9 << 0.2/100
        sel = bh_baseline(z, level=0.2)
        assert sel[42] and sel.sum() == 1

    def test_strong_signals_mostly_found(self):
        rng = np.random.default_rng(0)
        found = []
        for _ in range(10):
            z = np.concatenate([np.full(25, 4.52), rng.standard_normal(975)])
            found.append(bh_baseline(z, level=0.2)[:25].sum())
        assert np.mean(found) >= 15

    def test_bad_level(self):
        with pytest.raises(ConfigError):
            bh_baseline(np.zeros(10), level=0.0)


class TestNaiveTwoStep:
    def test_pure_null_selects_few(self):
        rng = np.random.default_rng(1)
        fracs = [
            naive_two_step_baseline(rng.standard_normal(1000)).mean()
            for _ in range(20)
        ]
        assert np.median(fracs) <= 0.05

    def test_empty_bins_floored(self):
        # a huge gap leaves interior bins empty; the floor keeps fdr finite
        z = np.concatenate([np.linspace(-2, 2, 990), np.full(10, 40.0)])
        sel = naive_two_step_baseline(z)
        assert sel[-10:].all()

    def test_constant_input(self):
        assert not naive_two_step_baseline(np.zeros(100)).any()


class TestRunExperiment:
    def test_determinism(self):
        cfg = SimConfig(m_signals=10, p=200, runs=5, seed=99)
        a, b = run_experiment(cfg), run_experiment(cfg)
        for method in cfg.methods:
            np.testing.assert_array_equal(a.counts[method], b.counts[method])
        assert a.summary == b.summary

    def test_fdr_level_reaches_every_arm(self):
        base = dict(m_signals=50, p=1000, runs=10, seed=3)
        loose = run_experiment(SimConfig(fdr_level=0.2, **base)).summary
        strict = run_experiment(SimConfig(fdr_level=0.05, **base)).summary
        for method in ("cdfdr", "bh"):
            assert strict[method] != loose[method]
            assert strict[method]["mean"] < loose[method]["mean"]

    def test_signals_fixed_across_runs(self):
        # with no noise items, every run sees the identical signal vector
        cfg = SimConfig(m_signals=100, p=100, runs=4, seed=5, methods=("bh",))
        report = run_experiment(cfg)
        assert np.unique(report.counts["bh"]).size == 1

    def test_draw_signals_models(self):
        rng = np.random.default_rng(0)
        cfg = SimConfig(m_signals=1000, signal_model="uniform-band", lo=2.0, hi=4.0)
        s = draw_signals(cfg, rng)
        assert s.min() >= 2.0 and s.max() <= 4.0
        cfg = SimConfig(m_signals=1000, mu=4.52)
        s = draw_signals(cfg, rng)
        assert abs(s.mean() - 4.52) < 0.2

    def test_no_signals_bh_quiet(self):
        cfg = SimConfig(m_signals=0, runs=25, seed=8, methods=("bh",))
        report = run_experiment(cfg)
        assert (report.counts["bh"] == 0).mean() >= 0.8

    def test_counts_bounded(self):
        cfg = SimConfig(m_signals=25, p=300, runs=10, seed=1)
        report = run_experiment(cfg)
        for counts in report.counts.values():
            assert counts.min() >= 0 and counts.max() <= 300

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            run_experiment(SimConfig(m_signals=50, p=30))
        with pytest.raises(ConfigError):
            run_experiment(SimConfig(m_signals=5, runs=0))
        with pytest.raises(ConfigError):
            run_experiment(SimConfig(m_signals=5, signal_model="cauchy"))
        with pytest.raises(ConfigError):
            run_experiment(SimConfig(m_signals=5, methods=("magic",)))

    @pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -0.2])
    def test_fdr_level_outside_unit_interval(self, level):
        # The naive arm has no level check of its own, so only validate stops it.
        cfg = SimConfig(m_signals=5, p=50, runs=1, methods=("naive-two-step",),
                        fdr_level=level)
        with pytest.raises(ConfigError, match="fdr_level"):
            run_experiment(cfg)


def test_report_files_roundtrip(tmp_path):
    import csv
    import json

    from cdmine.simulate import write_report_csv, write_report_json

    cfg = SimConfig(m_signals=10, p=100, runs=3, seed=2)
    report = run_experiment(cfg)
    csv_path = tmp_path / "runs.csv"
    json_path = tmp_path / "summary.json"
    write_report_csv(report, csv_path)
    write_report_json(report, json_path)
    rows = list(csv.DictReader(open(csv_path)))
    assert len(rows) == 3 * len(cfg.methods)
    payload = json.loads(json_path.read_text())
    assert payload["m_signals"] == 10
    assert set(payload["summary"]) == set(cfg.methods)
