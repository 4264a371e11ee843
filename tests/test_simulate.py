import numpy as np
import pytest

from cdmine.errors import ConfigError
from cdmine.simulate import (
    CHUNK_ITEMS,
    SimConfig,
    bh_baseline,
    draw_signals,
    naive_two_step_baseline,
    run_experiment,
)

# Counts of the per-run loop that run_experiment replaced, one (config,
# counts) pair per case; the 70-run and 5000-item cases span several chunks.
PINNED_COUNTS = [
    (
        dict(m_signals=25, p=1000, runs=12, seed=11),
        {
            "cdfdr": "23 24 21 21 23 21 23 22 22 21 22 21",
            "bh": "33 29 25 28 25 22 25 26 24 25 29 24",
            "naive-two-step": "20 23 21 21 21 21 21 22 21 21 21 21",
        },
    ),
    (
        dict(m_signals=50, p=1000, runs=70, seed=12, signal_model="uniform-band"),
        {
            "cdfdr": (
                "40 38 39 36 40 37 35 39 40 41 38 39 38 38 43 39 38 40 40 37 35 39 "
                "41 39 37 40 41 40 41 36 38 39 35 34 41 39 38 36 42 37 38 36 35 37 "
                "38 38 40 36 38 39 34 35 38 35 35 40 34 38 35 35 34 40 37 37 36 37 "
                "34 37 36 39"
            ),
            "bh": (
                "53 40 47 50 46 48 45 48 52 46 44 43 46 43 46 46 44 55 50 38 44 48 "
                "50 46 54 53 53 47 52 43 46 50 47 46 50 46 38 38 55 46 48 39 43 40 "
                "45 46 43 40 44 45 44 46 52 47 45 43 44 52 45 45 43 53 44 47 39 44 "
                "38 40 45 53"
            ),
            "naive-two-step": (
                "37 33 35 36 38 35 30 37 39 37 36 33 33 38 40 38 34 36 37 32 33 35 "
                "37 35 38 36 38 37 38 32 36 36 36 33 40 42 36 34 40 37 37 35 30 32 "
                "37 36 39 31 37 38 36 34 36 35 35 36 34 35 35 35 35 40 32 36 36 31 "
                "35 34 31 41"
            ),
        },
    ),
    (
        dict(m_signals=50, p=500, runs=12, seed=13, fdr_level=0.05),
        {
            "cdfdr": "47 46 46 47 46 46 46 46 47 47 46 46",
            "bh": "51 49 48 49 49 51 52 49 52 50 48 53",
            "naive-two-step": "44 45 44 44 45 44 44 45 45 45 44 45",
        },
    ),
    (
        dict(m_signals=40, p=800, runs=12, seed=15, signal_model="uniform-band",
             fdr_level=0.05),
        {
            "cdfdr": "1 10 0 10 9 9 0 5 0 0 10 10",
            "bh": "26 24 24 24 23 23 24 26 23 24 24 23",
            "naive-two-step": "21 20 19 20 19 19 19 20 19 20 20 20",
        },
    ),
    (
        dict(m_signals=100, p=5000, runs=15, seed=14),
        {
            "cdfdr": "103 101 99 98 97 100 94 100 101 97 92 93 96 96 99",
            "bh": "132 113 119 123 120 125 118 122 118 118 116 117 118 114 126",
            "naive-two-step": "97 93 97 91 95 101 91 91 93 93 91 92 93 91 93",
        },
    ),
]


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

    @pytest.mark.parametrize("config, counts", PINNED_COUNTS)
    def test_counts_match_the_per_run_loop(self, config, counts):
        cfg = SimConfig(**config)
        report = run_experiment(cfg)
        assert list(report.counts) == list(counts)
        for method, pinned in counts.items():
            assert report.counts[method].tolist() == [int(c) for c in pinned.split()]

    def test_pinned_cases_span_several_chunks(self):
        assert max(c["runs"] * c["p"] for c, _ in PINNED_COUNTS) > 2 * CHUNK_ITEMS

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

    def test_cdfdr_needs_the_fdr_minimum_of_items(self):
        with pytest.raises(ConfigError, match="p must be >= 20") as info:
            run_experiment(SimConfig(m_signals=2, p=10))
        assert info.value.fields == ("p", "methods")
        report = run_experiment(SimConfig(m_signals=2, p=10, runs=2,
                                          methods=("bh", "naive-two-step")))
        assert set(report.counts) == {"bh", "naive-two-step"}

    def test_p_below_one_is_rejected_before_any_run(self):
        with pytest.raises(ConfigError, match="p must be >= 1") as info:
            run_experiment(SimConfig(m_signals=0, p=0, methods=("bh",)))
        assert info.value.fields == ("p",)

    @pytest.mark.parametrize(
        "settings, fields",
        [
            (dict(mu=np.nan), ("mu",)),
            (dict(mu=np.inf), ("mu",)),
            (dict(signal_model="uniform-band", lo=4.0, hi=2.0), ("lo", "hi")),
            (dict(signal_model="uniform-band", lo=np.nan), ("lo", "hi")),
            (dict(signal_model="uniform-band", hi=np.inf), ("lo", "hi")),
            (dict(seed=-1), ("seed",)),  # numpy's SeedSequence takes no negative seed
        ],
    )
    def test_signal_settings_out_of_range_are_rejected(self, settings, fields):
        cfg = SimConfig(m_signals=5, p=50, runs=1, **settings)
        with pytest.raises(ConfigError) as info:
            run_experiment(cfg)
        assert info.value.fields == fields

    def test_only_the_signal_model_settings_are_checked(self):
        SimConfig(m_signals=5, mu=np.nan, signal_model="uniform-band").validate()
        SimConfig(m_signals=5, lo=4.0, hi=np.inf).validate()

    @pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -0.2])
    def test_fdr_level_outside_unit_interval(self, level):
        # The naive arm has no level check of its own, so only validate stops it.
        cfg = SimConfig(m_signals=5, p=50, runs=1, methods=("naive-two-step",),
                        fdr_level=level)
        with pytest.raises(ConfigError, match="fdr_level"):
            run_experiment(cfg)


@pytest.mark.parametrize("baseline", [bh_baseline, naive_two_step_baseline])
@pytest.mark.parametrize("level", [0.0, 1.0, 1.5, float("nan")])
def test_baselines_apply_the_level_rule(baseline, level):
    z = np.random.default_rng(0).standard_normal(100)
    with pytest.raises(ConfigError, match=r"fdr_level must be in \(0, 1\)"):
        baseline(z, level)


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


@pytest.mark.parametrize("seed", [0, 1, 11, 2**32 + 5, 2**64 - 1])
def test_run_streams_are_default_rng_streams(seed):
    from cdmine.simulate import _stream

    for child in np.random.SeedSequence(seed).spawn(4):
        ours, ref = _stream(child), np.random.default_rng(child)
        assert ours.standard_normal(1000).tobytes() == ref.standard_normal(1000).tobytes()
        assert ours.uniform(2.0, 4.0, 50).tobytes() == ref.uniform(2.0, 4.0, 50).tobytes()
