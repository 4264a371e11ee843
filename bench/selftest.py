"""Self-tests of the benchmark itself (not collected by the repo's pytest run).

    python3 bench/selftest.py [-v]

The rank-csv test runs one untraced and one traced full-size operation, so
the whole file takes well under a minute.
"""

import env

env.setup()

import json  # noqa: E402  (after env.setup pins the BLAS threads)
import re  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
import unittest  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Panel, PanelTruth  # noqa: E402

from cdmine.dataset import Dataset  # noqa: E402
from cdmine.midrank import VariableColumn  # noqa: E402
from cdmine.pipeline import analyze  # noqa: E402


class WorkDir(unittest.TestCase):
    def setUp(self):
        env.WORK.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="selftest-", dir=env.WORK))

    def tearDown(self):
        shutil.rmtree(self.work, ignore_errors=True)


class TestInputs(WorkDir):
    def test_same_seed_gives_byte_identical_inputs(self):
        for wl in WORKLOADS.values():
            files = []
            for tag, seed in (("a", 5), ("b", 5), ("c", 6)):
                d = self.work / f"{wl.name}-{tag}"
                d.mkdir()
                wl.prepare(seed, d)
                files.append({p.name: p.read_bytes() for p in sorted(d.iterdir())})
            self.assertEqual(files[0], files[1], wl.name)
            self.assertNotEqual(files[0], files[2], wl.name)


class TestOracle(unittest.TestCase):
    def panel(self):
        """A small panel with ties, missing cells and class imbalance."""
        rng = np.random.default_rng(7)
        n, p = 102, 40
        y = (rng.random(n) < 0.4).astype(int)
        X = rng.normal(size=(n, p))
        X[:, ::3] = np.round(X[:, ::3], 1)
        X[rng.random((n, p)) < 0.05] = np.nan
        names = [f"c{j}" for j in range(p)]
        cols = [VariableColumn.from_values(X[:, j], name=names[j]) for j in range(p)]
        ds = Dataset(variables=cols, labels=y, positive_label="1", n=n, p=p)
        truth = PanelTruth(X=X, y=y, names=names, planted={}, flags={})
        got = {va.name: va.cr.components for va in analyze(ds).per_variable}
        return Panel.reference(truth), got

    def test_oracle_agrees_with_cdmine(self):
        expected, got = self.panel()
        problems, worst = oracle.mismatches(expected, got)
        self.assertEqual(problems, [])
        self.assertLess(worst, oracle.TOLERANCE)

    def test_oracle_rejects_a_perturbed_cr(self):
        expected, got = self.panel()
        got["c5"] = got["c5"] + np.array([0.0, 1e-8, 0.0, 0.0])
        problems, worst = oracle.mismatches(expected, got)
        self.assertEqual(len(problems), 1)
        self.assertIn("c5", problems[0])
        self.assertGreater(worst, oracle.TOLERANCE)


class TestSpans(unittest.TestCase):
    def test_self_time_subtracts_covered_child_intervals(self):
        S = spans.Span
        tree = [
            S(0, None, "root", 0.0, 10.0),
            S(1, 0, "a", 1.0, 3.0),
            S(2, 0, "a", 2.0, 4.0),  # overlaps its sibling: covered once
            S(3, 0, "b", 5.0, 6.0),
            S(4, 3, "c", 5.2, 5.5),  # grandchild: covers b, not root
            S(5, 0, "d", 9.0, 12.0),  # runs past its parent: clipped
        ]
        selfs = spans.self_times(tree)
        self.assertAlmostEqual(selfs[0], 10.0 - 3.0 - 1.0 - 1.0)
        self.assertAlmostEqual(selfs[3], 1.0 - 0.3)
        self.assertAlmostEqual(selfs[1], 2.0)
        totals = spans.totals_by_name(tree)
        self.assertEqual(totals["a"].calls, 2)
        self.assertAlmostEqual(totals["a"].s, 4.0)
        self.assertAlmostEqual(totals["root"].self_s, 5.0)

    def test_tracer_wraps_by_lookup_name_and_restores(self):
        mod = types.ModuleType("selftest_fake")

        def leaf(x):
            if x < 0:
                raise ValueError(x)
            return x

        def outer(x):
            return mod.leaf(x) + mod.leaf(x)

        mod.leaf, mod.outer = leaf, outer
        sys.modules[mod.__name__] = mod
        try:
            tracer = spans.Tracer()
            tracer.install([(mod.__name__, "leaf", "fake.leaf"),
                            (mod.__name__, "outer", "fake.outer"),
                            (mod.__name__, "absent", "fake.absent")])
            self.assertEqual(mod.outer(2), 4)
            with self.assertRaises(ValueError):
                mod.leaf(-1)
            tracer.uninstall()
            self.assertIs(mod.leaf, leaf)
            totals = tracer.take()
            self.assertEqual(totals["fake.leaf"].calls, 3)
            self.assertEqual(totals["fake.leaf"].raised, 1)
            self.assertEqual(totals["fake.outer"].calls, 1)
            self.assertNotIn("fake.absent", totals)
        finally:
            del sys.modules[mod.__name__]


class TestRankCsvCoverage(WorkDir):
    def test_child_spans_account_for_cli_main(self):
        wl = WORKLOADS["rank-csv"]
        wl.prepare(3, self.work)
        inputs = wl.load(self.work)
        t = time.perf_counter()
        wl.op(inputs, str(self.work / "plain"))
        plain_s = time.perf_counter() - t
        tracer = spans.Tracer()
        tracer.install()
        try:
            t = time.perf_counter()
            wl.op(inputs, str(self.work / "traced"))
            traced_s = time.perf_counter() - t
        finally:
            tracer.uninstall()
        main = tracer.take()["cli.main"]
        overhead = traced_s / plain_s - 1.0
        self.assertLessEqual(main.self_s / main.s, max(overhead, 0.02))


class TestContract(WorkDir):
    NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

    def test_benchmark_json_matches_the_metric_lists(self):
        spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        for w in spec["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(run.PER_LAYER))
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(max(bounds.values()), bounds["setup_s"])
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["name"], self.NAME)
            self.assertRegex(m["unit"], self.UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        self.assertTrue(1 <= spec["run_seconds"] <= 60)

    def test_refuses_to_run_without_the_sources(self):
        spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
        shutil.copy(env.ROOT / "BENCHMARK.json", self.work)
        for path in spec["paths"]:
            shutil.copytree(env.ROOT / path, self.work / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        cmd = spec["command"] + ["--workload", "sim-paper", "--seed", "1",
                                 "--seconds", "1", "--trace", "0"]
        done = subprocess.run(cmd, cwd=self.work, capture_output=True, text=True,
                              timeout=180)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
