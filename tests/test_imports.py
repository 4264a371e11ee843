"""cdmine runs on numpy and scipy.special alone: every stage, the simulation
harness and the CLI complete without loading scipy.stats, whose import costs
more than the rest of the package together."""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SCRIPT = r"""
import contextlib, io, os, sys, tempfile
import numpy as np
import cdmine
from cdmine import cli
from cdmine.cdfdr import cdfdr_pipeline
from cdmine.dataset import Dataset
from cdmine.midrank import VariableColumn
from cdmine.pipeline import analyze, export_plots
from cdmine.simulate import SimConfig, run_experiment

rng = np.random.default_rng(0)
n, p = 40, 25
y = np.arange(n) % 2
cols = []
for j in range(p):
    x = np.round(rng.normal(size=n) + (j == 0) * y, 1)
    missing = np.zeros(n, dtype=bool)
    missing[j % n] = j % 3 == 0
    cols.append(VariableColumn(values=x, missing=missing, name=f"v{j}"))
report = analyze(Dataset(variables=cols, labels=y, positive_label="1", n=n, p=p))
assert report.fdr is not None
cdfdr_pipeline(rng.standard_normal(200))
run_experiment(SimConfig(m_signals=5, p=100, runs=2))
with tempfile.TemporaryDirectory() as tmp:
    written = export_plots(report, tmp, svg=True)
    assert os.path.join(tmp, "cd_v0.csv") in written
    path = os.path.join(tmp, "z.csv")
    with open(path, "w") as fh:
        fh.write("id,z\n" + "".join(f"g{i},{v}\n" for i, v in enumerate(rng.standard_normal(50))))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["fdr", path, "--col", "z", "--out", os.path.join(tmp, "o.csv")]) == 0
print("scipy.stats" in sys.modules)
"""


def test_no_stage_loads_scipy_stats():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
