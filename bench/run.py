"""cdmine benchmark: one seeded workload, closed loop, one caller, one process.

    python3 bench/run.py --workload panel-gauss --seed 1 --seconds 20 --trace 0

Runs the workload's operation back to back for --seconds, checks every
output against an independent oracle and the workload's consistency rules,
and prints as its last stdout line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With --trace 0 the metrics are
the end-to-end ones; with --trace 1 the operations alternate untraced and
traced, and the metrics are the per-layer ones from the traced operations.
The line before it is the run record (``run-record {...}``): machine and
input provenance, every sample, the quality figures and the checks.
"""

import env

env.setup()

import argparse  # noqa: E402  (after env.setup pins the BLAS threads)
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import cdmine  # noqa: E402

env.check_imported(cdmine)

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Cold samples per run, half before and half after the timed loop so that
# their median spans the run; the first FIRST_OP_REPEATS also time one
# operation in the fresh interpreter.
SETUP_REPEATS = 4
FIRST_OP_REPEATS = {"panel-gauss": 4, "rank-csv": 2, "sim-paper": 4}
PROBE_TIMEOUT_S = 120

END_TO_END = (  # name, unit
    ("op_s", "s"),
    ("items_per_s", "1/s"),
    ("first_op_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics read from one traced operation's span totals.  A name
# ending in .s, .self_s or .calls is that field of the span of the same
# stem; the others are derived below.
PER_LAYER = (
    ("dataset.load_csv.s", "s"),
    ("dataset.cells_per_s", "1/s"),
    ("midrank.mid_rank_transform.s", "s"),
    ("midrank.mid_rank_transform.calls", "count"),
    ("score_basis.build_score_basis.s", "s"),
    ("score_basis.build_score_basis.calls", "count"),
    ("score_basis.retry_ratio", "ratio"),
    ("cr.cr_result.s", "s"),
    ("cr.null_pvalue.s", "s"),
    ("cr.rank_variables.s", "s"),
    ("comp_density.cd_estimate.s", "s"),
    ("comp_density.cd_estimate.calls", "count"),
    ("comp_density.cd_used_ratio", "ratio"),
    ("pipeline.analyze.self_s", "s"),
    ("pipeline.write_ranked_csv.s", "s"),
    ("pipeline.export_plots.s", "s"),
    ("pipeline.write_summary_json.s", "s"),
    ("pipeline.bytes_written", "bytes"),
    ("svgplot.polyline_svg.s", "s"),
    ("svgplot.polyline_svg.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cdfdr.cdfdr_pipeline.s", "s"),
    ("cdfdr.cdfdr_pipeline.calls", "count"),
    ("cdfdr.estimate_null.s", "s"),
    ("cdfdr.preflatten.s", "s"),
    ("cdfdr.estimate_residual_density.s", "s"),
    ("cdfdr.inverse_fdr_curve.s", "s"),
    ("simulate.bh_baseline.s", "s"),
    ("simulate.naive_two_step_baseline.s", "s"),
    ("simulate.run_experiment.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def layer_values(totals: dict, digest, wl) -> dict:
    """Per-layer metric values of one traced operation (all but the overhead)."""

    def field(stem, attr):
        t = totals.get(stem)
        return getattr(t, attr) if t is not None else 0

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for name, _ in PER_LAYER:
        stem, _, attr = name.rpartition(".")
        if attr in ("s", "self_s", "calls"):
            out[name] = field(stem, attr)
    load_s = field("dataset.load_csv", "s")
    out["dataset.cells_per_s"] = ratio(getattr(wl, "cells_loaded", 0), load_s)
    out["score_basis.retry_ratio"] = ratio(
        field("score_basis.build_score_basis", "raised"),
        field("score_basis.build_score_basis", "calls"),
    )
    out["comp_density.cd_used_ratio"] = ratio(
        field("pipeline.curve_grid", "calls"), field("comp_density.cd_estimate", "calls")
    )
    out["pipeline.bytes_written"] = getattr(digest, "bytes_written", 0)
    return out


def read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def reference_s() -> float:
    """Seconds for a fixed pure-Python and numpy computation that runs no cdmine
    code.  Its drift between runs shows the shared machine's speed changing."""
    a = np.random.default_rng(0).normal(size=(100, 5))
    t = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i
    for _ in range(1000):
        np.linalg.qr(a)
    return time.perf_counter() - t


def provenance() -> dict:
    cpuinfo = read("/proc/cpuinfo") or ""
    model = next(
        (ln.split(":", 1)[1].strip() for ln in cpuinfo.splitlines()
         if ln.startswith("model name")),
        platform.processor() or None,
    )
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=env.ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # the benchmark checkout need not be a git repository
    digest = hashlib.sha256()
    for path in sorted((env.SRC / "cdmine").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cdmine": cdmine.__version__,
        "blas_threads": {var: os.environ[var] for var in env.THREAD_VARS},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "loadavg_start": read("/proc/loadavg"),
        "reference_s_start": reference_s(),
    }


def input_stats(truth) -> dict:
    """Share of columns with ties and with missing cells, when the input is a panel."""
    X = getattr(truth, "X", None)
    if X is None:
        return {}
    tied = missing = 0
    for j in range(X.shape[1]):
        col = X[:, j]
        present = col[~np.isnan(col)]
        missing += present.size < col.size
        tied += np.unique(present).size < present.size
    return {"n": X.shape[0], "p": X.shape[1],
            "tied_column_share": tied / X.shape[1],
            "missing_column_share": missing / X.shape[1]}


def probe(wl, workdir, with_op: bool) -> dict:
    cmd = [sys.executable, str(Path(__file__).with_name("probe.py")),
           "--workload", wl.name, "--workdir", str(workdir)]
    if with_op:
        cmd.append("--op")
    done = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def cold_samples(wl, seed, work: Path, indices) -> list:
    """Time input preparation plus a fresh interpreter's import and first operation."""
    samples = []
    for i in indices:
        d = work / f"cold{i}"
        d.mkdir()
        t = time.perf_counter()
        wl.prepare(seed, d)
        wl.load(d)
        prep_s = time.perf_counter() - t
        p = probe(wl, d, with_op=i < FIRST_OP_REPEATS[wl.name])
        p["setup_s"] = prep_s + p.pop("import_s")
        samples.append(p)
        shutil.rmtree(d)
    return samples


def run_loop(wl, inputs, work: Path, seconds: float, trace: bool):
    """Closed loop for ``seconds``; traced runs alternate untraced and traced ops."""
    tracer = Tracer() if trace else None
    ops = []  # dicts: elapsed, traced, digest, error, layers
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and len(ops) % 2 == 1
        outdir = str(work / f"op{len(ops)}")
        op = {"traced": traced, "digest": None, "error": None}
        if traced:
            tracer.install()
        t = time.perf_counter()
        try:
            if traced:
                result = tracer.record("op", wl.op, inputs, outdir)
            else:
                result = wl.op(inputs, outdir)
            op["elapsed"] = time.perf_counter() - t
            op["digest"] = wl.digest(result, outdir)
        except Exception as exc:  # a failed operation is counted, not fatal
            op["elapsed"] = time.perf_counter() - t
            op["error"] = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            op["layers"] = layer_values(tracer.take(), op["digest"], wl)
        shutil.rmtree(outdir, ignore_errors=True)
        ops.append(op)
        n_traced = sum(o["traced"] for o in ops)
        enough = not trace or (n_traced >= 2 and len(ops) - n_traced >= 2)
        if time.perf_counter() >= deadline and enough:
            return ops


def check(wl, truth, ops, cold) -> dict:
    """Oracle and consistency checks; marks each failed operation."""
    t = time.perf_counter()
    expected = wl.reference(truth)
    oracle_s = time.perf_counter() - t
    worst = 0.0
    first = next((o for o in ops if o["digest"] is not None), None)
    for op in ops:
        problems = [op["error"]] if op["error"] else []
        d = op["digest"]
        if d is not None:
            bad, dev = wl.problems(d, truth, expected)
            problems += bad
            worst = max(worst, dev)
            op["quality"] = wl.quality(d, truth)
            if d.key() != first["digest"].key() or op["quality"] != first["quality"]:
                problems.append("output differs from the first operation's")
        op["problems"] = problems
    probe_problems = []
    if first is not None:
        key = hashlib.sha256(repr(first["digest"].key()).encode()).hexdigest()
        probe_problems = [
            "a fresh-process operation's output differs from the timed loop's"
            for c in cold if "key_sha256" in c and c["key_sha256"] != key
        ]
    return {"oracle_s": oracle_s, "oracle_max_dev": worst,
            "probe_problems": probe_problems,
            "quality": first["quality"] if first else {}}


def median(xs):
    return statistics.median(xs) if xs else 0.0


def column(samples, key):
    return [s[key] for s in samples if key in s]


def metrics(wl, ops, cold, trace: bool) -> dict:
    good = [o for o in ops if not o["problems"]]
    if trace:
        traced = [o for o in good if o["traced"]]
        plain = [o["elapsed"] for o in good if not o["traced"]]
        values = {name: median([o["layers"][name] for o in traced])
                  for name, _ in PER_LAYER if name != "trace.overhead_ratio"}
        base = median(plain)
        values["trace.overhead_ratio"] = (
            median([o["elapsed"] for o in traced]) / base if base else 0.0
        )
        units = dict(PER_LAYER)
    else:
        op_s = median([o["elapsed"] for o in good])
        values = {
            "op_s": op_s,
            "items_per_s": wl.items_per_op / op_s if op_s else 0.0,
            "first_op_s": median(column(cold, "first_op_s")),
            "setup_s": median(column(cold, "setup_s")),
            "peak_rss_mb": median(column(cold, "peak_rss_mb")),
        }
        units = dict(END_TO_END)
    return {name: {"value": float(v), "unit": units[name]} for name, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    trace = bool(args.trace)

    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "loop": "closed, 1 caller, 1 process",
              "provenance": provenance()}
    env.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=env.WORK))
    try:
        (work / "input").mkdir()
        truth = wl.prepare(args.seed, work / "input")
        inputs = wl.load(work / "input")
        cold = [] if trace else cold_samples(wl, args.seed, work, range(0, SETUP_REPEATS, 2))
        ops = run_loop(wl, inputs, work, args.seconds, trace)
        if not trace:
            cold += cold_samples(wl, args.seed, work, range(1, SETUP_REPEATS, 2))
        checks = check(wl, truth, ops, cold)
        record["input"] = input_stats(truth)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["provenance"]["loadavg_end"] = read("/proc/loadavg")
    record["provenance"]["reference_s_end"] = reference_s()

    failed = sum(bool(o["problems"]) for o in ops) + len(checks["probe_problems"])
    attempted = len(ops) + len(column(cold, "first_op_s"))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics(wl, ops, cold, trace),
    }
    record.update(
        samples={
            "op_s": [o["elapsed"] for o in ops],
            "traced": [o["traced"] for o in ops],
            "setup_s": column(cold, "setup_s"),
            "first_op_s": column(cold, "first_op_s"),
            "peak_rss_mb": column(cold, "peak_rss_mb"),
        },
        items_per_op=wl.items_per_op,
        fail_ratio=failed / attempted,
        quality=checks["quality"],
        oracle_max_dev=checks["oracle_max_dev"],
        oracle_s=checks["oracle_s"],
        problems=[p for o in ops for p in o["problems"]][:20] + checks["probe_problems"],
    )
    print("run-record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
