"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 bench/sweep.py --workloads rank-csv sim-paper --seeds 1 2 3 4 5 \
        [--trace 0] [--out bench/records/NAME.json]

Runs ``BENCHMARK.json``'s command once per workload and seed, sequentially,
and reports per workload and metric the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median.
A spread above a third of the metric's bound is marked.  With --out the
summary, each run's record and the machine provenance are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    record = json.loads(lines[-2].removeprefix("run-record "))
    return json.loads(lines[-1]), record


def summarise(values, bound):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "steady": bound is None or spread <= bound / 3, "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    summary = {"run_seconds": spec["run_seconds"], "trace": args.trace,
               "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        results, records = [], []
        for seed in args.seeds:
            result, record = run_once(spec, workload, seed, args.trace)
            results.append(result)
            records.append(record)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}",
                  file=sys.stderr)
        metrics = {
            name: summarise([r["metrics"][name]["value"] for r in results], bounds.get(name))
            for name in results[0]["metrics"]
        }
        metrics["reference_s"] = summarise(
            [r["provenance"][f"reference_s_{end}"] for r in records for end in ("start", "end")],
            None,
        )
        summary["workloads"][workload] = {
            "all_correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics,
            "quality": {str(s): rec["quality"] for s, rec in zip(args.seeds, records)},
            "input": records[0]["input"],
            "records": records,
        }
        for name, m in metrics.items():
            mark = "" if m["steady"] else "  <-- spread above bound/3"
            print(f"{workload:12s} {name:38s} median {m['median']:.6g} "
                  f"spread {m['spread']:.4f}{mark}")
    summary["provenance"] = records[0]["provenance"]
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
