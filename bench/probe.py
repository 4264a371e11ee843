"""Fresh-interpreter probe: time ``import cdmine`` and, optionally, one cold operation.

    python3 bench/probe.py --workload rank-csv --workdir DIR [--op]

DIR holds inputs written by the workload's ``prepare``.  Prints one JSON
line: import_s, and with --op also first_op_s, peak_rss_mb (this process's
peak resident memory) and key_sha256, a hash of what must repeat exactly.
"""

import env

env.setup()

import argparse  # noqa: E402  (after env.setup pins the BLAS threads)
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import time  # noqa: E402

t0 = time.perf_counter()
import cdmine  # noqa: E402

import_s = time.perf_counter() - t0
env.check_imported(cdmine)

from workloads import WORKLOADS  # noqa: E402


def peak_rss_mb() -> float:
    """VmHWM of this process.  Unlike ru_maxrss, it is not inherited from the
    parent that spawned the interpreter."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--op", action="store_true")
    args = parser.parse_args()
    out = {"import_s": import_s}
    if args.op:
        wl = WORKLOADS[args.workload]
        inputs = wl.load(args.workdir)
        outdir = os.path.join(args.workdir, f"probe-out-{os.getpid()}")
        t = time.perf_counter()
        result = wl.op(inputs, outdir)
        out["first_op_s"] = time.perf_counter() - t
        out["peak_rss_mb"] = peak_rss_mb()
        key = wl.digest(result, outdir).key()
        out["key_sha256"] = hashlib.sha256(repr(key).encode()).hexdigest()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
