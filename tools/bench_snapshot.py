"""Run the benchmark of a checkout and keep its results with the machine they ran on.

    python3 tools/bench_snapshot.py --label NAME --seed 1 --seconds 20 [--root DIR]
        [--workload W ...] [--out DIR] [--smoke]

For each workload of the checkout's BENCHMARK.json (or each --workload),
runs that checkout's own ``bench/run.py --workload W --seed S --seconds T``
in a subprocess from its root, twice: once at the default BLAS thread count
(OPENBLAS_NUM_THREADS unset) and once with OPENBLAS_NUM_THREADS=1, set for
the child alone. Writes BENCH_<label>.json into --out (default: this
checkout's root) with the checkout's commit (suffixed "-dirty" when its tree
has uncommitted changes), the CPU model, Python, numpy and its BLAS name and
version as the harness printed them, os.cpu_count(), the line count of
each of the checkout's ``src/sandwich_opt/*.py`` modules (``source_lines``),
and per run the thread setting, the run's ``meta`` lines (among them the
BLAS thread count) and digests, and its final JSON line as bench/run.py
printed it. Nothing is computed anew: no metric, no bound. --root defaults to this checkout; point
it at a clone of another commit to snapshot that commit. --smoke passes
bench/run.py's smallest workload sizes, for testing this script.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Beyond the measured window, a run imports numpy, generates its inputs and
# warms up; a run past this many seconds more is stopped and reported.
TIMEOUT_SLACK_S = 600
THREAD_SETTINGS = (None, "1")  # OPENBLAS_NUM_THREADS: unset (default), then 1


def _commit(root):
    def git(*args):
        return subprocess.run(["git", "-C", root, *args], capture_output=True, text=True)

    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return "unknown"
    return head.stdout.strip() + ("-dirty" if git("status", "--porcelain").stdout.strip() else "")


def _source_lines(root):
    """{module file name: line count} of the checkout's package sources."""
    counts = {}
    for path in sorted(glob.glob(os.path.join(root, "src", "sandwich_opt", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            counts[os.path.basename(path)] = fh.read().count("\n")  # as `wc -l` counts
    return counts


def run_bench(root, workload, seed, seconds, threads, smoke):
    """One ``bench/run.py`` run in a subprocess: its meta lines, digests and final JSON line."""
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)] + (["--smoke"] if smoke else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=root, env=env,
                          timeout=seconds + TIMEOUT_SLACK_S)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {
        "workload": workload,
        "openblas_num_threads": threads,
        "meta": dict(re.findall(r"^meta (\S+) = (.*)$", proc.stdout, re.M)),
        "digests": dict(re.findall(r"^(\w+_digest) = (\w+)$", proc.stdout, re.M)),
        "result": json.loads(lines[-1]),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--root", default=ROOT, help="checkout to run (default: this one)")
    parser.add_argument("--workload", action="append",
                        help="workload to run; repeatable (default: all of BENCHMARK.json)")
    parser.add_argument("--out", default=ROOT, help="directory for BENCH_<label>.json")
    parser.add_argument("--smoke", action="store_true",
                        help="bench/run.py's smallest workload sizes")
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[\w.-]+", args.label):
        parser.error("--label may hold only letters, digits, '_', '.' and '-'")
    root = os.path.abspath(args.root)
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    workloads = args.workload or names
    unknown = sorted(set(workloads) - set(names))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; BENCHMARK.json lists {names}")

    runs = [run_bench(root, w, args.seed, args.seconds, threads, args.smoke)
            for w in workloads for threads in THREAD_SETTINGS]
    snapshot = {
        "label": args.label,
        "commit": _commit(root),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        # the machine as the first run's harness described it
        **{key: runs[0]["meta"].get(key, "unknown") for key in ("cpu", "python", "numpy", "blas")},
        "cpu_count": os.cpu_count(),
        "source_lines": _source_lines(root),
        "runs": runs,
    }
    path = os.path.join(args.out, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
