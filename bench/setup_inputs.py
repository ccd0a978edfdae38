"""Set-up step of the benchmark, run in a fresh interpreter and timed whole.

Imports the package, generates the workload's inputs from the seed, writes
them into --dir, and loads them back with the package's own loaders. The
harness (run.py) runs this several times and reports the median as setup_s.

    python3 bench/setup_inputs.py --workload barycenter-n64 --seed 1 --dir DIR
"""

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import sandwich_opt.cli  # noqa: E402,F401  (import cost belongs to set-up)

import workloads  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    workloads.generate(args.workload, args.seed, sizes, args.dir)
    workloads.load_inputs(args.dir, workloads.load_plan(args.dir))


if __name__ == "__main__":
    main()
