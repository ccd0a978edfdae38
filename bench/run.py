"""Benchmark harness for sandwich-opt: end-to-end and per-layer metrics.

    python3 bench/run.py --workload barycenter-n64 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ./src. Each
operation is an in-process ``sandwich_opt.cli.main(argv)`` call on inputs that
bench/setup_inputs.py generated from the seed. Every output is checked.
Standard output lists run metadata and every metric by name and unit; the
last line is one JSON object {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones, measured untraced. With
--trace 1 the same operations run under the tracer (tracer.py) and then
again untraced, and the metrics are the per-layer ones plus the tracing
overhead. --workload all runs the three workloads one after another.
See bench/README.md for the meaning of each metric.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import workloads
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".bench_run")

SETUP_REPEATS = 5
COLD_START_REPEATS = 3
# Untimed operations at the start of a run: the first solve of a process
# is markedly slower than the rest.
WARMUP_S = 1.5
SUBPROCESS_TIMEOUT_S = 120
FLOOR_SIZES = (4, 8, 16, 64)

# Host-speed calibration. Shared hosts change speed by tens of percent within
# minutes, single-threaded code included, so every timing is scaled by how
# long a fixed numpy kernel took right before and right after it, relative to
# that kernel's time on the reference host (2-vCPU Xeon, Python 3.11.7,
# numpy 2.4.6, OpenBLAS 0.3.31). The kernel works at the matrix size that
# dominates the workload; set-up and cold start use the n=4 kernel, which is
# mostly interpreter overhead like them. A kernel time is the median of
# CAL_BATCHES batches, which drops batches hit by an interrupt. Raw times are
# printed alongside.
CAL_N = {"barycenter-n64": 64, "verify-n4": 4, "certify-hess": 8}
CAL_BATCHES = 5
CAL_CALLS = {4: 20, 8: 16, 64: 4}  # per batch
CAL_REF_S = {4: 0.38e-3, 8: 0.52e-3, 64: 3.5e-3}  # per batch
_EIGH = np.linalg.eigh  # bound before the tracer can wrap it

SUITE_RUNNERS = {
    "trace-chain": "inequalities.run_trace_chain_suite",
    "log-major": "inequalities.run_log_major_suite",
    "variational": "inequalities.run_variational_suite",
    "gauge": "inequalities.run_gauge_suite",
    "limits": "inequalities.run_limits_suite",
    "open-question": "inequalities.open_question_search",
}


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _median(values):
    return statistics.median(values) if values else 0.0


def _tail(values):
    """(label, value) of the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    if n < 21:
        return None
    pct = math.floor(100 * (n - 10) / n)
    return f"p{pct}", sorted(values)[n - 11]


# ---------------------------------------------------------------- set-up


class Calibration:
    """A fixed numpy kernel at one matrix size, timed to track host speed."""

    def __init__(self, n):
        Z = np.random.default_rng(n).standard_normal((n, n, 2)) @ np.array([1.0, 1.0j])
        self._H = Z + Z.conj().T
        self._calls = CAL_CALLS[n]
        self._ref = CAL_REF_S[n]
        self.measure()  # the first call pays for numpy's lazy set-up

    def measure(self):
        H = self._H
        batches = []
        for _ in range(CAL_BATCHES):
            start = time.perf_counter()
            for _ in range(self._calls):
                _EIGH(H)
                H @ H
                float(np.vdot(H, H).real)
            batches.append(time.perf_counter() - start)
        return statistics.median(batches)

    def factor(self, before, after):
        """Reference-host seconds per second measured between before and after."""
        return self._ref / ((before + after) / 2)


def timed_subprocess(cmd, repeats, **kwargs):
    """Raw and calibrated wall times of `repeats` runs of cmd; the last result."""
    cal = Calibration(4)
    raw, scaled = [], []
    for _ in range(repeats):
        before = cal.measure()
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT_S, **kwargs)
        raw.append(time.perf_counter() - start)
        scaled.append(raw[-1] * cal.factor(before, cal.measure()))
        if proc.returncode != 0:
            raise HarnessError(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    return raw, scaled, proc


def timed_setup(args, workdir, repeats):
    """Times of fresh-interpreter set-ups writing the inputs into workdir."""
    cmd = [sys.executable, os.path.join(HERE, "setup_inputs.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--dir", workdir] + (["--smoke"] if args.smoke else [])
    return timed_subprocess(cmd, repeats)[:2]


def import_package():
    init = os.path.join(SRC, "sandwich_opt", "__init__.py")
    if not os.path.isfile(init):
        raise HarnessError(f"no package source at {init}; run from the repository root")
    sys.path.insert(0, SRC)
    import sandwich_opt
    import sandwich_opt.cli

    if os.path.abspath(sandwich_opt.__file__) != os.path.abspath(init):
        raise HarnessError(f"imported sandwich_opt from {sandwich_opt.__file__}, not {init}")
    return sandwich_opt


# ---------------------------------------------------------------- operations


class Runner:
    """Runs operations, checks their outputs and counts failures."""

    def __init__(self, package, workdir):
        self.cli = package.cli
        self.workdir = workdir
        self.checker = workloads.Checker()
        self.attempted = 0
        self.failures = []
        self.digests = {}       # key -> sha256 of the first report
        self.fingerprints = {}  # key -> exact counts of the first traced run

    def fail(self, key, reason):
        self.failures.append(f"{key}: {reason}")

    def run(self, op, tracer=None):
        argv = [a.format(dir=self.workdir) for a in op["argv"]]
        out = argv[argv.index("--out") + 1]
        if os.path.exists(out):
            os.remove(out)
        self.attempted += 1
        if tracer is not None:
            tracer.begin_op()
        stderr = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(stderr):
                code = self.cli.main(argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed operation
            code = f"raised {exc!r}"
        wall = time.perf_counter() - start
        trace = tracer.end_op() if tracer is not None else None
        rec = {"op": op, "wall": wall, "trace": trace, "report": None, "bytes": 0}
        try:
            with open(out, "rb") as fh:
                data = fh.read()
            rec["report"] = json.loads(data)
            rec["bytes"] = len(data)
        except (OSError, ValueError) as exc:
            self.fail(op["key"], f"exit {code}, no readable report ({exc}) {stderr.getvalue()}")
            return rec
        try:
            reason = self.checker.check(op, code, rec["report"])
        except (KeyError, TypeError, ValueError) as exc:
            reason = f"malformed report ({exc!r})"
        if reason is not None:
            self.fail(op["key"], reason)
        digest = hashlib.sha256(data).hexdigest()
        rec["digest"] = digest
        first = self.digests.setdefault(op["key"], digest)
        if digest != first:
            self.fail(op["key"], "report differs from the first run of the same input")
        if trace is not None:
            self._check_fingerprint(op["key"], rec)
        return rec

    def _check_fingerprint(self, key, rec):
        t = rec["trace"]
        fp = (t.calls("numpy.linalg.eigh"), t.calls("numpy.linalg.eigvalsh"),
              t.calls("calculus.hessian_apply"), t.calls("entropy.geometric_mean"),
              t.calls("inequalities._mp_relation_margin"), rec["report"].get("iterations"))
        first = self.fingerprints.setdefault(key, fp)
        if fp != first:
            self.fail(key, f"exact counts {fp} differ from the first traced run {first}")


def calibrated(runner, cal, tracer=None):
    """run(op) for runner that also records the host-speed factor around op."""
    last = [cal.measure()]

    def run(op):
        rec = runner.run(op, tracer)
        after = cal.measure()
        rec["speed"] = cal.factor(last[0], after)
        last[0] = after
        return rec
    return run


def run_loop(run, ops, seconds, warmup_s):
    """Cycle through ops: warm-up first, then until `seconds` have passed and
    every op ran at least once. Records carry their pass index."""
    records = []
    start = time.perf_counter()
    timed_start = start if warmup_s <= 0 else None
    i = 0
    while True:
        now = time.perf_counter()
        if timed_start is None and now - start >= warmup_s:
            timed_start = now
        if timed_start is not None and i >= len(ops) and now - timed_start >= seconds:
            break
        rec = run(ops[i % len(ops)])
        rec["pass"] = i // len(ops)
        rec["timed"] = timed_start is not None
        records.append(rec)
        i += 1
    return records


# ---------------------------------------------------------------- end-to-end


def _s(rec, calibrate=True):
    """The record's wall time, scaled to the reference host unless raw."""
    return rec["wall"] * (rec["speed"] if calibrate else 1.0)


def e2e_samples(workload, records, calibrate=True):
    """Per-operation samples (ms) for the primary_ms and secondary_ms slots."""
    timed = [r for r in records if r["timed"]]

    def ms(kind, per_trial=False):
        return [1000 * _s(r, calibrate) / (r["op"]["trials"] if per_trial else 1)
                for r in timed if r["op"]["kind"] == kind]

    if workload == "barycenter-n64":
        return ms("gp"), ms("fp")
    if workload == "certify-hess":
        return ms("dense"), ms("power")
    panels = {}
    for r in timed:
        panels.setdefault(r["pass"], []).append(r)
    per_trial = [1000 * sum(_s(r, calibrate) for r in p) / sum(r["op"]["trials"] for r in p)
                 for p in panels.values() if len(p) == len(workloads.SUITES)]
    return per_trial, ms("limits", per_trial=True)


# Per-workload names of the two slots, printed next to them: (name, unit, scale
# applied to the slot's median in ms).
SLOT_NAMES = {
    "barycenter-n64": (("gp_solve_s", "s", 1e-3), ("fp_solve_s", "s", 1e-3)),
    "verify-n4": (("verify_trials_per_s", "1/s", None), ("limits_ms_per_trial", "ms", 1.0)),
    "certify-hess": (("certify_dense_ms", "ms", 1.0), ("certify_power_ms", "ms", 1.0)),
}


def end_to_end(workload, records, setup, runner, lines):
    raw_setup, setup_times = setup
    primary, secondary = e2e_samples(workload, records)
    raw = dict(zip(("setup_s", "primary_ms", "secondary_ms"),
                   (_median(raw_setup), *map(_median, e2e_samples(workload, records, False)))))
    metrics = {
        "setup_s": (_median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "primary_ms": (_median(primary), "ms"),
        "secondary_ms": (_median(secondary), "ms"),
    }
    samples = {"setup_s": setup_times, "primary_ms": primary, "secondary_ms": secondary}
    for name, (value, unit) in metrics.items():
        lines.append(_metric_line(name, value, unit, samples.get(name), raw.get(name)))
    for (alias, unit, scale), slot in zip(SLOT_NAMES[workload], ("primary_ms", "secondary_ms")):
        med = metrics[slot][0]
        value = (1000.0 / med if med else 0.0) if scale is None else med * scale
        lines.append(f"metric {alias} = {value!r} {unit}  (from {slot})")
    lines.append(f"metric fail_frac = {len(runner.failures) / max(runner.attempted, 1)!r} ratio"
                 f"  ({len(runner.failures)} of {runner.attempted} operations)")
    return metrics


def _metric_line(name, value, unit, samples=None, raw=None):
    line = f"metric {name} = {value!r} {unit}"
    if samples:
        line += f"  (calibrated; raw {raw!r} {unit}; median of {len(samples)}"
        tail = _tail(samples)
        if tail is not None:
            line += f"; {tail[0]} = {tail[1]!r} {unit}, 10 samples beyond"
        line += ")"
    return line


# ---------------------------------------------------------------- per-layer


def eigh_floor_us(n, rng):
    """Median time of a bare complex Hermitian np.linalg.eigh of size n, in us."""
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    H = Z + Z.conj().T
    calls = max(5, 4000 // (n * n))
    batches = []
    for _ in range(9):
        start = time.perf_counter()
        for _ in range(calls):
            np.linalg.eigh(H)
        batches.append((time.perf_counter() - start) / calls)
    return 1e6 * statistics.median(batches)


def cold_start_s(repeats):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, "-m", "sandwich_opt", "constants", "--t", "0.5", "--alpha", "1",
           "--beta", "4"]
    _, times, proc = timed_subprocess(cmd, repeats, env=env, cwd=ROOT)
    if "k1" not in proc.stdout:
        raise HarnessError(f"cold start printed no constants:\n{proc.stdout}")
    return statistics.median(times)


def _self_per_op(records, names, kinds=None):
    """Mean calibrated self time of `names` per operation that calls any of them."""
    vals = [r["speed"] * sum(r["trace"].self_s(n) for n in names) for r in records
            if any(r["trace"].calls(n) for n in names)
            and (kinds is None or r["op"]["kind"] in kinds)]
    return statistics.fmean(vals) if vals else 0.0


def _count_per_op(first, name):
    return statistics.fmean(r["trace"].calls(name) for r in first)


def _decompositions(rec):
    return rec["trace"].calls("numpy.linalg.eigh") + rec["trace"].calls("numpy.linalg.eigvalsh")


def per_layer(traced, floors, cold):
    """Per-layer metrics: self times per operation over the timed traced
    records; exact counts per operation over the first pass."""
    timed = [r for r in traced if r["timed"]]
    first = [r for r in traced if r["pass"] == 0]
    m = {}
    for n, v in floors.items():
        m[f"lapack.eigh_floor_us.n{n}"] = (v, "us")
    m["linalg.eigh_calls"] = (_count_per_op(first, "numpy.linalg.eigh"), "count")
    m["linalg.eigvalsh_calls"] = (_count_per_op(first, "numpy.linalg.eigvalsh"), "count")
    m["linalg.spectral_decompose_s"] = (_self_per_op(timed, ["linalg.spectral_decompose"]), "s")
    m["linalg.matrix_power_s"] = (_self_per_op(timed, ["linalg.matrix_power"]), "s")
    m["linalg.project_box_s"] = (_self_per_op(timed, ["linalg.project_box"]), "s")
    m["entropy.geometric_mean_s"] = (_self_per_op(timed, ["entropy.geometric_mean"]), "s")
    m["entropy.geometric_mean_calls"] = (_count_per_op(first, "entropy.geometric_mean"), "count")
    m["entropy.sandwich_trace_s"] = (_self_per_op(timed, ["entropy.sandwich_trace"]), "s")
    for name in ("hessian_operator", "hessian_operator_matrix", "hessian_extreme_eigs"):
        m[f"calculus.{name}_s"] = (_self_per_op(timed, [f"calculus.{name}"]), "s")
    m["calculus.hessian_apply_calls"] = (_count_per_op(first, "calculus.hessian_apply"), "count")

    solvers = {"gp": "barycenter.solve_gradient_projection", "fp": "barycenter.solve_fixed_point"}
    for kind, solver in solvers.items():
        runs = [r for r in first if r["op"]["kind"] == kind]
        iters = [r["report"]["iterations"] for r in runs]
        eighs = sum(r["trace"].calls("numpy.linalg.eigh") for r in runs)
        walls = [1000 * r["speed"] * r["trace"].inclusive_s(solver)
                 / max(r["report"]["iterations"], 1)
                 for r in timed if r["op"]["kind"] == kind]
        m[f"barycenter.{kind}_iters"] = (statistics.fmean(iters) if iters else 0, "count")
        m[f"barycenter.{kind}_iter_ms"] = (_median(walls), "ms")
        m[f"barycenter.eigh_per_{kind}_iter"] = (eighs / sum(iters) if sum(iters) else 0, "count")
    m["barycenter.fixed_point_map_s"] = (
        _self_per_op(timed, ["barycenter.fixed_point_map"], kinds={"fp"}), "s")
    m["barycenter.problem_validate_s"] = (
        _self_per_op(timed, ["barycenter.barycenter_problem"]), "s")

    for suite, runner in SUITE_RUNNERS.items():
        slug = suite.replace("-", "_")
        runs = [r["speed"] * r["trace"].inclusive_s(runner)
                for r in timed if r["op"]["kind"] == suite]
        m[f"inequalities.{slug}_s"] = (_median(runs), "s")
        firsts = [r for r in first if r["op"]["kind"] == suite]
        per_trial = (statistics.fmean(_decompositions(r) / r["op"]["trials"] for r in firsts)
                     if firsts else 0)
        m[f"inequalities.eigh_per_trial.{slug}"] = (per_trial, "count")
    m["inequalities.gamma_limit_check_s"] = (
        _self_per_op(timed, ["inequalities.gamma_limit_check"]), "s")
    m["inequalities.mp_rechecks"] = (_count_per_op(first, "inequalities._mp_relation_margin"),
                                     "count")

    m["serialization.load_s"] = (
        _self_per_op(timed, ["serialization.load_problem", "serialization.load_matrix"]), "s")
    m["serialization.dump_s"] = (_self_per_op(timed, [
        "serialization.report_to_json", "serialization.matrix_to_json",
        "serialization.canonical_json"]), "s")
    m["serialization.report_bytes"] = (statistics.fmean(r["bytes"] for r in first), "bytes")
    m["cli.cold_start_s"] = (cold, "s")
    return m


def exact_counts_digest(traced):
    """Digest of the exact counts of the first pass, comparable across runs."""
    rows = [[r["op"]["key"], r["trace"].calls("numpy.linalg.eigh"),
             r["trace"].calls("numpy.linalg.eigvalsh"), r["trace"].calls("calculus.hessian_apply"),
             r["trace"].calls("entropy.geometric_mean"), r["report"].get("iterations")]
            for r in traced if r["pass"] == 0 and r["report"] is not None]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


# ---------------------------------------------------------------- metadata


def _blas_threads():
    """OpenBLAS thread count as numpy's BLAS library reports it."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return "unknown"
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(args):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without the dict form of its build config
        blas = {}
    env_threads = os.environ.get("SANDWICH_OPT_THREADS")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "verify_threads": (f"{env_threads} (SANDWICH_OPT_THREADS)" if env_threads
                           else f"{os.cpu_count()} (os.cpu_count())"),
    }


# ---------------------------------------------------------------- main


def run_workload(args, workdir):
    lines = []
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    setup = timed_setup(args, workdir, 1 if args.smoke else SETUP_REPEATS)
    package = import_package()
    plan = workloads.load_plan(workdir)
    runner = Runner(package, workdir)
    cal = Calibration(CAL_N[args.workload])
    for op in plan["prep"]:
        runner.run(op)
    warmup = 0.0 if args.smoke else WARMUP_S
    for key, value in metadata(args).items():
        lines.append(f"meta {key} = {value}")
    lines.append(f"meta sizes = {sizes}")

    if not args.trace:
        records = run_loop(calibrated(runner, cal), plan["ops"], args.seconds, warmup)
        metrics = end_to_end(args.workload, records, setup, runner, lines)
        first = [r for r in records if r["pass"] == 0]
    else:
        rng = np.random.default_rng(args.seed)
        floors = {n: eigh_floor_us(n, rng) for n in FLOOR_SIZES}
        cold = cold_start_s(1 if args.smoke else COLD_START_REPEATS)
        with Tracer(package) as tracer:
            traced = run_loop(calibrated(runner, cal, tracer), plan["ops"], args.seconds,
                              warmup)
        timed = [r for r in traced if r["timed"]]
        run = calibrated(runner, cal)
        replay = [run(r["op"]) for r in timed]
        overhead = sum(map(_s, timed)) / sum(map(_s, replay)) - 1.0
        metrics = per_layer(traced, floors, cold)
        metrics["trace.overhead_frac"] = (overhead, "ratio")
        for name, (value, unit) in metrics.items():
            lines.append(_metric_line(name, value, unit))
        lines.append(f"counts_digest = {exact_counts_digest(traced)}")
        first = [r for r in traced if r["pass"] == 0]
    reports = [[r["op"]["key"], r.get("digest")] for r in first]
    lines.append(f"report_digest = {hashlib.sha256(json.dumps(reports).encode()).hexdigest()}")
    lines.extend(f"failure {f}" for f in runner.failures)
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return lines, result


def run_all(args):
    code = 0
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        print(f"== {workload}", flush=True)
        code = max(code, subprocess.run(cmd).returncode)
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest size of each workload, for testing the harness")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "sandwich_opt", "__init__.py")):
        print(f"error: no package source under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    workdir = os.path.join(RUN_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        lines, result = run_workload(args, workdir)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(RUN_DIR)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
