"""Benchmark workloads: seeded inputs, the CLI operations that use them, and
the check each operation's output must pass.

A workload is generated from its seed alone, with the harness's own numpy
generator, so the program under test sees only the JSON files written here.
``generate`` writes the input files and a ``plan.json`` listing the
operations; an operation is one ``sandwich_opt.cli.main(argv)`` call whose
report goes to ``out/<key>.json``. ``prep`` operations run once before the
timed loop; ``ops`` are cycled through for the measured time.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("barycenter-n64", "verify-n4", "certify-hess")

# All spectra lie in this box; hess-bounds is checked against the
# constants of the same box.
ALPHA, BETA = 1.0, 4.0

BARYCENTER_N, BARYCENTER_M, BARYCENTER_T = 64, 5, 0.5
VERIFY_N = 4
SUITES = ("trace-chain", "log-major", "variational", "gauge", "limits", "open-question")
CERTIFY_T = (0.3, 0.5, 0.7)
# n <= 8 takes the dense n^2 x n^2 path of hessian_extreme_eigs, n > 8 power iteration.
CERTIFY_DENSE_N, CERTIFY_POWER_N = 8, 16

# Slack on the certified bounds k1 <= lambda_min <= lambda_max <= k2.
BOUND_RTOL = 1e-9


@dataclass(frozen=True)
class Sizes:
    """How many inputs a workload generates."""

    problems: int  # barycenter problems, each solved by gp and fp
    trials: int    # trials per verify suite; the verify pool needs >= 32
    points: int    # hess-bounds points, alternating dense and power path


FULL = Sizes(problems=4, trials=50, points=128)
SMOKE = Sizes(problems=1, trials=32, points=2)


def _rng(seed, workload, *parts):
    return np.random.default_rng([int(seed), WORKLOADS.index(workload), *parts])


def _spd(rng, n):
    lam = rng.uniform(ALPHA, BETA, n)
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R)
    Q = Q * (d / np.abs(d))
    M = (Q * lam) @ Q.conj().T
    return (M + M.conj().T) / 2


def _matrix_json(M):
    return {"n": int(M.shape[0]), "re": M.real.tolist(), "im": M.imag.tolist()}


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _op(key, kind, argv, **extra):
    return {"key": key, "kind": kind, "argv": argv + ["--out", f"{{dir}}/out/{key}.json"], **extra}


def _barycenter(seed, sizes, workdir):
    ops = []
    for i in range(sizes.problems):
        rng = _rng(seed, "barycenter-n64", i)
        mats = [_spd(rng, BARYCENTER_N) for _ in range(BARYCENTER_M)]
        name = f"problem_{i}.json"
        _write_json(os.path.join(workdir, name), {
            "t": BARYCENTER_T,
            "weights": [1.0 / BARYCENTER_M] * BARYCENTER_M,
            "matrices": [_matrix_json(M) for M in mats],
        })
        base = ["barycenter", "--problem", f"{{dir}}/{name}"]
        ops.append(_op(f"p{i}.gp", "gp", base + ["--solver", "gp"], problem=i))
        ops.append(_op(f"p{i}.fp", "fp", base + ["--solver", "fp", "--tol", "1e-12"], problem=i))
    return [], ops


def _verify(seed, sizes, workdir):
    rng = _rng(seed, "verify-n4")
    ops = []
    for suite in SUITES:
        suite_seed = int(rng.integers(0, 2**31))
        ops.append(_op(suite, suite, [
            "verify", "--suite", suite, "--n", str(VERIFY_N),
            "--trials", str(sizes.trials), "--seed", str(suite_seed),
        ], trials=sizes.trials))
    return [], ops


def _certify(seed, sizes, workdir):
    prep = [
        _op(f"constants.t{t}", "constants",
            ["constants", "--t", repr(t), "--alpha", repr(ALPHA), "--beta", repr(BETA)], t=t)
        for t in CERTIFY_T
    ]
    ops = []
    for i in range(sizes.points):
        dense = i % 2 == 0
        n = CERTIFY_DENSE_N if dense else CERTIFY_POWER_N
        t = CERTIFY_T[(i // 2) % len(CERTIFY_T)]
        rng = _rng(seed, "certify-hess", i)
        A, X = _spd(rng, n), _spd(rng, n)
        _write_json(os.path.join(workdir, f"a_{i}.json"), _matrix_json(A))
        _write_json(os.path.join(workdir, f"x_{i}.json"), _matrix_json(X))
        ops.append(_op(f"h{i}", "dense" if dense else "power", [
            "hess-bounds", "--a", f"{{dir}}/a_{i}.json", "--x", f"{{dir}}/x_{i}.json",
            "--t", repr(t),
        ], t=t))
    return prep, ops


_GENERATORS = {"barycenter-n64": _barycenter, "verify-n4": _verify, "certify-hess": _certify}


def generate(workload, seed, sizes, workdir):
    """Write the workload's inputs and plan.json into workdir."""
    os.makedirs(os.path.join(workdir, "out"), exist_ok=True)
    prep, ops = _GENERATORS[workload](seed, sizes, workdir)
    _write_json(os.path.join(workdir, "plan.json"),
                {"workload": workload, "seed": seed, "prep": prep, "ops": ops})


def load_plan(workdir):
    with open(os.path.join(workdir, "plan.json"), encoding="utf-8") as fh:
        return json.load(fh)


def load_inputs(workdir, plan):
    """Parse every input file of the plan with the package's own loaders."""
    from sandwich_opt.serialization import load_matrix, load_problem

    loaders = (("--problem", load_problem), ("--a", load_matrix), ("--x", load_matrix))
    for op in plan["ops"]:
        argv = op["argv"]
        for flag, loader in loaders:
            if flag in argv:
                loader(argv[argv.index(flag) + 1].format(dir=workdir))


def _minimizer(report):
    m = report["minimizer"]
    return np.asarray(m["re"]) + 1j * np.asarray(m.get("im", 0.0))


class Checker:
    """Checks each operation's report; cross-checks need earlier reports."""

    def __init__(self):
        self._gp = {}         # problem -> gp report
        self._constants = {}  # t -> constants report

    def check(self, op, code, report):
        """Return None if the output is correct, else the reason it is not."""
        if code != 0:
            return f"exit code {code}"
        kind = op["kind"]
        if kind in ("gp", "fp"):
            if report["termination"] != "gradient_tol":
                return f"termination {report['termination']}"
            if kind == "gp":
                self._gp[op["problem"]] = report
                return None
            gp = self._gp.get(op["problem"])
            if gp is None:
                return "no gp report to cross-check against"
            dist = float(np.linalg.norm(_minimizer(gp) - _minimizer(report)))
            bound = gp["error_bound"] + report["error_bound"]
            if not dist <= bound:
                return f"|X_gp - X_fp| = {dist:.3e} exceeds error bounds {bound:.3e}"
            return None
        if kind == "constants":
            self._constants[op["t"]] = report
            return None
        if kind in ("dense", "power"):
            c = self._constants.get(op["t"])
            if c is None:
                return "no constants report to check against"
            lo, hi = report["lambda_min"], report["lambda_max"]
            if not c["k1"] * (1 - BOUND_RTOL) <= lo <= hi <= c["k2"] * (1 + BOUND_RTOL):
                return f"spectrum [{lo}, {hi}] outside [k1, k2] = [{c['k1']}, {c['k2']}]"
            return None
        if not report.get("all_hold"):
            return "suite reports all_hold false"
        return None
