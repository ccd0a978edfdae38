"""Smoke test of the benchmark harness at the smallest size of each workload.

    python3 -m pytest -q bench/test_harness.py
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("barycenter-n64", "verify-n4", "certify-hess")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

# Names printed on the human-readable lines, beyond the BENCHMARK.json slots.
NAMED = {
    "barycenter-n64": ("gp_solve_s", "fp_solve_s"),
    "verify-n4": ("verify_trials_per_s", "limits_ms_per_trial"),
    "certify-hess": ("certify_dense_ms", "certify_power_ms"),
}


def _run(workload, trace, seed=7, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=300)


def _parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    printed = {}
    for line in lines[:-1]:
        m = re.match(r"metric (\S+) = (\S+) (\S+)", line)
        if m:
            printed[m.group(1)] = (float(m.group(2)), m.group(3))
    digests = dict(re.findall(r"^(\w+_digest) = (\w+)$", proc.stdout, re.M))
    return result, printed, digests


def _check_metrics(result, printed, spec_metrics):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec_metrics}
    for m in spec_metrics:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
        assert printed[m["name"]][1] == m["unit"], m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric(workload):
    result, printed, digests = _parse(_run(workload, trace=0))
    _check_metrics(result, printed, SPEC["end_to_end"])
    for name in NAMED[workload]:
        assert name in printed, name
    assert printed["fail_frac"] == (0.0, "ratio")

    traced, printed_t, digests_t = _parse(_run(workload, trace=1))
    _check_metrics(traced, printed_t, SPEC["per_layer"])
    # Tracing must not change any report.
    assert digests_t["report_digest"] == digests["report_digest"]


def test_exact_counts_repeat_across_runs():
    first = _parse(_run("verify-n4", trace=1))[2]
    second = _parse(_run("verify-n4", trace=1))[2]
    assert first["counts_digest"] == second["counts_digest"]


def test_fails_without_package_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("verify-n4", trace=0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
