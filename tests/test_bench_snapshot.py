"""Smoke test of tools/bench_snapshot.py: one workload at bench/run.py's smallest size."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "bench_snapshot.py")


def test_snapshot_writes_both_thread_settings_with_the_machine(tmp_path):
    cmd = [sys.executable, TOOL, "--label", "smoke", "--seed", "3", "--seconds", "0.1",
           "--workload", "certify-hess", "--out", str(tmp_path), "--smoke"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    path = tmp_path / "BENCH_smoke.json"
    assert proc.stdout.strip() == str(path)
    snap = json.loads(path.read_text())
    assert set(snap) == {"label", "commit", "seed", "seconds", "smoke", "cpu", "cpu_count",
                         "python", "numpy", "blas", "source_lines", "runs"}
    assert (snap["label"], snap["seed"], snap["smoke"]) == ("smoke", 3, True)
    assert snap["cpu_count"] == os.cpu_count()
    # the line count of each package module, as `wc -l` reads it
    src = os.path.join(ROOT, "src", "sandwich_opt")
    modules = sorted(name for name in os.listdir(src) if name.endswith(".py"))
    assert list(snap["source_lines"]) == modules
    for name in modules:
        with open(os.path.join(src, name), "rb") as fh:
            assert snap["source_lines"][name] == fh.read().count(b"\n")
    assert [run["openblas_num_threads"] for run in snap["runs"]] == [None, "1"]
    for run in snap["runs"]:
        assert run["workload"] == "certify-hess" and run["meta"]["workload"] == "certify-hess"
        assert set(run["result"]) == {"correct", "attempted", "failed", "metrics"}
        assert run["result"]["correct"] and "report_digest" in run["digests"]
    # the one-thread run's BLAS reports one thread
    assert snap["runs"][1]["meta"]["blas_threads"] == "1"


def test_snapshot_rejects_a_workload_the_benchmark_does_not_list(tmp_path):
    cmd = [sys.executable, TOOL, "--label", "x", "--seed", "1", "--seconds", "0.1",
           "--workload", "no-such-workload", "--out", str(tmp_path)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and "unknown workload" in proc.stderr
    assert not (tmp_path / "BENCH_x.json").exists()
