import json
import subprocess
import sys

import numpy as np
import pytest

from sandwich_opt import (
    bures_distance,
    convexity_constants,
    fidelity,
    geometric_mean,
    gradient_f,
    matrix_from_json,
    random_spd,
    sandwiched_divergence,
    save_matrix,
    spectral_decompose,
)
from sandwich_opt.serialization import canonical_json, matrix_to_json


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "sandwich_opt", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


@pytest.fixture
def matrices(tmp_path):
    paths = {}
    mats = {
        "diag12": np.diag([1.0, 2.0]),
        "a": random_spd(3, 1.0, 4.0, 51),
        "b": random_spd(3, 1.0, 4.0, 52),
    }
    for name, M in mats.items():
        p = tmp_path / f"{name}.json"
        save_matrix(p, M)
        paths[name] = str(p)
    return paths, mats


def test_fidelity_prints_trace_for_equal_arguments(matrices):
    paths, _ = matrices
    res = run_cli("fidelity", "--a", paths["diag12"], "--b", paths["diag12"], "--t", "0.5")
    assert res.returncode == 0
    assert res.stdout.strip() == "3"


def test_fidelity_formats_and_adapter_equality(matrices):
    paths, mats = matrices
    expected = fidelity(mats["a"], mats["b"], 0.5)
    res = run_cli("fidelity", "--a", paths["a"], "--b", paths["b"], "--t", "0.5")
    assert float(res.stdout.strip()) == expected

    res = run_cli(
        "fidelity", "--a", paths["a"], "--b", paths["b"], "--t", "0.5", "--format", "json"
    )
    out = json.loads(res.stdout)
    assert out["kind"] == "fidelity" and out["t"] == 0.5 and out["value"] == expected

    res = run_cli(
        "fidelity", "--a", paths["a"], "--b", paths["b"], "--t", "0.5", "--format", "csv"
    )
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "kind,t,value"
    assert float(lines[1].split(",")[2]) == expected


@pytest.mark.parametrize(
    "kind,needs_t", [("sandwiched", True), ("renyi", True), ("umegaki", False),
                     ("thompson", False), ("max", False), ("bures", False),
                     ("riemannian", False)]
)
def test_divergence_kinds_run(matrices, kind, needs_t):
    paths, mats = matrices
    args = ["divergence", "--kind", kind, "--a", paths["a"], "--b", paths["b"]]
    if needs_t:
        args += ["--t", "2.0"]
    res = run_cli(*args)
    assert res.returncode == 0, res.stderr
    value = float(res.stdout.strip())
    if kind == "sandwiched":
        assert value == sandwiched_divergence(mats["a"], mats["b"], 2.0)
    if kind == "bures":
        assert value == bures_distance(mats["a"], mats["b"])


def test_divergence_missing_t_is_usage_error(matrices):
    paths, _ = matrices
    res = run_cli("divergence", "--kind", "sandwiched", "--a", paths["a"], "--b", paths["b"])
    assert res.returncode == 2
    assert "error" in res.stderr


def test_gmean_and_grad_emit_matrices(matrices):
    paths, mats = matrices
    res = run_cli("gmean", "--a", paths["a"], "--b", paths["b"], "--t", "0.3")
    G = matrix_from_json(json.loads(res.stdout))
    assert np.allclose(G, geometric_mean(mats["a"], mats["b"], 0.3), atol=0)

    res = run_cli("grad", "--a", paths["a"], "--x", paths["b"], "--t", "0.4")
    G = matrix_from_json(json.loads(res.stdout))
    assert np.allclose(G, gradient_f(mats["a"], mats["b"], 0.4), atol=0)


def test_hess_bounds_and_constants(matrices):
    paths, _ = matrices
    res = run_cli("hess-bounds", "--a", paths["a"], "--x", paths["b"], "--t", "0.5")
    out = json.loads(res.stdout)
    assert 0 < out["lambda_min"] <= out["lambda_max"]

    res = run_cli("constants", "--t", "0.5", "--alpha", "1", "--beta", "4")
    out = json.loads(res.stdout)
    c = convexity_constants(0.5, 1.0, 4.0)
    assert out == {"t": 0.5, "alpha": 1.0, "beta": 4.0, "k1": c.k1, "k2": c.k2,
                   "cond_bound": 16.0}


def write_problem(tmp_path, mats, weights, t):
    prob = {
        "t": t,
        "weights": weights,
        "matrices": [matrix_to_json(M) for M in mats],
    }
    path = tmp_path / "problem.json"
    path.write_text(canonical_json(prob) + "\n")
    return path


def test_barycenter_single_marginal(tmp_path):
    A = random_spd(3, 1.0, 3.0, 61)
    path = write_problem(tmp_path, [A], [1.0], 0.5)
    out_path = tmp_path / "report.json"
    res = run_cli("barycenter", "--problem", str(path), "--solver", "gp",
                  "--out", str(out_path))
    assert res.returncode == 0, res.stderr
    report = json.loads(out_path.read_text())
    X = matrix_from_json(report["minimizer"])
    assert np.linalg.norm(X - A) <= report["error_bound"]
    assert report["termination"] == "gradient_tol"
    assert report["fixed_point_residual"] <= 1e-7


def test_barycenter_solvers_agree_via_cli(tmp_path):
    mats = [random_spd(3, 1.0, 4.0, 70 + j) for j in range(3)]
    path = write_problem(tmp_path, mats, [1.0, 1.0, 1.0], 0.5)
    gp = run_cli("barycenter", "--problem", str(path), "--solver", "gp")
    fp = run_cli("barycenter", "--problem", str(path), "--solver", "fp", "--tol", "1e-12")
    X_gp = matrix_from_json(json.loads(gp.stdout)["minimizer"])
    X_fp = matrix_from_json(json.loads(fp.stdout)["minimizer"])
    assert np.linalg.norm(X_gp - X_fp) <= 1e-7


def test_barycenter_trace_includes_iterates(tmp_path):
    A = random_spd(2, 1.0, 2.0, 81)
    path = write_problem(tmp_path, [A], [1.0], 0.5)
    res = run_cli("barycenter", "--problem", str(path), "--trace")
    report = json.loads(res.stdout)
    assert "iterates" in report
    assert len(report["iterates"]) == len(report["history_indices"])


def test_barycenter_eta_with_fp_is_usage_error(tmp_path):
    A = random_spd(2, 1.0, 2.0, 82)
    path = write_problem(tmp_path, [A], [1.0], 0.5)
    res = run_cli("barycenter", "--problem", str(path), "--solver", "fp", "--eta", "0.5")
    assert res.returncode == 2


def test_barycenter_bad_start_is_input_error(tmp_path):
    A = random_spd(2, 1.0, 2.0, 83)
    path = write_problem(tmp_path, [A], [1.0], 0.5)
    x0 = tmp_path / "x0.json"
    save_matrix(x0, 50.0 * np.eye(2))
    res = run_cli("barycenter", "--problem", str(path), "--x0", str(x0))
    assert res.returncode == 2


def test_verify_exit_codes_and_determinism():
    args = ("verify", "--suite", "trace-chain", "--n", "3", "--trials", "25",
            "--seed", "42", "--t", "0.5")
    res1 = run_cli(*args)
    res2 = run_cli(*args)
    assert res1.returncode == 0
    assert res1.stdout == res2.stdout
    report = json.loads(res1.stdout)
    assert report["all_hold"] is True and report["t"] == [0.5]


def test_verify_all_suites_smoke():
    for suite in ("variational", "log-major", "limits", "gauge", "open-question"):
        res = run_cli("verify", "--suite", suite, "--n", "3", "--trials", "4",
                      "--seed", "7")
        assert res.returncode == 0, (suite, res.stderr)
        assert json.loads(res.stdout)["suite"] == suite


def test_gen_writes_deterministic_spd_files(tmp_path):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    for out in (out1, out2):
        res = run_cli("gen", "--n", "4", "--count", "3", "--alpha", "1", "--beta", "4",
                      "--seed", "7", "--out", str(out))
        assert res.returncode == 0, res.stderr
    files1 = sorted(out1.iterdir())
    files2 = sorted(out2.iterdir())
    assert [f.name for f in files1] == [f.name for f in files2]
    assert len(files1) == 3
    for f1, f2 in zip(files1, files2):
        assert f1.read_bytes() == f2.read_bytes()
        M = matrix_from_json(json.loads(f1.read_text()))
        w = spectral_decompose(M).eigenvalues
        assert w[-1] >= 1.0 - 1e-12 and w[0] <= 4.0 + 1e-12


def test_malformed_json_is_input_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "re": [[1, 2], [3, ]]}')
    res = run_cli("fidelity", "--a", str(bad), "--b", str(bad), "--t", "0.5")
    assert res.returncode == 2
    assert "bad.json" in res.stderr and "line" in res.stderr


def test_missing_file_is_input_error(tmp_path):
    res = run_cli("fidelity", "--a", str(tmp_path / "nope.json"),
                  "--b", str(tmp_path / "nope.json"), "--t", "0.5")
    assert res.returncode == 2


def test_usage_errors_exit_two():
    assert run_cli("frobnicate").returncode == 2
    assert run_cli("fidelity", "--a", "x.json").returncode == 2


def test_out_of_range_t_is_input_error(matrices):
    paths, _ = matrices
    res = run_cli("fidelity", "--a", paths["a"], "--b", paths["b"], "--t", "1.5")
    assert res.returncode == 2
    assert "error" in res.stderr


def test_verify_exits_one_on_property_violation(monkeypatch, capsys):
    import sandwich_opt.cli as cli

    monkeypatch.setattr(
        cli, "run_suite", lambda *a, **k: {"suite": "trace-chain", "all_hold": False}
    )
    code = cli.main(["verify", "--suite", "trace-chain", "--trials", "1"])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["all_hold"] is False
