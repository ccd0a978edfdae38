import argparse
import ctypes
import functools
import glob
import hashlib
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from sandwich_opt import (
    bures_distance,
    convexity_constants,
    derive_seed,
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


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(*args, **kwargs):
    # the subprocess imports sandwich_opt from this checkout's src, installed or not
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-m", "sandwich_opt", *args],
        capture_output=True,
        text=True,
        env=env,
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


@pytest.mark.parametrize("kind", ["umegaki", "thompson", "max", "bures", "riemannian"])
def test_divergence_stray_t_is_usage_error(matrices, kind):
    paths, _ = matrices
    res = run_cli("divergence", "--kind", kind, "--a", paths["a"], "--b", paths["b"], "--t", "0.3")
    assert res.returncode == 2
    assert "takes no order t" in res.stderr


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


def test_hess_bounds_small_t_lost_positivity(tmp_path):
    for name, seed in (("a", 0), ("x", 1)):
        save_matrix(tmp_path / f"{name}.json", random_spd(9, 1.0, 4.0, seed))
    res = run_cli("hess-bounds", "--a", str(tmp_path / "a.json"),
                  "--x", str(tmp_path / "x.json"), "--t", "0.03")
    assert res.returncode == 2
    assert "lost positivity" in res.stderr


def write_problem(tmp_path, mats, weights, t):
    prob = {
        "t": t,
        "weights": weights,
        "matrices": [matrix_to_json(M) for M in mats],
    }
    path = tmp_path / "problem.json"
    path.write_text(canonical_json(prob) + "\n")
    return path


_MARGINAL = {"n": 2, "re": [[2.0, 0.0], [0.0, 3.0]]}


@pytest.mark.parametrize("field,value,named", [
    ("t", "0.5", "t"),
    ("t", None, "t"),
    ("weights", {"a": 1}, "weights"),
    ("alpha", [1], "alpha"),
    ("matrices", 3, "matrices"),
    ("matrices", [{"n": True, "re": [[2.0]]}], "n"),
], ids=["t-string", "t-null", "weights-object", "alpha-list", "matrices-number", "n-bool"])
def test_barycenter_rejects_mistyped_problem_fields(tmp_path, field, value, named):
    prob = {"t": 0.5, "weights": [1.0], "matrices": [_MARGINAL], field: value}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(prob))
    res = run_cli("barycenter", "--problem", str(path))
    assert res.returncode == 2
    assert res.stderr.startswith("error:") and "Traceback" not in res.stderr
    assert f'"{named}"' in res.stderr


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


@pytest.mark.parametrize("solver", ["gp", "fp"])
def test_barycenter_unconverged_exits_1_and_writes_report(tmp_path, solver):
    mats = [random_spd(3, 1.0, 4.0, 70 + j) for j in range(3)]
    path = write_problem(tmp_path, mats, [1.0, 1.0, 1.0], 0.5)
    out_path = tmp_path / "report.json"
    res = run_cli("barycenter", "--problem", str(path), "--solver", solver,
                  "--max-iters", "1", "--out", str(out_path))
    assert res.returncode == 1, res.stderr
    report = json.loads(out_path.read_text())
    assert report["termination"] == "max_iters"
    assert report["iterations"] == 1
    assert len(report["grad_norms"]) == len(report["history_indices"]) == 2
    assert np.all(np.isfinite(matrix_from_json(report["minimizer"])))


@pytest.mark.parametrize("solver", ["gp", "fp"])
@pytest.mark.parametrize("flag,value,named", [
    ("--tol", "nan", "tol"), ("--tol", "-1", "tol"), ("--max-iters", "-1", "max_iters"),
])
def test_barycenter_bad_stopping_parameters_exit_2(tmp_path, solver, flag, value, named):
    A = random_spd(2, 1.0, 2.0, 84)
    path = write_problem(tmp_path, [A], [1.0], 0.5)
    res = run_cli("barycenter", "--problem", str(path), "--solver", solver, flag, value)
    assert res.returncode == 2
    assert res.stderr.startswith("error:") and named in res.stderr


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


# The digests below were recorded on one platform: the numpy version, the CPU
# dispatch targets numpy enables and the OpenBLAS core it selects. The LAPACK
# and SIMD kernels of another platform, such as an AVX2-only runner
# (OPENBLAS_CORETYPE=Haswell, or the AVX512 targets disabled through
# NPY_DISABLE_CPU_FEATURES), can round differently and move report bits.
PINNED_PLATFORM = {
    "numpy": "2.4.6",
    "cpu_dispatch": ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"),
    "openblas_core": "SkylakeX",
}


@functools.cache
def kernel_platform():
    """This process's numpy version, enabled CPU dispatch targets and OpenBLAS core (None if not found)."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    core = None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas*")
    for lib in glob.glob(libs):
        corename = getattr(ctypes.CDLL(lib), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            core = corename().decode()
    return {
        "numpy": np.__version__,
        "cpu_dispatch": tuple(f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)),
        "openblas_core": core,
    }


def assert_pinned_stdout(argv, digest, code, capsys):
    """On the pinned platform, ``main(argv)`` exits ``code`` and its stdout hashes to ``digest``.

    Elsewhere two fresh processes must exit ``code`` and print the same
    bytes, and a warning names how the platform differs from the pinned one.
    """
    from sandwich_opt.cli import main

    here = kernel_platform()
    if here == PINNED_PLATFORM:
        assert main(argv) == code
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
        return
    runs = [run_cli(*argv) for _ in range(2)]
    assert [r.returncode for r in runs] == [code, code], runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
    differs = {key: (here[key], PINNED_PLATFORM[key]) for key in here if here[key] != PINNED_PLATFORM[key]}
    warnings.warn(f"digest not compared: (this platform, pinned platform) differ in {differs}; "
                  "compared two same-seed runs instead")


# sha256 of the stdout of `verify --suite S --n 4 --trials 50 --seed 42`, as
# the per-trial suites printed it: batching the trials must not move a bit.
VERIFY_DIGESTS = {
    "trace-chain": "5c361f434348e5071f283d57d15f1727ef7fc753315dc4f4e591167d339ea1b7",
    "log-major": "39347eafb420a33295cfc64ed60ebb00245f10602ce55af022d2f22017c472a4",
    "variational": "19b23043108e19f11aff758d8d9c9e3d3a1c1a2b2e7580bee3223ff6d3199423",
    "gauge": "f4b753237aef1f78b9256b61625ae0636f0c7ff3f0be5f85e5ff59b50f13333a",
    "limits": "a6237b120f3e4a96c07701d33832a508485afe7519c42924a876c1c8e616b236",
    "open-question": "668f1ee0b466f54200bdc81252a6af367f497502f388cdcc8c0ee30f72625aea",
}


@pytest.mark.parametrize("suite", sorted(VERIFY_DIGESTS))
def test_verify_report_digest_is_pinned(suite, capsys):
    argv = ["verify", "--suite", suite, "--n", "4", "--trials", "50", "--seed", "42"]
    assert_pinned_stdout(argv, VERIFY_DIGESTS[suite], 0, capsys)


# sha256 of the barycenter report on stdout for a seeded 3x3 problem with
# three marginals: a change to the solver loop that moves one bit shows here
BARYCENTER_DIGESTS = {
    "gp": "df54b8cd0fc06abaab17fc56bfaf7d99453d203fda0c802718b842ea159fedb2",
    "fp": "fc7c17f9332adaf85cf9944ce7bb4de10f4114f37219302e35fa443196780058",
    "gp-capped-trace": "8b3f7fc27355c20497974f0e3bf0aad1ba45eb72864bf6fbe3a4ec728299a37c",
}
BARYCENTER_ARGS = {
    "gp": (["--solver", "gp"], 0),
    "fp": (["--solver", "fp"], 0),
    "gp-capped-trace": (["--solver", "gp", "--max-iters", "2", "--trace"], 1),
}


@pytest.mark.parametrize("case", sorted(BARYCENTER_DIGESTS))
def test_barycenter_report_digest_is_pinned(case, tmp_path, capsys):
    mats = [random_spd(3, 1.0, 4.0, derive_seed(95, "marg", j)) for j in range(3)]
    path = write_problem(tmp_path, mats, [1.0, 2.0, 3.0], 0.5)
    args, code = BARYCENTER_ARGS[case]
    assert_pinned_stdout(["barycenter", "--problem", str(path), *args], BARYCENTER_DIGESTS[case], code, capsys)


# sha256 of the stdout of each scalar and matrix verb on a seeded 3x3 pair:
# a change to a formula or to the command-line layer that moves a byte shows here
CLI_DIGESTS = {
    "fidelity-text": "5bd3b12c8ef7ae9a076ba9cdd742d419d5a4a7d4fde64e788d5bb42654cf6b06",
    "fidelity-json": "be9f23d60ae367104d3a50221d4f2b5247334b072ec15fa1caf404228fc1546b",
    "fidelity-csv": "c464e4aa99bf5e75f1b42dde7e7512d14032baa82993e037eb4eccf3021f7e4b",
    "divergence-sandwiched": "7cd98f58fa0c13ced0a00686cd27af75cfc067c2e62841570d147c2f8457a3be",
    "divergence-renyi": "20ce9000f67bf4bd8ad0911b59018913eef9128607fc78e28f7683fc6da401f6",
    "divergence-umegaki": "74b222d4c3c7e0ee38c5e108f67f845430890ff7fc60d791025d5b8993010532",
    "divergence-thompson": "60a48fa9ea5c8d21f7aba3bf828971e15324e48a1546ae46b338bc246fd180c7",
    "divergence-max": "58416942f37982d60a80f021e9cef601d8a425ee30617f44669e3d0151fbfac6",
    "divergence-bures": "9e4ae48ec4aba09c34171389bf8e904de2989824eeaab143c42aab19872e2922",
    "divergence-riemannian": "56aee6693f893d650b972f249a38dfb33b62e8da123f4ee2d6adf969d5673f92",
    "gmean": "6b7790945013288de9ef0f0701cb1d8bb8da65fc409aa47dface96acc1c5ddc2",
    "grad": "62a682a38a2646b744a0701fef2bee0c53ba7212832cec9734f1c21a6f2e5b87",
    "hess-bounds": "d0564aedba8ef827513e57bb668cd1d0a87b99eed2ca84f6e8a33385dc826a32",
    "constants": "acd7816375496e0bf7514099043bfb7f9a858180e9d31f8e2546fa37dbad997a",
}
CLI_ARGS = {
    "fidelity-text": ["fidelity", "--a", "A", "--b", "B", "--t", "0.3"],
    "fidelity-json": ["fidelity", "--a", "A", "--b", "B", "--t", "0.3", "--format", "json"],
    "fidelity-csv": ["fidelity", "--a", "A", "--b", "B", "--t", "0.3", "--format", "csv"],
    **{f"divergence-{kind}": ["divergence", "--kind", kind, "--a", "A", "--b", "B"]
       + (["--t", "2.0"] if kind in ("sandwiched", "renyi") else [])
       for kind in ("sandwiched", "renyi", "umegaki", "thompson", "max", "bures", "riemannian")},
    "gmean": ["gmean", "--a", "A", "--b", "B", "--t", "0.3"],
    "grad": ["grad", "--a", "A", "--x", "B", "--t", "0.4"],
    "hess-bounds": ["hess-bounds", "--a", "A", "--x", "B", "--t", "0.6"],
    "constants": ["constants", "--t", "0.3", "--alpha", "1", "--beta", "4"],
}


@pytest.mark.parametrize("case", sorted(CLI_DIGESTS))
def test_cli_output_digest_is_pinned(case, tmp_path, capsys):
    paths = {}
    for name in ("A", "B"):
        paths[name] = str(tmp_path / f"{name}.json")
        save_matrix(paths[name], random_spd(3, 1.0, 4.0, derive_seed(97, "cli", name)))
    assert_pinned_stdout([paths.get(arg, arg) for arg in CLI_ARGS[case]], CLI_DIGESTS[case], 0, capsys)


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


def test_gen_negative_count_is_usage_error(tmp_path):
    out = tmp_path / "gen"
    res = run_cli("gen", "--n", "4", "--count", "-2", "--alpha", "1", "--beta", "4",
                  "--seed", "7", "--out", str(out))
    assert res.returncode == 2
    assert "--count" in res.stderr
    assert not out.exists()


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


@pytest.mark.parametrize(
    "suite", ["trace-chain", "variational", "log-major", "limits", "gauge", "open-question"]
)
def test_verify_empty_trial_count_is_usage_error(suite, capsys):
    from sandwich_opt.cli import main

    assert main(["verify", "--suite", suite, "--trials", "0"]) == 2
    assert "trial count" in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["limits", "gauge"])
def test_verify_t_for_gridless_suite_is_usage_error(suite, capsys):
    from sandwich_opt.cli import main

    assert main(["verify", "--suite", suite, "--trials", "1", "--t", "0.3"]) == 2
    assert "order grid" in capsys.readouterr().err


def test_main_reuses_one_parser_across_calls(tmp_path, monkeypatch, capsys):
    # main parses every call with the parser built on the first one; each
    # in-process call prints what a fresh process prints for it
    import sandwich_opt.cli as cli

    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    problem = str(write_problem(tmp_path, [random_spd(3, 1.0, 4.0, 70 + j) for j in range(3)],
                                [1.0, 1.0, 1.0], 0.5))
    verify = ["verify", "--suite", "trace-chain", "--n", "3", "--trials", "5", "--seed", "7"]
    calls = [
        verify + ["--t", "0.3"],
        verify,
        ["barycenter", "--problem", problem, "--solver", "fp"],
        ["barycenter", "--problem", problem],
        ["verify", "--suite", "no-such-suite"],
        ["constants", "--t", "0.5", "--alpha", "1", "--beta", "4"],
    ]
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    try:
        codes = []
        for argv in calls:
            try:
                codes.append(cli.main(argv))
            except SystemExit as exc:
                codes.append(exc.code)
            out, err = capsys.readouterr()
            fresh = run_cli(*argv)
            assert (codes[-1], out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
            if len(codes) == 1:
                first = len(built)
        assert codes == [0, 0, 0, 0, 2, 0]
        assert first > 0 and len(built) == first
    finally:
        cli.build_parser.cache_clear()


@pytest.mark.parametrize("bad, flag", [(("--n", "0", "--alpha", "1", "--beta", "4"), "--n"),
                                       (("--n", "4", "--alpha", "2", "--beta", "1"), "box")])
def test_gen_bad_dimension_or_box_creates_no_directory(tmp_path, bad, flag):
    out = tmp_path / "gen"
    res = run_cli("gen", *bad, "--count", "2", "--seed", "7", "--out", str(out))
    assert res.returncode == 2
    assert flag in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("count", ["0", "1"])
@pytest.mark.parametrize("seed", ["-5", str(2**128)])
def test_gen_seed_outside_the_seed_domain_is_usage_error(tmp_path, seed, count):
    # gen --seed -5 wrote its files with exit 0, while verify --seed -5 raised
    out = tmp_path / "gen"
    res = run_cli("gen", "--n", "2", "--count", count, "--alpha", "1", "--beta", "2",
                  "--seed", seed, "--out", str(out))
    assert res.returncode == 2
    assert "--seed must be an integer in [0, " in res.stderr
    assert not out.exists()
