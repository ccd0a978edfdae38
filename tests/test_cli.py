import argparse
import ctypes
import functools
import glob
import hashlib
import json
import os
import re
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


def test_hess_bounds_at_small_t_stays_within_the_certified_bounds(tmp_path):
    # the product of the full A^{(1-t)/2t} with X lost positivity on this pair
    # at t = 0.03 (exit 2); the graded sandwich keeps lambda_min >= k1
    for name, seed in (("a", 0), ("x", 1)):
        save_matrix(tmp_path / f"{name}.json", random_spd(9, 1.0, 4.0, seed))
    res = run_cli("hess-bounds", "--a", str(tmp_path / "a.json"),
                  "--x", str(tmp_path / "x.json"), "--t", "0.03")
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    c = convexity_constants(0.03, 1.0, 4.0)
    assert c.k1 * (1.0 - 1e-10) <= out["lambda_min"] <= out["lambda_max"] <= c.k2 * (1.0 + 1e-10)


def test_hess_bounds_rejects_an_indefinite_x(tmp_path):
    # an X that is not positive definite has no positive definite sandwich;
    # the verb rejects it where it is loaded
    save_matrix(tmp_path / "a.json", random_spd(3, 1.0, 4.0, 0))
    save_matrix(tmp_path / "x.json", np.diag([1.0, -0.5, 2.0]))
    res = run_cli("hess-bounds", "--a", str(tmp_path / "a.json"),
                  "--x", str(tmp_path / "x.json"), "--t", "0.3")
    assert res.returncode == 2
    assert "not positive definite" in res.stderr


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
    ("--tol", "nan", "grad_tol"), ("--tol", "-1", "grad_tol"), ("--max-iters", "-1", "max_iters"),
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
    "trace-chain": "a1fef304e062e0228a16ede9e3610d51b4a5cbbf63f1444b19b04d280506921e",
    "log-major": "39347eafb420a33295cfc64ed60ebb00245f10602ce55af022d2f22017c472a4",
    "variational": "19b23043108e19f11aff758d8d9c9e3d3a1c1a2b2e7580bee3223ff6d3199423",
    "gauge": "f4b753237aef1f78b9256b61625ae0636f0c7ff3f0be5f85e5ff59b50f13333a",
    "limits": "a6237b120f3e4a96c07701d33832a508485afe7519c42924a876c1c8e616b236",
    "open-question": "b5ccfb441c33e34c80a653ef609885e607b00e67f0b91c752477a339333145ae",
}


@pytest.mark.parametrize("suite", sorted(VERIFY_DIGESTS))
def test_verify_report_digest_is_pinned(suite, capsys):
    argv = ["verify", "--suite", suite, "--n", "4", "--trials", "50", "--seed", "42"]
    assert_pinned_stdout(argv, VERIFY_DIGESTS[suite], 0, capsys)


# sha256 of the barycenter report on stdout for a seeded 3x3 problem with
# three marginals: a change to the solver loop that moves one bit shows here
BARYCENTER_DIGESTS = {
    "gp": "cf90254e2bd2244ce69e1aff5972fbc5b18b32ea5952e1513ec3828fa4d67eb3",
    "fp": "1f7e903c2b44adc6498093dd26cadc1c5dde252e4a4bab8defceb7fcffae99b7",
    "gp-capped-trace": "b74c19d0eabd5a9669e915ea1223e540444dec87aadacecd171ffefb37b7741f",
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
# (hess-bounds stays at n = 3: the dense twin's eigvalsh at n = 16 and 20
# moves the last bits of lambda_min with the BLAS thread count)
CLI_DIGESTS = {
    "fidelity-text": "5bd3b12c8ef7ae9a076ba9cdd742d419d5a4a7d4fde64e788d5bb42654cf6b06",
    "fidelity-json": "be9f23d60ae367104d3a50221d4f2b5247334b072ec15fa1caf404228fc1546b",
    "fidelity-csv": "c464e4aa99bf5e75f1b42dde7e7512d14032baa82993e037eb4eccf3021f7e4b",
    "divergence-sandwiched": "66597c1fa4b3c0445f15a7809ffb6297b932e6c8cfa4de6949bfbe27cec664b3",
    "divergence-renyi": "20ce9000f67bf4bd8ad0911b59018913eef9128607fc78e28f7683fc6da401f6",
    "divergence-umegaki": "74b222d4c3c7e0ee38c5e108f67f845430890ff7fc60d791025d5b8993010532",
    "divergence-thompson": "f83c5ca0f8d0062a47f3b868b22f66acea99c5303b3fc17be64a8d7f061fc413",
    "divergence-max": "20287e65f38443bf2aa3376dde22e517c609f230f5ff267dd960687ec7ecc3ab",
    "divergence-bures": "9e4ae48ec4aba09c34171389bf8e904de2989824eeaab143c42aab19872e2922",
    "divergence-riemannian": "610b3dbbaef04c6757418f877c74620c33f82e04a2bb512e6f73b466f77cda79",
    "gmean": "8a2eee1522bdb225a87bafe0fb9427a3ac2252db00357a2ffc9e77574b372bd3",
    "grad": "3739983a7072dfa120029e9e8d2447eca0ae4318560a23b0967a8b330411e03b",
    "hess-bounds": "e02038329b7b3c01c559bb089511cd71ab8b77592b205c1cc99b08a655dbc833",
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


@pytest.mark.parametrize("verb", ["grad", "hess-bounds"])
def test_an_overflowing_frame_is_a_numerical_error_at_the_cli(verb, tmp_path, capsys):
    # valid SPD inputs; see OVERFLOWING_FRAME in test_calculus.py. grad
    # failed to serialize NaN, hess-bounds failed in LAPACK.
    from sandwich_opt.cli import main

    save_matrix(tmp_path / "a.json", np.diag([10.0 ** (-315 / 99), 1.0]))
    save_matrix(tmp_path / "x.json", np.eye(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([verb, "--a", str(tmp_path / "a.json"), "--x", str(tmp_path / "x.json"), "--t", "0.01"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert re.fullmatch(r"error: .*(not finite on the spectrum|kernel overflows).*\n", err)


def test_an_overflowing_renyi_product_is_a_numerical_error_at_the_cli(tmp_path, capsys):
    # A^{1-t} B^t overflows at t = 64: the CLI failed to serialize inf
    from sandwich_opt.cli import main

    save_matrix(tmp_path / "a.json", np.diag([1e-3, 1.0]))
    save_matrix(tmp_path / "b.json", np.diag([1e3, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["divergence", "--kind", "renyi", "--a", str(tmp_path / "a.json"),
                     "--b", str(tmp_path / "b.json"), "--t", "64"])
    assert (code, *capsys.readouterr()) == (2, "", "error: product A^{1-t} B^t overflows at t = 64.0\n")


def test_an_overflowing_relative_entropy_product_is_a_numerical_error_at_the_cli(tmp_path, capsys):
    # B (log B - log A) overflows: the CLI failed to serialize inf
    from sandwich_opt.cli import main

    save_matrix(tmp_path / "a.json", 1e-10 * np.eye(3))
    save_matrix(tmp_path / "b.json", 1e306 * np.eye(3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["divergence", "--kind", "umegaki", "--a", str(tmp_path / "a.json"),
                     "--b", str(tmp_path / "b.json")])
    assert (code, *capsys.readouterr()) == (2, "", "error: product B (log B - log A) overflows\n")


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
