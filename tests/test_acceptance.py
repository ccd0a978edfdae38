"""Acceptance suite.

Each test exercises one acceptance criterion end to end at its stated
tolerance and prints one PASS/FAIL line (run with ``pytest -s`` to see them).
"""

import time
from contextlib import contextmanager

import numpy as np

from sandwich_opt import (
    barycenter_problem,
    convexity_constants,
    derive_seed,
    fidelity,
    fidelity_t_derivative,
    gradient_f,
    hessian_apply,
    hessian_extreme_eigs,
    hessian_operator,
    matrix_log,
    matrix_power,
    objective,
    objective_gradient,
    random_hermitian,
    random_spd,
    sandwich_trace,
    sandwiched_divergence,
    sharper_lower_bound,
    solve_fixed_point,
    solve_gradient_projection,
    symmetrize,
    umegaki_relative_entropy,
)
from sandwich_opt.inequalities import (
    density_pair,
    run_gauge_suite,
    run_limits_suite,
    run_log_major_suite,
    run_trace_chain_suite,
    run_variational_suite,
)

from oracles import fd_directional_hessian, fd_gradient, quadrature_hessian_apply
from test_cli import run_cli as cli_subprocess

T_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)


@contextmanager
def criterion(num, desc, budget_s=None):
    state = {"ok": False}
    start = time.perf_counter()
    try:
        yield state
        elapsed = time.perf_counter() - start
        if budget_s is not None:
            assert elapsed < budget_s, f"runtime {elapsed:.1f}s exceeds {budget_s}s"
        state["ok"] = True
    finally:
        elapsed = time.perf_counter() - start
        flag = "PASS" if state["ok"] else "FAIL"
        print(f"criterion {num} [{flag}] {desc} ({elapsed:.1f}s)")


def test_criterion_1_gradient_correctness():
    with criterion(1, "gradient_f and objective_gradient match finite differences "
                      "(100 instances, rel <= 1e-6)", budget_s=10):
        worst = 0.0
        for i in range(100):
            n = 2 + (i // 5) % 5
            t = T_GRID[i % 5]
            seed = derive_seed(1001, "grad", i)
            A = random_spd(n, 1.0, 4.0, derive_seed(seed, "A"))
            X = random_spd(n, 1.0, 4.0, derive_seed(seed, "X"))
            G = gradient_f(A, X, t)
            G_fd = fd_gradient(lambda M: sandwich_trace(A, M, t), X)
            worst = max(worst, np.linalg.norm(G - G_fd) / np.linalg.norm(G))

            B = random_spd(n, 1.0, 4.0, derive_seed(seed, "B"))
            p = barycenter_problem([A, B], [0.5, 0.5], t, alpha=1.0, beta=4.0)
            Gp = objective_gradient(p, X)
            Gp_fd = fd_gradient(lambda M: objective(p, M), X)
            worst = max(worst, np.linalg.norm(Gp - Gp_fd) / np.linalg.norm(Gp))
        assert worst <= 1e-6, f"worst relative error {worst:.2e}"


def test_criterion_2_hessian_correctness():
    with criterion(2, "hessian_apply matches gradient differences (1e-5) and "
                      "200-node quadrature (1e-6) on 50 instances", budget_s=30):
        worst_fd, worst_quad = 0.0, 0.0
        for i in range(50):
            n = 2 + i % 3
            t = T_GRID[i % 5]
            seed = derive_seed(1002, "hess", i)
            A = random_spd(n, 1.0, 4.0, derive_seed(seed, "A"))
            X = random_spd(n, 1.0, 4.0, derive_seed(seed, "X"))
            Y = random_hermitian(n, derive_seed(seed, "Y"))
            H = hessian_apply(hessian_operator(A, X, t), Y)
            scale = np.linalg.norm(H)
            fd = -fd_directional_hessian(lambda M: gradient_f(A, M, t), X, Y)
            worst_fd = max(worst_fd, np.linalg.norm(H - fd) / scale)
            quad = quadrature_hessian_apply(A, X, t, Y, nodes=200)
            worst_quad = max(worst_quad, np.linalg.norm(H - quad) / scale)
        assert worst_fd <= 1e-5, f"worst FD deviation {worst_fd:.2e}"
        assert worst_quad <= 1e-6, f"worst quadrature deviation {worst_quad:.2e}"


def test_criterion_3_hessian_bounds():
    with criterion(3, "certified Hessian bounds, sharper lower bound, and "
                      "condition number on 200 instances"):
        alpha, beta = 1.0, 4.0
        c_half = convexity_constants(0.5, alpha, beta)
        assert np.isclose(c_half.k1, 1.0 / 32.0)
        assert np.isclose(c_half.k2, 0.5)
        assert np.isclose(c_half.cond_bound, 16.0)
        for i in range(200):
            n = 2 + i % 3
            t = (0.3, 0.5, 0.7)[i % 3]
            seed = derive_seed(1003, "bounds", i)
            A = random_spd(n, alpha, beta, derive_seed(seed, "A"))
            X = random_spd(n, alpha, beta, derive_seed(seed, "X"))
            c = convexity_constants(t, alpha, beta)
            lo, hi = hessian_extreme_eigs(hessian_operator(A, X, t))
            assert lo >= c.k1 * (1.0 - 1e-8), (i, lo, c.k1)
            assert hi <= c.k2 * (1.0 + 1e-8), (i, hi, c.k2)
            lam_min_A = float(np.linalg.eigvalsh(A)[0])
            assert lo >= sharper_lower_bound(t, beta, lam_min_A) * (1.0 - 1e-8)
            assert hi / lo <= c.cond_bound * (1.0 + 1e-8)


def test_criterion_4_barycenter_closed_forms():
    with criterion(4, "single-marginal and commuting-family barycenters hit "
                      "their closed forms"):
        for i in range(5):
            A = random_spd(4, 1.0, 4.0, derive_seed(1004, "single", i))
            p = barycenter_problem([A], [1.0], T_GRID[i])
            rep = solve_gradient_projection(p)
            assert np.linalg.norm(rep.minimizer - A) <= rep.error_bound

        p = barycenter_problem(
            [np.diag([1.0, 4.0]), np.diag([4.0, 1.0])], [0.5, 0.5], 0.5,
            alpha=1.0, beta=4.0,
        )
        rep = solve_gradient_projection(p)
        assert np.linalg.norm(rep.minimizer - 2.25 * np.eye(2)) <= 1e-8

        # commuting family with a shared random eigenbasis
        from sandwich_opt import spectral_decompose

        U = spectral_decompose(random_spd(3, 1.0, 2.0, 77)).eigenvectors
        rng = np.random.default_rng(78)
        eigs = [rng.uniform(1.0, 4.0, 3) for _ in range(3)]
        mats = [(U * e) @ U.conj().T for e in eigs]
        w = np.array([0.2, 0.3, 0.5])
        t = 0.3
        p = barycenter_problem(mats, w, t, alpha=1.0, beta=4.0)
        rep = solve_gradient_projection(p)
        target = (U * (w @ np.array(eigs) ** (1 - t)) ** (1.0 / (1 - t))) @ U.conj().T
        assert np.linalg.norm(rep.minimizer - target) <= 1e-8


def _criterion5_problems():
    problems = []
    for i in range(20):
        t = (0.3, 0.5, 0.7)[i % 3]
        mats = [
            random_spd(4, 1.0, 4.0, derive_seed(1005, "marg", i, j)) for j in range(3)
        ]
        problems.append(barycenter_problem(mats, np.ones(3), t, alpha=1.0, beta=4.0))
    return problems


def test_criterion_5_linear_convergence_certification():
    with criterion(5, "q^k contraction toward the cross-solver minimizer on "
                      "20 problems", budget_s=60):
        for p in _criterion5_problems():
            ref = solve_fixed_point(p, grad_tol=1e-13, max_iters=50_000)
            assert ref.termination == "gradient_tol"
            rep = solve_gradient_projection(p, trace=True)
            q_formula = 1.0 - (p.alpha / p.beta) ** (3.0 - 2.0 * p.t)
            assert abs(rep.q - q_formula) <= 1e-12
            d0 = np.linalg.norm(rep.iterates[0] - ref.minimizer)
            for k, X in zip(rep.history_indices, rep.iterates):
                bound = rep.q**k * d0 * (1.0 + 1e-6)
                assert np.linalg.norm(X - ref.minimizer) <= bound, (p.t, k)


def test_criterion_6_solver_cross_agreement():
    with criterion(6, "gradient-projection and fixed-point minimizers agree "
                      "within 1e-7; fp residual of the gp minimizer <= 1e-7"):
        for p in _criterion5_problems():
            gp = solve_gradient_projection(p)
            fp = solve_fixed_point(p, grad_tol=1e-12, max_iters=50_000)
            assert np.linalg.norm(gp.minimizer - fp.minimizer) <= 1e-7
            assert gp.fixed_point_residual <= 1e-7


def test_criterion_7_inequality_suites():
    with criterion(7, "trace-chain, log-majorization, variational, gauge, and "
                      "small-t envelope suites pass 1000 seeded trials",
                   budget_s=120):
        assert run_trace_chain_suite(n=4, trials=1000, seed=2001)["all_hold"]
        assert run_log_major_suite(n=4, trials=1000, seed=2002)["all_hold"]
        assert run_variational_suite(n=4, trials=1000, seed=2003)["all_hold"]
        assert run_gauge_suite(n=4, trials=1000, seed=2004)["all_hold"]
        assert run_limits_suite(n=4, trials=1000, seed=2005)["all_hold"]


def test_criterion_8_limit_checks():
    with criterion(8, "near-1 and large-t divergence limits plus the order "
                      "derivative on 50 density pairs"):
        for i in range(50):
            n = 2 + i % 3
            seed = derive_seed(1008, "limits", i)
            A, B = density_pair(n, seed, "pair")
            re_value = umegaki_relative_entropy(B, A)
            for h in (1e-4,):
                for t in (1.0 - h, 1.0 + h):
                    d = sandwiched_divergence(A, B, t)
                    assert abs(d - re_value) <= 10.0 * h * (1.0 + abs(re_value))
            Ami = matrix_power(A, -0.5)
            target = float(np.log(np.linalg.eigvalsh(symmetrize(Ami @ B @ Ami))[-1]))
            assert abs(sandwiched_divergence(A, B, 64.0) - target) <= 1e-2

            t0, h = 0.6, 1e-5
            fd = (fidelity(A, B, t0 + h) - fidelity(A, B, t0 - h)) / (2 * h)
            val = fidelity_t_derivative(A, B, t0)
            assert abs(val - fd) <= 1e-6 * max(1.0, abs(val))
            exact = float(np.trace(B @ (matrix_log(B) - matrix_log(A))).real)
            assert abs(fidelity_t_derivative(A, B, 1.0) - exact) <= 1e-9


def test_criterion_9_deterministic_reports(tmp_path):
    with criterion(9, "identical seeds give byte-identical JSON reports and "
                      "generated files"):
        def run_cli(*args):
            res = cli_subprocess(*args)
            assert res.returncode == 0, res.stderr
            return res.stdout

        verify_args = ("verify", "--suite", "trace-chain", "--n", "4",
                       "--trials", "50", "--seed", "123", "--t", "0.3,0.7")
        assert run_cli(*verify_args) == run_cli(*verify_args)

        open_args = ("verify", "--suite", "open-question", "--n", "3",
                     "--trials", "25", "--seed", "9", "--t", "0.25,0.5")
        assert run_cli(*open_args) == run_cli(*open_args)

        from sandwich_opt import matrix_to_json
        from sandwich_opt.serialization import canonical_json

        mats = [random_spd(3, 1.0, 4.0, derive_seed(1009, "m", j)) for j in range(2)]
        prob = tmp_path / "p.json"
        prob.write_text(canonical_json({
            "t": 0.5, "weights": [1.0, 1.0],
            "matrices": [matrix_to_json(M) for M in mats],
        }) + "\n")
        bary_args = ("barycenter", "--problem", str(prob), "--solver", "gp")
        assert run_cli(*bary_args) == run_cli(*bary_args)

        out1, out2 = tmp_path / "g1", tmp_path / "g2"
        for out in (out1, out2):
            run_cli("gen", "--n", "3", "--count", "2", "--alpha", "1",
                    "--beta", "2", "--seed", "5", "--out", str(out))
        for f1, f2 in zip(sorted(out1.iterdir()), sorted(out2.iterdir())):
            assert f1.read_bytes() == f2.read_bytes()
