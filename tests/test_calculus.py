import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sandwich_opt import (
    NumericalError,
    ParameterError,
    barycenter_problem,
    bregman,
    convexity_constants,
    derive_seed,
    fidelity,
    fidelity_t_derivative,
    gradient_f,
    hessian_apply,
    hessian_extreme_eigs,
    hessian_operator,
    hessian_operator_matrix,
    inner,
    matrix_log,
    objective_gradient,
    random_hermitian,
    random_spd,
    sandwich_trace,
    sandwiched_divergence,
    sharper_lower_bound,
    third_derivative_bound,
    umegaki_relative_entropy,
)
from sandwich_opt import calculus
from sandwich_opt.entropy import T_MIN

from oracles import (
    basis_hessian_matrix,
    count_lapack,
    fd_directional_hessian,
    fd_gradient,
    mp_gradient,
    paper_gradient,
    quadrature_hessian_apply,
)


def test_gradient_identity_parameter():
    # A = I: grad f(X) = t X^{t-1}
    G = gradient_f(np.eye(2), np.diag([1.0, 4.0]), 0.5)
    assert np.allclose(G, np.diag([0.5, 0.25]), atol=1e-13)


def test_gradient_scalar_case():
    G = gradient_f(np.array([[4.0]]), np.array([[1.0]]), 0.5)
    assert np.isclose(G[0, 0].real, 1.0)


def test_gradient_matches_finite_difference():
    for seed in range(5):
        A = random_spd(5, 1.0, 4.0, 100 + seed)
        X = random_spd(5, 1.0, 4.0, 200 + seed)
        t = (0.1, 0.3, 0.5, 0.7, 0.9)[seed]
        G = gradient_f(A, X, t)
        G_fd = fd_gradient(lambda M: sandwich_trace(A, M, t), X)
        assert np.linalg.norm(G - G_fd) <= 1e-6 * np.linalg.norm(G)


@pytest.mark.parametrize("n", [1, 3, 5])
@pytest.mark.parametrize("t", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("real", [True, False])
def test_gradient_matches_paper_expression(n, t, real):
    A = random_spd(n, 1.0, 4.0, 60 + n)
    X = random_spd(n, 1.0, 4.0, 70 + n)
    if real:
        A, X = A.real, X.real
    G = gradient_f(A, X, t)
    ref = paper_gradient(A, X, t)
    assert np.linalg.norm(G - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("fn,t", [(gradient_f, 0.4), (hessian_operator, 0.4),
                                  (fidelity_t_derivative, 0.4), (fidelity_t_derivative, 2.5)])
def test_sandwich_derivatives_take_two_eigh(monkeypatch, fn, t):
    # one decomposition of A and one of A''^{1/2} X A''^{1/2}
    A = random_spd(4, 1.0, 4.0, 81)
    X = random_spd(4, 1.0, 4.0, 82)
    calls = count_lapack(monkeypatch, "eigh")
    fn(A, X, t)
    assert calls == {"eigh": 2}


# (derive_seed recipe of A and X, or None for the seeds 0 and 1; n; t) at
# small t, where A''^{1/2} X A''^{1/2} spans about 4^{1/t} on these [1, 4]
# draws. The product of the full A^{(1-t)/2t} with X lost its small
# eigenvalues: the gradient's error, or the raise, is noted per case.
SMALL_T_CASES = {
    "n4-t0.03": ((7, "g"), 4, 0.03),     # 10.1%
    "n4-t0.02": ((7, "g"), 4, 0.02),     # "lost positivity"
    "n9-t0.03-seed3": ((3, "g"), 9, 0.03),  # 1.35%
    "n9-t0.03-seeds01": (None, 9, 0.03),    # "lost positivity"
}


def _small_t_case(name):
    recipe, n, t = SMALL_T_CASES[name]
    seeds = (0, 1) if recipe is None else [derive_seed(*recipe, k) for k in range(2)]
    A, X = (random_spd(n, 1.0, 4.0, s) for s in seeds)
    return A, X, t


@pytest.mark.parametrize("name", sorted(SMALL_T_CASES))
def test_gradient_matches_mpmath_at_small_t(name):
    # measured 1.2e-15, 1.4e-15, 1.2e-14 and 3.6e-15 relative against 80 digits,
    # in the order of SMALL_T_CASES
    A, X, t = _small_t_case(name)
    ref = mp_gradient(A, X, t)
    assert np.linalg.norm(gradient_f(A, X, t) - ref) <= 1e-12 * np.linalg.norm(ref)


def test_lost_positivity_raises_for_an_indefinite_x():
    # X is Hermitian but not positive definite, so its sandwich is not either
    A = random_spd(4, 1.0, 4.0, 0)
    X = np.diag([1.0, -0.5, 2.0, 3.0])
    for fn in (gradient_f, hessian_operator):
        with pytest.raises(NumericalError, match="lost positivity"):
            fn(A, X, 0.3)


# Valid SPD inputs whose frame overflows: at t = 0.01 the sandwich
# A^{(1-t)/2t} X A^{(1-t)/2t} = diag(1e-315, 1), and d^{t-1} = 1e-315^{-0.99}
# is past the float range, though the true gradient is finite (entry (1, 1)
# is 7.08e-6). The frame gave an all-NaN gradient with numpy warnings, an
# inf/NaN Hessian kernel that failed in LAPACK, and a Bregman divergence that
# blamed its input.
OVERFLOWING_FRAME = (np.diag([10.0 ** (-315 / 99), 1.0]), np.eye(2), 0.01)


@pytest.mark.parametrize("name", ["gradient_f", "objective_gradient", "hessian_extreme_eigs", "bregman"])
def test_an_overflowing_frame_raises_numerical_error_without_warnings(name):
    A, X, t = OVERFLOWING_FRAME
    call = {
        "gradient_f": lambda: gradient_f(A, X, t),
        "objective_gradient": lambda: objective_gradient(barycenter_problem([A], [1.0], t), X),
        "hessian_extreme_eigs": lambda: hessian_extreme_eigs(hessian_operator(A, X, t)),
        "bregman": lambda: bregman(A, t, X, 2.0 * X),
    }[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="not finite on the spectrum|kernel overflows"):
            call()


# Valid SPD inputs whose frame product overflows: at t = 0.4 the frame
# F = A^{3/4} V holds 1e231, and the true gradient t F diag(w^{-0.6}) F* has
# an entry near 1e369. gradient_f returned [[inf+nanj, 0], [0, 0.4]] after
# RuntimeWarnings, and the Hessian's twin factor W W* overflowed into
# numpy's LinAlgError "Eigenvalues did not converge".
OVERFLOWING_PRODUCT = (np.diag([1e308, 1.0]), np.diag([1e-308, 1.0]), 0.4)


@pytest.mark.parametrize("name,what", [("gradient_f", "frame product"),
                                       ("hessian_extreme_eigs", r"Hessian twin factor W W\*"),
                                       ("hessian_apply", "Hessian action"),
                                       ("hessian_operator_matrix", "Hessian matrix")])
def test_an_overflowing_frame_product_raises_numerical_error_without_warnings(name, what):
    A, X, t = OVERFLOWING_PRODUCT
    call = {
        "gradient_f": lambda: gradient_f(A, X, t),
        "hessian_extreme_eigs": lambda: hessian_extreme_eigs(hessian_operator(A, X, t)),
        "hessian_apply": lambda: hessian_apply(hessian_operator(A, X, t), np.eye(2)),
        "hessian_operator_matrix": lambda: hessian_operator_matrix(hessian_operator(A, X, t)),
    }[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericalError, match=f"^{what} overflows$"):
            call()


def test_gradient_positive_definite_and_guarded():
    A = random_spd(4, 1.0, 4.0, 7)
    X = random_spd(4, 1.0, 4.0, 8)
    assert np.linalg.eigvalsh(gradient_f(A, X, 0.3))[0] > 0
    with pytest.raises(ParameterError):
        gradient_f(A, X, 1.2)


def test_hessian_apply_identity_case():
    Y = random_hermitian(3, 5)
    op = hessian_operator(np.eye(3), np.eye(3), 0.5)
    assert np.allclose(hessian_apply(op, Y), Y / 4.0, atol=1e-13)


def test_hessian_apply_scalar_case():
    for t in (0.3, 0.6):
        op = hessian_operator(np.array([[1.0]]), np.array([[1.0]]), t)
        out = hessian_apply(op, np.array([[2.0]]))
        assert np.isclose(out[0, 0].real, t * (1.0 - t) * 2.0)


def test_hessian_apply_against_two_oracles():
    for seed in range(6):
        t = (0.1, 0.3, 0.5, 0.7, 0.9, 0.5)[seed]
        A = random_spd(4, 1.0, 4.0, 300 + seed)
        X = random_spd(4, 1.0, 4.0, 400 + seed)
        Y = random_hermitian(4, 500 + seed)
        op = hessian_operator(A, X, t)
        H = hessian_apply(op, Y)
        fd = -fd_directional_hessian(lambda M: gradient_f(A, M, t), X, Y)
        assert np.linalg.norm(H - fd) <= 1e-5 * np.linalg.norm(H)
        quad = quadrature_hessian_apply(A, X, t, Y)
        assert np.linalg.norm(H - quad) <= 1e-6 * np.linalg.norm(H)


def test_hessian_self_adjoint_and_positive():
    A = random_spd(4, 1.0, 4.0, 11)
    X = random_spd(4, 1.0, 4.0, 12)
    op = hessian_operator(A, X, 0.4)
    for seed in range(100):
        Y = random_hermitian(4, 600 + seed)
        Z = random_hermitian(4, 700 + seed)
        hy, hz = hessian_apply(op, Y), hessian_apply(op, Z)
        scale = np.linalg.norm(Y) * np.linalg.norm(Z)
        assert abs(inner(hy, Z) - inner(Y, hz)) <= 1e-10 * scale
        assert inner(hy, Y) >= -1e-12 * np.linalg.norm(Y) ** 2


def test_hessian_operator_matrix_closed_form():
    for n in (1, 2, 3, 5):
        A = random_spd(n, 1.0, 4.0, 400 + n)
        X = random_spd(n, 1.0, 4.0, 500 + n)
        for t in (0.3, 0.5, 0.7):
            op = hessian_operator(A, X, t)
            M = hessian_operator_matrix(op)
            for Y in (random_hermitian(n, 600 + n).real, random_hermitian(n, 700 + n)):
                HY = hessian_apply(op, Y)
                x, hx = ((Z.real + Z.imag).ravel() for Z in (Y, HY))
                assert np.linalg.norm(M @ x - hx) <= 1e-13 * np.linalg.norm(hx)
            w_ref = np.linalg.eigvalsh(basis_hessian_matrix(op))
            assert np.allclose(np.linalg.eigvalsh(M), w_ref, rtol=0.0, atol=1e-13 * w_ref[-1])


def test_hessian_extreme_eigs_trivial_cases():
    op = hessian_operator(np.eye(2), np.eye(2), 0.5)
    lo, hi = hessian_extreme_eigs(op)
    assert np.isclose(lo, 0.25) and np.isclose(hi, 0.25)
    op1 = hessian_operator(np.array([[1.0]]), np.array([[4.0]]), 0.5)
    lo, hi = hessian_extreme_eigs(op1)
    assert np.isclose(lo, 1.0 / 32.0) and np.isclose(hi, 1.0 / 32.0)


def test_hessian_extreme_eigs_within_certified_bounds():
    c = convexity_constants(0.3, 1.0, 4.0)
    for seed in range(10):
        A = random_spd(3, 1.0, 4.0, 800 + seed)
        X = random_spd(3, 1.0, 4.0, 900 + seed)
        lo, hi = hessian_extreme_eigs(hessian_operator(A, X, 0.3))
        assert lo >= c.k1 * (1.0 - 1e-8)
        assert hi <= c.k2 * (1.0 + 1e-8)
        assert hi / lo <= c.cond_bound * (1.0 + 1e-8)


@pytest.mark.parametrize("name", ["n4-t0.03", "n4-t0.02"])
def test_hessian_extreme_eigs_within_certified_bounds_at_small_t(name):
    # lambda_min reads 2.41e-3 >= k1 = 1.90e-3 at t = 0.03 and 1.60e-3 >= 1.26e-3
    # at t = 0.02; the product of the full A^{(1-t)/2t} with X read 7.72e-4 at
    # t = 0.03 and raised at t = 0.02
    A, X, t = _small_t_case(name)
    lo, _ = hessian_extreme_eigs(hessian_operator(A, X, t))
    assert lo >= convexity_constants(t, 1.0, 4.0).k1 * (1.0 - 1e-10)


def _lanczos(op):
    return calculus._lanczos_extreme(calculus._twin_matvec(op), op.n)


def test_hessian_extreme_eigs_lanczos_path():
    # Lanczos against the dense spectrum of the same operator, at sizes that
    # hessian_extreme_eigs sends dense; the sizes above the switch go
    # through hessian_extreme_eigs, which runs Lanczos there
    cases = [(9, _lanczos), (16, _lanczos), (calculus.DENSE_MAX_N, _lanczos),
             (calculus.DENSE_MAX_N + 1, hessian_extreme_eigs), (24, hessian_extreme_eigs)]
    for n, extreme in cases:
        A = random_spd(n, 1.0, 4.0, 20 + n)
        X = random_spd(n, 1.0, 4.0, 40 + n)
        for t in (0.3, 0.5, 0.7):
            op = hessian_operator(A, X, t)
            lo, hi = extreme(op)
            w = np.linalg.eigvalsh(hessian_operator_matrix(op))
            assert abs(lo - w[0]) <= 1e-12 * w[-1]
            assert abs(hi - w[-1]) <= 1e-12 * w[-1]
            # Ritz values lie inside the spectrum
            assert lo >= w[0] - 1e-13 * w[-1]
            assert hi <= w[-1] + 1e-13 * w[-1]
            assert extreme(op) == (lo, hi)


@pytest.mark.parametrize("n", [calculus.DENSE_MAX_N - 1, calculus.DENSE_MAX_N, calculus.DENSE_MAX_N + 1])
def test_hessian_extreme_eigs_switches_to_lanczos_above_dense_max_n(n, monkeypatch):
    # dense (one eigvalsh of the twin matrix, no matvec) up to DENSE_MAX_N,
    # Lanczos on the twin matvec above; hessian_apply serves neither. The two
    # agree with the operator matrix's spectrum on both sides of the switch
    op = hessian_operator(random_spd(n, 1.0, 4.0, 60 + n), random_spd(n, 1.0, 4.0, 80 + n), 0.5)
    w = np.linalg.eigvalsh(hessian_operator_matrix(op))
    w_twin = np.linalg.eigvalsh(calculus._twin_matrix(op))
    lanczos = _lanczos(op)
    calls = {"hessian_apply": 0, "twin_matvec": 0}

    def counted(fn, name):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    twin_matvec = calculus._twin_matvec
    monkeypatch.setattr(calculus, "_twin_matvec", lambda op: counted(twin_matvec(op), "twin_matvec"))
    monkeypatch.setattr(calculus, "hessian_apply", counted(calculus.hessian_apply, "hessian_apply"))
    lapack = count_lapack(monkeypatch, "eigvalsh")
    lo, hi = hessian_extreme_eigs(op)
    assert calls["hessian_apply"] == 0
    if n <= calculus.DENSE_MAX_N:
        assert {**calls, **lapack} == {"hessian_apply": 0, "twin_matvec": 0, "eigvalsh": 1}
        assert (lo, hi) == (float(w_twin[0]), float(w_twin[-1]))
    else:
        assert calls["twin_matvec"] > 0
        assert (lo, hi) == lanczos
    for values in (w_twin[[0, -1]], lanczos):
        assert abs(values[0] - w[0]) <= 1e-12 * w[-1]
        assert abs(values[1] - w[-1]) <= 1e-12 * w[-1]


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    n=st.integers(1, 8),
    t=st.floats(0.02, 0.9),
    real=st.booleans(),
    seed=st.integers(0, 2**32 - 2),
)
def test_twin_has_the_hessian_spectrum(n, t, real, seed):
    # t S o (B (S o Z) B) with S = sqrt(K), B = W W*, against the closed-form
    # matrix of t W* [K o (W Y W*)] W: the whole spectrum, and the matvec
    # against the twin's matrix
    A = random_spd(n, 1.0, 4.0, seed)
    X = random_spd(n, 1.0, 4.0, seed + 1)
    if real:
        A, X = A.real, X.real
    op = hessian_operator(A, X, t)
    w = np.linalg.eigvalsh(hessian_operator_matrix(op))
    M = calculus._twin_matrix(op)
    assert np.max(np.abs(np.linalg.eigvalsh(M) - w)) <= 1e-13 * w[-1]
    x = random_hermitian(n, seed).real.ravel()
    assert np.linalg.norm(calculus._twin_matvec(op)(x) - M @ x) <= 1e-13 * w[-1] * np.linalg.norm(x)


def test_ritz_bottom_matches_eigh_eigenvectors():
    # Lanczos matrices of diag(ev) from 9 to 53 steps: the bottom components
    # of the extreme Ritz vectors range from 1e-1 down past 1e-14
    rng = np.random.default_rng(5)
    for trial in range(12):
        ev = np.sort(rng.uniform(0.1, 1.0, 60)) if trial % 2 else np.geomspace(1e-3, 1.0, 60)
        q = rng.standard_normal(60)
        Q = [q / np.linalg.norm(q)]
        alpha, beta = [], []
        for _ in range(9 + 4 * trial):
            w = ev * Q[-1] - (beta[-1] * Q[-2] if beta else 0.0)
            alpha.append(float(Q[-1] @ w))
            B = np.array(Q)
            w -= B.T @ (B @ w)
            w -= B.T @ (B @ w)
            beta.append(float(np.linalg.norm(w)))
            Q.append(w / beta[-1])
        beta.pop()
        T = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
        theta, S = np.linalg.eigh(T)
        for i, sign in ((0, -1.0), (-1, 1.0)):
            est = calculus._ritz_bottom(alpha, beta, theta[i], sign)
            assert abs(est - abs(S[-1, i])) <= 1e-6 * abs(S[-1, i]) + 1e-15


def test_hessian_extreme_eigs_unconverged_lanczos_raises(monkeypatch):
    # with a zero tolerance no Ritz residual passes: the run ends at the
    # n^2 step cap and raises instead of returning a value
    op = hessian_operator(random_spd(9, 1.0, 4.0, 29), random_spd(9, 1.0, 4.0, 49), 0.5)
    monkeypatch.setattr(calculus, "LANCZOS_RTOL", 0.0)
    with pytest.raises(NumericalError, match="did not converge in 81 steps"):
        _lanczos(op)


# t stops at 0.02 from below: A''^{1/2} X A''^{1/2} spans 4^{1/t}, and near
# t = 0.012 the eigh of even its graded form loses the smallest eigenvalue
# (at n = 3 it read -2.1e4 against 3.1e4), so hessian_operator raises
# NumericalError there.
@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(
    n=st.integers(9, 12),
    t=st.floats(0.02, 1.0 - T_MIN, exclude_max=True),
    seed=st.integers(0, 2**32 - 2),
)
def test_hessian_extreme_eigs_lanczos_matches_dense(n, t, seed):
    A = random_spd(n, 1.0, 4.0, seed)
    X = random_spd(n, 1.0, 4.0, seed + 1)
    op = hessian_operator(A, X, t)
    lo, hi = _lanczos(op)
    w = np.linalg.eigvalsh(hessian_operator_matrix(op))
    assert abs(lo - w[0]) <= 1e-12 * w[-1]
    assert abs(hi - w[-1]) <= 1e-12 * w[-1]


def test_sharper_lower_bound_holds_and_tightens():
    t, alpha, beta = 0.5, 1.0, 4.0
    c = convexity_constants(t, alpha, beta)
    for seed in range(10):
        A = random_spd(3, 2.0, 4.0, 950 + seed)  # lam_min(A) > alpha
        X = random_spd(3, 1.0, 4.0, 970 + seed)
        lam_min_A = float(np.linalg.eigvalsh(A)[0])
        sharper = sharper_lower_bound(t, beta, lam_min_A)
        assert sharper > c.k1
        lo, _ = hessian_extreme_eigs(hessian_operator(A, X, t))
        assert lo >= sharper * (1.0 - 1e-8)


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(
    n=st.integers(1, 5),
    t=st.floats(0.05, 0.95),
    log_a=st.floats(-1.5, 1.5),
    log_x=st.floats(-1.5, 1.5),
    log_ratio_a=st.floats(0.0, 3.0),
    log_ratio_x=st.floats(0.0, 3.0),
    seed=st.integers(0, 2**32 - 2),
)
def test_hessian_extremes_obey_the_split_bounds(n, t, log_a, log_x, log_ratio_a, log_ratio_x, seed):
    # t(1-t) lam_min(A)^{1-t} lam_max(X)^{t-2} <= -grad^2 f(X)
    # <= t(1-t) lam_max(A)^{1-t} lam_min(X)^{t-2}, A and X on unrelated boxes
    # (ConvexityConstants); equal at n = 1
    A = random_spd(n, np.exp(log_a), np.exp(log_a + log_ratio_a), derive_seed(seed, "split", "a"))
    X = random_spd(n, np.exp(log_x), np.exp(log_x + log_ratio_x), derive_seed(seed, "split", "x"))
    a, x = np.linalg.eigvalsh(A), np.linalg.eigvalsh(X)
    lo, hi = hessian_extreme_eigs(hessian_operator(A, X, t))
    c = t * (1.0 - t)
    assert lo >= c * a[0] ** (1.0 - t) * x[-1] ** (t - 2.0) * (1.0 - 1e-9)
    assert hi <= c * a[-1] ** (1.0 - t) * x[0] ** (t - 2.0) * (1.0 + 1e-9)


def test_convexity_constants_worked_values():
    c = convexity_constants(0.5, 1.0, 4.0)
    assert np.isclose(c.k1, 1.0 / 32.0)
    assert np.isclose(c.k2, 0.5)
    assert np.isclose(c.cond_bound, 16.0)
    c1 = convexity_constants(0.37, 1.0, 1.0)
    assert np.isclose(c1.k1, 0.37 * 0.63)
    assert np.isclose(c1.k2, 0.37 * 0.63)
    assert np.isclose(c1.cond_bound, 1.0)
    # t = 1/2 barycenter-objective bound: (1/4) alpha^{1/2} / beta^{3/2}
    c2 = convexity_constants(0.5, 1.0, 1.0)
    assert np.isclose(c2.k1, 0.25) and np.isclose(c2.k2, 0.25)


def test_convexity_constants_algebraic_identity():
    for t, a, b in [(0.3, 0.7, 2.9), (0.5, 1.0, 4.0), (0.8, 2.0, 2.5)]:
        c = convexity_constants(t, a, b)
        assert abs(c.k2 / c.k1 - c.cond_bound) <= 1e-12 * c.cond_bound
        assert 0 < c.k1 <= c.k2


def test_third_derivative_bound_values():
    assert np.isclose(third_derivative_bound(0.5, 1.0, 1.0), 3.0 / 8.0)
    assert np.isclose(third_derivative_bound(0.5, 1.0, 4.0), 3.0 / 4.0)


def test_hessian_lipschitz_under_third_derivative_bound():
    # operator-norm reading; the entrywise-Frobenius version of this bound
    # fails by a dimensional factor already for X, Y multiples of I
    t, alpha, beta = 0.5, 1.0, 2.0
    bound = third_derivative_bound(t, alpha, beta)
    for seed in range(5):
        A = random_spd(3, alpha, beta, 1100 + seed)
        X = random_spd(3, alpha, beta, 1200 + seed)
        Y = random_spd(3, alpha, beta, 1300 + seed)
        MX = hessian_operator_matrix(hessian_operator(A, X, t))
        MY = hessian_operator_matrix(hessian_operator(A, Y, t))
        lhs = np.max(np.abs(np.linalg.eigvalsh(MX - MY)))
        assert lhs <= bound * np.linalg.norm(X - Y) * (1.0 + 1e-8)


def _hessian_lipschitz_ratio(A, X, Y, t, alpha, beta):
    """||grad^2 f(X) - grad^2 f(Y)||_op / (third_derivative_bound ||X - Y||_F)."""
    MX = hessian_operator_matrix(hessian_operator(A, X, t))
    MY = hessian_operator_matrix(hessian_operator(A, Y, t))
    lhs = np.max(np.abs(np.linalg.eigvalsh(MX - MY)))
    return lhs / (third_derivative_bound(t, alpha, beta) * np.linalg.norm(X - Y))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    n=st.integers(1, 8),
    t=st.floats(0.02, 0.9),
    real=st.booleans(),
    step=st.floats(1e-3, 1.0),
    seed=st.integers(0, 2**32 - 3),
)
def test_hessian_lipschitz_property(n, t, real, step, seed):
    # Y on the segment from X towards a third point of the box, so near and
    # far pairs are both drawn
    alpha, beta = 1.0, 4.0
    A, X, Z = (random_spd(n, alpha, beta, seed + k) for k in range(3))
    if real:
        A, X, Z = A.real, X.real, Z.real
    Y = X + step * (Z - X)
    assert _hessian_lipschitz_ratio(A, X, Y, t, alpha, beta) <= 1.0 + 1e-8


@pytest.mark.parametrize("t", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_third_derivative_bound_attained_at_commuting_extreme(t):
    # n = 1, A = beta, X = alpha: the third derivative of f(x) = beta^{1-t} x^t
    # has its largest modulus t(1-t)(2-t) beta^{1-t} alpha^{t-3}, the bound,
    # at x = alpha, so the ratio tends to 1 from below as Y -> X
    alpha, beta = 1.0, 4.0
    A, X = np.array([[beta]]), np.array([[alpha]])
    for h in (1e-1, 1e-3, 1e-5):
        ratio = _hessian_lipschitz_ratio(A, X, X + h, t, alpha, beta)
        assert 1.0 - 3.0 * h <= ratio <= 1.0 + 1e-8


def test_bregman_examples():
    A = random_spd(3, 1.0, 2.0, 31)
    X = random_spd(3, 1.0, 2.0, 32)
    assert abs(bregman(A, 0.4, X, X)) <= 1e-12
    # scalars: g(x) = -x^{1/2}, g'(1) = -1/2, D = g(4) - g(1) + (1/2)(4-1)
    val = bregman(np.array([[1.0]]), 0.5, np.array([[4.0]]), np.array([[1.0]]))
    assert np.isclose(val, 0.5)


def test_bregman_decomposes_a_once(monkeypatch):
    # eigh of A and of the sandwich at X, eigvalsh of the sandwich at Y; the
    # value is the gradient-and-two-traces formula up to rounding of its terms
    A = random_spd(4, 1.0, 4.0, 83)
    X = random_spd(4, 1.0, 4.0, 84)
    Y = random_spd(4, 1.0, 4.0, 85)
    t = 0.4
    G = gradient_f(A, X, t)
    terms = (sandwich_trace(A, X, t), -sandwich_trace(A, Y, t), inner(G, Y - X))
    calls = count_lapack(monkeypatch, "eigh", "eigvalsh")
    val = bregman(A, t, Y, X)
    assert calls == {"eigh": 2, "eigvalsh": 1}
    assert abs(val - sum(terms)) <= 1e-14 * sum(abs(x) for x in terms)


def test_bregman_strong_convexity_bound():
    k1 = convexity_constants(0.5, 1.0, 2.0).k1
    for seed in range(10):
        A = random_spd(4, 1.0, 2.0, 1400 + seed)
        X = random_spd(4, 1.0, 2.0, 1500 + seed)
        Y = random_spd(4, 1.0, 2.0, 1600 + seed)
        d = bregman(A, 0.5, Y, X)
        assert d >= -1e-10
        assert d >= 0.5 * k1 * np.linalg.norm(X - Y) ** 2 * (1.0 - 1e-8)
        assert bregman(A, 0.5, Y, X) > 0.0 or np.allclose(X, Y)


def test_bregman_symmetry_identity():
    # D(Y,X) + D(X,Y) = <grad g(Y) - grad g(X), Y - X> with g = -f
    for seed in range(5):
        A = random_spd(4, 1.0, 2.0, 1700 + seed)
        X = random_spd(4, 1.0, 2.0, 1800 + seed)
        Y = random_spd(4, 1.0, 2.0, 1900 + seed)
        t = 0.35
        lhs = bregman(A, t, Y, X) + bregman(A, t, X, Y)
        rhs = inner(gradient_f(A, X, t) - gradient_f(A, Y, t), Y - X)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_fidelity_t_derivative_zero_for_equal_arguments():
    A = random_spd(4, 0.5, 2.0, 41)
    for t in (0.4, 1.0, 2.5):
        assert abs(fidelity_t_derivative(A, A, t)) <= 1e-10 * np.trace(A).real


def test_fidelity_t_derivative_scalar_at_one():
    a, b = 2.0, 5.0
    val = fidelity_t_derivative(np.array([[a]]), np.array([[b]]), 1.0)
    assert np.isclose(val, b * (np.log(b) - np.log(a)))


def test_fidelity_t_derivative_matches_finite_difference():
    for seed in range(5):
        A = random_spd(4, 1.0, 3.0, 2000 + seed)
        B = random_spd(4, 1.0, 3.0, 2100 + seed)
        t, h = 0.6, 1e-5
        fd = (fidelity(A, B, t + h) - fidelity(A, B, t - h)) / (2.0 * h)
        val = fidelity_t_derivative(A, B, t)
        assert abs(val - fd) <= 1e-6 * max(1.0, abs(val))


def test_fidelity_t_derivative_at_one_is_unnormalized_relative_entropy():
    for seed in range(5):
        A = random_spd(4, 1.0, 3.0, 2200 + seed)
        B = random_spd(4, 1.0, 3.0, 2300 + seed)
        expected = float(np.trace(B @ (matrix_log(B) - matrix_log(A))).real)
        assert abs(fidelity_t_derivative(A, B, 1.0) - expected) <= 1e-9 * max(1.0, abs(expected))


def test_fidelity_t_derivative_guard():
    A = random_spd(2, 1.0, 2.0, 51)
    with pytest.raises(ParameterError):
        fidelity_t_derivative(A, A, 0.0)
    with pytest.raises(ParameterError):
        fidelity_t_derivative(A, A, 100.0)


def test_relative_entropy_limit_decay():
    # |D_{1+h} - RE| <= C h with near-linear decay in h
    for seed in range(5):
        A = random_spd(3, 1.0, 2.0, 2400 + seed)
        B = random_spd(3, 1.0, 2.0, 2500 + seed)
        A = A / np.trace(A).real
        B = B / np.trace(B).real
        re = umegaki_relative_entropy(B, A)
        errs = {}
        for h in (1e-3, 1e-4):
            err = abs(sandwiched_divergence(A, B, 1.0 + h) - re)
            assert err <= 10.0 * h * (1.0 + abs(re))
            errs[h] = err
        assert errs[1e-4] <= 0.3 * errs[1e-3] + 1e-14


def test_overflow_at_small_t_raises_numerical_error():
    # t lies inside (T_MIN, 1 - T_MIN), but on a [1, 400] box A^{(1-t)/2t}
    # overflows at t = 0.0015, and A^{(1-t)/2t} X A^{(1-t)/2t} at t = 0.005
    A, X = random_spd(4, 1.0, 400.0, 1), random_spd(4, 1.0, 400.0, 2)
    for fn in (gradient_f, hessian_operator, fidelity):
        with pytest.raises(NumericalError, match="power.* is not finite on the spectrum"):
            fn(A, X, 0.0015)
        with pytest.raises(NumericalError, match="sandwiched product overflows at t = 0.005"):
            fn(A, X, 0.005)
