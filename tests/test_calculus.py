import numpy as np
import pytest

from sandwich_opt import (
    ParameterError,
    bregman,
    convexity_constants,
    fidelity,
    fidelity_t_derivative,
    gradient_f,
    hessian_apply,
    hessian_extreme_eigs,
    hessian_operator,
    hessian_operator_matrix,
    inner,
    matrix_log,
    random_hermitian,
    random_spd,
    sandwich_trace,
    sandwiched_divergence,
    sharper_lower_bound,
    third_derivative_bound,
    umegaki_relative_entropy,
)

from oracles import (
    basis_hessian_matrix,
    fd_directional_hessian,
    fd_gradient,
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


def test_hessian_extreme_eigs_power_iteration_path():
    # n = 9 exceeds the explicit-matrix cutoff; cross-check the two paths
    A = random_spd(9, 1.0, 4.0, 21)
    X = random_spd(9, 1.0, 4.0, 22)
    op = hessian_operator(A, X, 0.5)
    lo, hi = hessian_extreme_eigs(op)
    w = np.linalg.eigvalsh(hessian_operator_matrix(op))
    assert abs(hi - w[-1]) <= 1e-6 * w[-1]
    assert abs(lo - w[0]) <= 1e-6 * w[-1]


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


def test_bregman_examples():
    A = random_spd(3, 1.0, 2.0, 31)
    X = random_spd(3, 1.0, 2.0, 32)
    assert abs(bregman(A, 0.4, X, X)) <= 1e-12
    # scalars: g(x) = -x^{1/2}, g'(1) = -1/2, D = g(4) - g(1) + (1/2)(4-1)
    val = bregman(np.array([[1.0]]), 0.5, np.array([[4.0]]), np.array([[1.0]]))
    assert np.isclose(val, 0.5)


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
