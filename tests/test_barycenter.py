import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sandwich_opt import (
    InvalidBox,
    InvalidInput,
    InvalidStart,
    InvalidStepSize,
    NumericalError,
    ParameterError,
    barycenter_problem,
    certified_rate,
    convexity_constants,
    derive_seed,
    fidelity,
    fixed_point_map,
    gradient_f,
    matrix_power,
    objective,
    objective_gradient,
    project_box,
    random_spd,
    solve_fixed_point,
    solve_gradient_projection,
    symmetrize,
)
from sandwich_opt.barycenter import BOX_RTOL, _History, _power_mean_decomposition

from oracles import (
    fd_gradient,
    fixed_point_map_oracle,
    mp_gradient,
    objective_gradient_oracle,
    power_mean_oracle,
)


def random_problem(pid, n=4, m=3, t=0.5, lo=1.0, hi=4.0):
    mats = [random_spd(n, lo, hi, derive_seed(9000 + pid, "marg", j)) for j in range(m)]
    return barycenter_problem(mats, np.ones(m), t, alpha=lo, beta=hi)


def test_problem_normalizes_weights_and_defaults_box():
    mats = [random_spd(3, 1.0, 2.0, 1), random_spd(3, 1.5, 3.0, 2)]
    p = barycenter_problem(mats, [2.0, 6.0], 0.5)
    assert np.allclose(p.weights, [0.25, 0.75])
    assert np.isclose(np.sum(p.weights), 1.0, atol=1e-12)
    # the power-mean box [M_r(a), M_r(b)], r = 1 - t, of the weighted extremes
    a = np.array([np.linalg.eigvalsh(M)[0] for M in mats])
    b = np.array([np.linalg.eigvalsh(M)[-1] for M in mats])
    assert np.isclose(p.alpha, (0.25 * a[0] ** 0.5 + 0.75 * a[1] ** 0.5) ** 2)
    assert np.isclose(p.beta, (0.25 * b[0] ** 0.5 + 0.75 * b[1] ** 0.5) ** 2)
    assert a.min() < p.alpha < p.beta < b.max()


def test_problem_validation_errors():
    mats = [random_spd(3, 1.0, 2.0, 3)]
    with pytest.raises(InvalidInput):
        barycenter_problem(mats, [0.0], 0.5)
    with pytest.raises(InvalidInput):
        barycenter_problem(mats, [1.0, 1.0], 0.5)
    with pytest.raises(InvalidInput):
        barycenter_problem([], [], 0.5)
    with pytest.raises(ParameterError):
        barycenter_problem(mats, [1.0], 1.2)
    with pytest.raises(InvalidBox):
        barycenter_problem(mats, [1.0], 0.5, alpha=1.5, beta=3.0)
    with pytest.raises(InvalidInput):
        barycenter_problem([mats[0], random_spd(2, 1.0, 2.0, 4)], [1.0, 1.0], 0.5)


def test_objective_single_marginal_vanishes_at_marginal():
    A = random_spd(4, 1.0, 3.0, 5)
    p = barycenter_problem([A], [1.0], 0.4)
    assert abs(objective(p, A)) <= 1e-12 * np.trace(A).real


def test_objective_scalar_example():
    p = barycenter_problem(
        [np.array([[1.0]]), np.array([[4.0]])], [0.5, 0.5], 0.5, alpha=1.0, beta=4.0
    )
    assert np.isclose(objective(p, np.array([[1.0]])), 0.25)


def test_objective_composes_from_fidelity():
    p = random_problem(1)
    X = random_spd(4, 1.0, 4.0, 77)
    direct = sum(
        w * ((1 - p.t) * np.trace(A).real + p.t * np.trace(X).real - fidelity(A, X, p.t))
        for w, A in zip(p.weights, p.matrices)
    )
    assert abs(objective(p, X) - direct) <= 1e-12 * max(1.0, abs(direct))


def test_objective_nonnegative_on_random_points():
    p = random_problem(2)
    for seed in range(20):
        X = random_spd(4, 1.0, 4.0, 3000 + seed)
        assert objective(p, X) >= -1e-10


def test_gradient_vanishes_at_single_marginal():
    A = random_spd(4, 1.0, 3.0, 6)
    p = barycenter_problem([A], [1.0], 0.5)
    assert np.linalg.norm(objective_gradient(p, A)) <= 1e-12


def test_gradient_scalar_stationary_point():
    p = barycenter_problem(
        [np.array([[1.0]]), np.array([[4.0]])], [0.5, 0.5], 0.5, alpha=1.0, beta=4.0
    )
    g = objective_gradient(p, np.array([[2.25]]))
    assert abs(g[0, 0].real) <= 1e-12


def test_gradient_matches_finite_difference():
    p = random_problem(3)
    X = random_spd(4, 1.0, 4.0, 88)
    G = objective_gradient(p, X)
    G_fd = fd_gradient(lambda M: objective(p, M), X)
    assert np.linalg.norm(G - G_fd) <= 1e-6 * np.linalg.norm(G)


def test_certified_rate_worked_example():
    p = random_problem(4, t=0.5)  # box [1, 4]
    a_star, b_star, q = certified_rate(p, eta=2.0)
    assert np.isclose(a_star, 1.0 / 32.0)
    assert np.isclose(b_star, 0.5)
    assert np.isclose(q, 15.0 / 16.0)
    c = convexity_constants(p.t, p.alpha, p.beta)
    assert certified_rate(p)[:2] == (c.k1, c.k2)
    # default step: q = 1 - (alpha/beta)^{3-2t}
    _, _, q_def = certified_rate(p)
    assert np.isclose(q_def, 1.0 - 0.25**2)
    p2 = random_problem(5, t=0.3, lo=1.0, hi=2.0)
    assert np.isclose(certified_rate(p2)[2], 1.0 - 0.5**2.4)


def test_certified_rate_degenerate_box_gives_zero_rate():
    c = 2.0
    mats = [c * np.eye(3), c * np.eye(3)]
    p = barycenter_problem(mats, [1.0, 1.0], 0.5)
    a_star, b_star, q = certified_rate(p)
    assert np.isclose(a_star, b_star)
    assert abs(q) <= 1e-12


def test_certified_rate_rejects_bad_step():
    p = random_problem(6)
    _, b_star, _ = certified_rate(p)
    with pytest.raises(InvalidStepSize):
        certified_rate(p, eta=2.0 / b_star)
    with pytest.raises(InvalidStepSize):
        certified_rate(p, eta=-0.1)


def test_gradient_projection_single_marginal():
    A = random_spd(4, 1.0, 3.0, 7)
    p = barycenter_problem([A], [1.0], 0.5)
    rep = solve_gradient_projection(p)
    assert rep.termination == "gradient_tol"
    assert np.linalg.norm(rep.minimizer - A) <= rep.error_bound
    assert rep.grad_norms[-1] <= 1e-10 * p.t * p.n
    assert all(np.isfinite(g) for g in rep.grad_norms)


def test_gradient_projection_commuting_closed_form():
    # coordinatewise power mean x = (sum w_j a_j^{1-t})^{1/(1-t)}
    p = barycenter_problem(
        [np.diag([1.0, 4.0]), np.diag([4.0, 1.0])], [0.5, 0.5], 0.5, alpha=1.0, beta=4.0
    )
    rep = solve_gradient_projection(p)
    assert np.linalg.norm(rep.minimizer - 2.25 * np.eye(2)) <= 1e-8


@pytest.mark.parametrize("t", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("basis", ["diagonal", "orthogonal", "unitary"])
def test_commuting_marginals_are_solved_at_the_start(basis, t):
    # commuting marginals Q diag(a_j) Q*: phi_t is minimized at
    # Q diag((sum_j w_j a_j^{1-t})^{1/(1-t)}) Q*, the default start of both
    # solvers. Both stop there, at iteration 0, on the one gradient rule; from
    # the independent start (alpha+beta)/2 I the fixed point takes 9-180 steps
    n, m = 4, 3
    rng = np.random.default_rng(derive_seed(9300, basis, t))
    a = rng.uniform(1.0, 4.0, (m, n))
    w = np.array([1.0, 2.0, 3.0])
    Q = np.eye(n)
    if basis != "diagonal":
        Z = rng.standard_normal((n, n))
        if basis == "unitary":
            Z = Z + 1j * rng.standard_normal((n, n))
        Q = np.linalg.qr(Z)[0]
    p = barycenter_problem([(Q * x) @ Q.conj().T for x in a], w, t, alpha=1.0, beta=4.0)
    x = (w / w.sum() @ a ** (1.0 - t)) ** (1.0 / (1.0 - t))
    expected = (Q * x) @ Q.conj().T

    gp = solve_gradient_projection(p)
    assert gp.iterations == 0 and gp.termination == "gradient_tol"
    assert np.linalg.norm(gp.minimizer - expected) <= 1e-12 * np.linalg.norm(expected)
    fp = solve_fixed_point(p)
    assert fp.iterations == 0 and fp.termination == "gradient_tol"
    assert np.linalg.norm(fp.minimizer - expected) <= 1e-12 * np.linalg.norm(expected)
    midpoint = solve_fixed_point(p, x0=(p.alpha + p.beta) / 2.0 * np.eye(n))
    assert midpoint.iterations > 0 and midpoint.termination == "gradient_tol"
    assert np.linalg.norm(midpoint.minimizer - gp.minimizer) <= midpoint.error_bound + gp.error_bound


def _package_power_mean(p):
    # the power mean P as the start forms it, bit for bit, from its decomposition
    return symmetrize(_power_mean_decomposition(p).reconstruct())


def _start_problem(log_w, n, t, hi, real, seed):
    mats = [_real_or_complex(random_spd(n, 1.0, hi, derive_seed(seed, "marg", j)), real)
            for j in range(len(log_w))]
    return barycenter_problem(mats, 10.0 ** np.array(log_w), t, alpha=1.0, beta=hi)


_START_PROBLEMS = dict(
    log_w=st.lists(st.floats(-12.0, 0.0), min_size=1, max_size=4),
    n=st.integers(1, 5),
    hi=st.floats(1.5, 20.0),
    real=st.booleans(),
    seed=st.integers(0, 2**32 - 2),
)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(t=st.floats(0.02, 0.98), **_START_PROBLEMS)
def test_power_mean_start_lies_in_the_box(log_w, n, t, hi, real, seed):
    # each A_j^{1-t} lies in [a_j^{1-t} I, b_j^{1-t} I], so their weighted
    # mean lies in [alpha'^{1-t} I, beta'^{1-t} I], and its 1/(1-t) power in
    # the power-mean box [alpha', beta'], the default box, inside [alpha, beta]
    p = _start_problem(log_w, n, t, hi, real, seed)
    w = np.linalg.eigvalsh(_package_power_mean(p))
    for box in (p, barycenter_problem(p.matrices, p.weights, p.t)):
        slack = BOX_RTOL * box.beta
        assert box.alpha - slack <= w[0] and w[-1] <= box.beta + slack


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(t=st.floats(0.02, 0.9), **_START_PROBLEMS)
def test_gradient_projection_starts_at_the_projected_power_mean(log_w, n, t, hi, real, seed):
    # t >= 0.02: near t = 0.012 the graded sandwich's eigh can lose positivity
    # (ROADMAP item 1). The start is the projected power mean P, unless P
    # misses grad_tol and the projected relaxed step from P has a strictly
    # smaller gradient: then it is that step, built from P's decomposition
    import sandwich_opt.barycenter as bc

    p = _start_problem(log_w, n, t, hi, real, seed)
    rep = solve_gradient_projection(p, max_iters=0, trace=True)
    P = project_box(_package_power_mean(p), p.alpha, p.beta)
    G, S = bc._gradient_and_sum(p, P)
    expected = P
    if np.linalg.norm(G) > 1e-10 * p.t * p.n:
        C = bc._project_box(bc._relaxed_step(bc._power_mean_decomposition(p), S, p.t), p.alpha, p.beta)
        if np.linalg.norm(bc._gradient_and_sum(p, C)[0]) < np.linalg.norm(G):
            expected = C
    assert np.array_equal(rep.iterates[0], expected)


def _relaxed_step_oracle(p, X):
    # T(X) = X^{-a} (X^{1/2} S(X) X^{1/2})^b X^{-a}, b = 1/(1-t), a = t b / 2,
    # from the public matrix functions and gradient, projected onto the box
    b = 1.0 / (1.0 - p.t)
    S = np.eye(p.n) - objective_gradient(p, X) / p.t
    root, outer = matrix_power(X, 0.5), matrix_power(X, -0.5 * p.t * b)
    return project_box(outer @ matrix_power(root @ S @ root, b) @ outer, p.alpha, p.beta)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(t=st.floats(0.02, 0.98), loose=st.booleans(), **_START_PROBLEMS)
def test_the_gradient_projection_start_is_no_farther_than_the_power_mean(log_w, n, t, hi, real, seed,
                                                                        loose):
    # boxes up to [1, 20]. ||grad phi_t|| / k1 bounds the distance to X* on
    # the box, so the start's certified distance is at most P's: the start
    # lies in the box, and its gradient is the smaller of P's and the
    # projected relaxed step's (formed here from the public kernels, so only
    # to rounding); when P meets grad_tol ("loose" sets it at twice P's
    # gradient) the start is the projected P itself. The fixed point starts
    # at the same point, bit for bit
    p = _start_problem(log_w, n, t, hi, real, seed)
    P = project_box(_package_power_mean(p), p.alpha, p.beta)
    g_power = np.linalg.norm(objective_gradient(p, P))
    grad_tol = 2.0 * g_power if loose else None
    rep = solve_gradient_projection(p, grad_tol=grad_tol, max_iters=0, trace=True)
    X = rep.iterates[0]
    fp = solve_fixed_point(p, grad_tol=grad_tol, max_iters=0, trace=True)
    assert np.array_equal(fp.iterates[0], X) and fp.grad_norms[0] == rep.grad_norms[0]
    w = np.linalg.eigvalsh(X)
    slack = BOX_RTOL * p.beta
    assert p.alpha - slack <= w[0] and w[-1] <= p.beta + slack
    assert rep.grad_norms[0] <= g_power
    if g_power <= (grad_tol if loose else 1e-10 * p.t * p.n):
        assert np.array_equal(X, P)
    else:
        g_step = np.linalg.norm(objective_gradient(p, _relaxed_step_oracle(p, P)))
        assert rep.grad_norms[0] == pytest.approx(min(g_power, g_step), rel=1e-6, abs=1e-12)


@pytest.mark.parametrize("n,m,seed", [(3, 2, 1), (6, 3, 2), (16, 5, 3)])
def test_the_relaxed_step_at_one_half_is_s_p_s(n, m, seed):
    # at t = 1/2, b = 2 and a = 1/2: T(P) = P^{-1/2} (P^{1/2} S P^{1/2})^2 P^{-1/2}
    # = S P S, the step of Alvarez-Esteban, del Barrio, Cuesta-Albertos & Matran
    import sandwich_opt.barycenter as bc

    mats = [random_spd(n, 1.0, 4.0, derive_seed(seed, "half", j)) for j in range(m)]
    p = barycenter_problem(mats, np.arange(1.0, m + 1.0), 0.5)
    P = _package_power_mean(p)
    S = bc._mean_sum(p, P)
    T = bc._relaxed_step(bc._power_mean_decomposition(p), S, p.t)
    expected = S @ P @ S
    assert np.linalg.norm(T - expected) <= 1e-12 * np.linalg.norm(expected)


@pytest.mark.parametrize("t", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("basis", ["diagonal", "unitary"])
def test_the_relaxed_step_is_exact_for_commuting_marginals(basis, t):
    # for marginals Q diag(a_j) Q* and X commuting with them,
    # F(X) = X^t M^{1-t} with M the power mean, so
    # T(X) = X^{-a} (X^t M^{1-t})^b X^{-a} = M: exact in one step, from P and
    # from any commuting X
    import sandwich_opt.barycenter as bc
    from sandwich_opt import spectral_decompose

    n, m = 4, 3
    rng = np.random.default_rng(derive_seed(9310, basis, t))
    a = rng.uniform(1.0, 4.0, (m, n))
    Q = np.eye(n)
    if basis == "unitary":
        Q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    p = barycenter_problem([(Q * x) @ Q.conj().T for x in a], [1.0, 2.0, 3.0], t)
    M = power_mean_oracle(p)
    X = (Q * rng.uniform(p.alpha, p.beta, n)) @ Q.conj().T
    for start, dec in ((_package_power_mean(p), _power_mean_decomposition(p)), (X, spectral_decompose(X))):
        T = bc._relaxed_step(dec, bc._mean_sum(p, start), p.t)
        assert np.linalg.norm(T - M) <= 1e-12 * np.linalg.norm(M)


def test_a_relaxed_step_with_a_larger_gradient_is_not_taken():
    # at t = 0.9 on [1, 20] the relaxed step from P can overshoot: here its
    # gradient is 2.1e-4 against P's 1.2e-4, so GP starts at P
    mats = [random_spd(8, 1.0, 20.0, derive_seed(900, "w", 8, j)) for j in range(5)]
    p = barycenter_problem(mats, np.ones(5), 0.9)
    P = project_box(_package_power_mean(p), p.alpha, p.beta)
    g_step = np.linalg.norm(objective_gradient(p, _relaxed_step_oracle(p, P)))
    assert g_step > 1.5 * np.linalg.norm(objective_gradient(p, P))
    rep = solve_gradient_projection(p, trace=True)
    assert rep.termination == "gradient_tol"
    assert np.array_equal(rep.iterates[0], P)


@pytest.mark.parametrize("solver", [solve_gradient_projection, solve_fixed_point])
@pytest.mark.parametrize("lo,hi,t", [(1e-3, 1e3, 0.995), (1.0, 20.0, 0.998)])
def test_an_overflowing_relaxed_step_falls_back_to_the_power_mean(monkeypatch, lo, hi, t, solver):
    # near t = 1 the step's power b = 1/(1-t) overflows on P's spectrum: the
    # step raises NumericalError, with no numpy warning (a RuntimeWarning
    # fails any test here, see pyproject.toml), and either solver starts at P
    import sandwich_opt.barycenter as bc

    mats = [random_spd(8, lo, hi, derive_seed(5, "z", j)) for j in range(4)]
    p = barycenter_problem(mats, np.ones(4), t)
    raised, step = [], bc._relaxed_step

    def spied(*args):
        try:
            return step(*args)
        except NumericalError as exc:
            raised.append(str(exc))
            raise

    monkeypatch.setattr(bc, "_relaxed_step", spied)
    rep = solver(p, trace=True)
    assert len(raised) == 1 and "not finite on the spectrum" in raised[0]
    assert rep.termination == "gradient_tol"
    assert np.array_equal(rep.iterates[0], project_box(_package_power_mean(p), p.alpha, p.beta))


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(
    log_scales=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
    data=st.data(),
    n=st.integers(1, 4),
    t=st.floats(0.1, 0.9),
    aligned=st.booleans(),
    seed=st.integers(0, 2**32 - 2),
)
def test_the_minimizer_lies_in_the_power_mean_box(log_scales, data, n, t, aligned, seed):
    # each marginal on its own scale s_j: spectrum in [s_j, 3 s_j]; aligned
    # marginals share one eigenbasis, ordered alike, so X* attains both ends
    m = len(log_scales)
    mats = [random_spd(n, 10.0 ** s, 3 * 10.0 ** s, derive_seed(seed, "pmbox", j))
            for j, s in enumerate(log_scales)]
    if aligned:
        Q = np.linalg.eigh(random_spd(n, 1.0, 2.0, derive_seed(seed, "pmbasis")))[1]
        mats = [(Q * np.linalg.eigvalsh(A)) @ Q.conj().T for A in mats]
    w = 10.0 ** np.array(data.draw(st.lists(st.floats(-2.0, 0.0), min_size=m, max_size=m)))
    box = barycenter_problem(mats, w, t)
    # solved on the marginals' spectral hull, from its midpoint, by the fixed
    # point, which never projects: nothing holds the iterates in [alpha', beta']
    lo = min(np.linalg.eigvalsh(A)[0] for A in mats)
    hi = max(np.linalg.eigvalsh(A)[-1] for A in mats)
    p = barycenter_problem(mats, w, t, alpha=lo, beta=hi)
    rep = solve_fixed_point(p, grad_tol=1e-12, max_iters=5000, x0=(lo + hi) / 2.0 * np.eye(n))
    assert rep.termination == "gradient_tol"
    spec = np.linalg.eigvalsh(rep.minimizer)
    slack = rep.error_bound + BOX_RTOL * box.beta  # Weyl: |lam_i(X) - lam_i(X*)| <= ||X - X*||
    assert box.alpha - slack <= spec[0] and spec[-1] <= box.beta + slack
    if aligned:
        assert abs(spec[0] - box.alpha) <= slack and abs(spec[-1] - box.beta) <= slack


def test_a_box_that_holds_the_power_mean_box_but_not_the_marginals_is_accepted():
    mats = [s * random_spd(4, 1.0, 2.0, derive_seed(906, "tb", j)) for j, s in enumerate((1, 2, 5, 10))]
    default = barycenter_problem(mats, np.ones(4), 0.3)
    alpha, beta = 0.9 * default.alpha, 1.1 * default.beta
    assert min(np.linalg.eigvalsh(A)[0] for A in mats) < alpha
    assert max(np.linalg.eigvalsh(A)[-1] for A in mats) > beta
    wider = barycenter_problem(mats, np.ones(4), 0.3, alpha=alpha, beta=beta)
    assert (wider.alpha, wider.beta) == (alpha, beta)
    gp, gp_default = solve_gradient_projection(wider), solve_gradient_projection(default)
    assert gp.termination == gp_default.termination == "gradient_tol"
    assert np.linalg.norm(gp.minimizer - gp_default.minimizer) <= gp.error_bound + gp_default.error_bound


@pytest.mark.parametrize("scale", [(1.01, 1.0), (1.0, 0.99)], ids=["alpha", "beta"])
def test_a_box_that_misses_the_power_mean_box_is_invalid(scale):
    mats = [s * random_spd(4, 1.0, 2.0, derive_seed(906, "tb", j)) for j, s in enumerate((1, 2, 5))]
    p = barycenter_problem(mats, [1.0, 2.0, 3.0], 0.6)
    with pytest.raises(InvalidBox, match=r"the box \[.*\] misses the power-mean box \[.*\]"):
        barycenter_problem(mats, [1.0, 2.0, 3.0], 0.6, alpha=scale[0] * p.alpha, beta=scale[1] * p.beta)


def test_gradient_projection_iterates_stay_in_box_and_descend():
    p = random_problem(8)
    rep = solve_gradient_projection(p, trace=True)
    slack = 1e-10 * p.beta
    values = []
    for X in rep.iterates:
        w = np.linalg.eigvalsh(X)
        assert w[0] >= p.alpha - slack and w[-1] <= p.beta + slack
        values.append(objective(p, X))
    for v1, v2 in zip(values[:-1], values[1:]):
        assert v2 <= v1 + 1e-12 * max(1.0, abs(v1))


def test_gradient_projection_error_bound_certifies_distance():
    p = random_problem(9)
    ref = solve_fixed_point(p, grad_tol=1e-13, max_iters=10_000)
    rep = solve_gradient_projection(p, trace=True)
    assert np.linalg.norm(rep.minimizer - ref.minimizer) <= rep.error_bound * (1 + 1e-6)
    a_star = rep.alpha_star
    for gn, X in zip(rep.grad_norms, rep.iterates):
        assert np.linalg.norm(X - ref.minimizer) <= gn / a_star * (1.0 + 1e-6)


def test_gradient_projection_geometric_contraction():
    p = random_problem(10)
    ref = solve_fixed_point(p, grad_tol=1e-13, max_iters=10_000)
    rep = solve_gradient_projection(p, trace=True)
    d0 = np.linalg.norm(rep.iterates[0] - ref.minimizer)
    dists = []
    for k, X in zip(rep.history_indices, rep.iterates):
        dist = np.linalg.norm(X - ref.minimizer)
        assert dist <= rep.q**k * d0 * (1.0 + 1e-6)
        dists.append(dist)
    # observed per-step ratios are recorded for inspection, not asserted
    ratios = [b / a for a, b in zip(dists[:-1], dists[1:]) if a > 1e-13]
    print(f"per-step contraction: max {max(ratios):.4f} vs certified q {rep.q:.4f}")


def test_gradient_projection_start_validation():
    p = random_problem(11)
    with pytest.raises(InvalidStart):
        solve_gradient_projection(p, x0=10.0 * np.eye(4))
    for solver in (solve_gradient_projection, solve_fixed_point):
        with pytest.raises(InvalidStart, match=r"x0 must have shape \(4, 4\)"):
            solver(p, x0=np.eye(3))
        with pytest.raises(InvalidStart, match="x0 has non-finite entries"):
            solver(p, x0=np.full((4, 4), np.inf))
    with pytest.raises(InvalidStepSize):
        solve_gradient_projection(p, eta=100.0)


def test_gradient_projection_max_iters_termination():
    p = random_problem(12)
    rep = solve_gradient_projection(p, max_iters=3)
    assert rep.termination == "max_iters"
    assert rep.iterations == 3
    assert all(np.isfinite(g) for g in rep.grad_norms)


@pytest.mark.parametrize("solver", [solve_gradient_projection, solve_fixed_point])
@pytest.mark.parametrize("name,value", [
    ("grad_tol", float("nan")), ("grad_tol", -1.0), ("grad_tol", float("inf")),
    ("grad_tol", "1e-8"), ("max_iters", -3), ("max_iters", 2.5), ("max_iters", True),
])
def test_solvers_reject_bad_stopping_parameters(solver, name, value):
    # a NaN or negative tolerance is never met: the run went on to the
    # iteration cap, and max_iters = -3 returned after 0 steps as "max_iters"
    with pytest.raises(InvalidInput, match=name):
        solver(random_problem(14), **{name: value})


@pytest.mark.parametrize("call,name", [
    (lambda p: solve_gradient_projection(p, grad_tol=True), "grad_tol"),
    (lambda p: solve_gradient_projection(p, grad_tol=False), "grad_tol"),
    (lambda p: solve_fixed_point(p, grad_tol=True), "grad_tol"),
    (lambda p: solve_gradient_projection(p, eta=True), "eta"),
    (lambda p: certified_rate(p, True), "eta"),
])
def test_solvers_reject_bool_tolerances_and_step_sizes(call, name):
    # True read as 1.0: grad_tol=True returned the start after 0
    # steps as "gradient_tol", and eta=True ran with eta = 1
    with pytest.raises(InvalidInput, match=f"{name} = (True|False)"):
        call(random_problem(14))


@pytest.mark.parametrize("fn", [objective, objective_gradient, fixed_point_map])
def test_point_of_the_wrong_size_or_non_finite_names_x(fn):
    # X was checked only through each marginal's call, whose message named
    # that call's arguments ("B has shape (3, 3), but A has shape (4, 4)")
    p = random_problem(15)
    with pytest.raises(InvalidInput, match=r"X must have shape \(4, 4\), got \(3, 3\)"):
        fn(p, np.eye(3))
    with pytest.raises(InvalidInput, match=r"X must have shape \(4, 4\), got \(4,\)"):
        fn(p, np.ones(4))
    X = 2.0 * np.eye(4)
    X[1, 2] = np.nan
    with pytest.raises(InvalidInput, match="X has non-finite entries"):
        fn(p, X)


def _count_argument_checks(monkeypatch):
    from sandwich_opt import entropy, linalg

    return _count_checks(monkeypatch, (linalg.check_matrices, entropy.check_unit_t))


def _count_checks(monkeypatch, fns):
    # every module binding of each function, so that a call through any of
    # them is counted
    import sandwich_opt

    calls = []
    for fn in fns:
        def counted(*args, _fn=fn, **kwargs):
            calls.append(_fn.__name__)
            return _fn(*args, **kwargs)

        for module in vars(sandwich_opt).values():
            if getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counted)
    return calls


@pytest.mark.parametrize("solver", [solve_gradient_projection, solve_fixed_point])
def test_solve_argument_checks_do_not_grow_with_iterations(monkeypatch, solver):
    # the problem and x0 are checked once per solve; no step re-checks t or a
    # marginal
    p = random_problem(17)
    x0 = random_spd(4, 1.5, 3.5, 18)
    counts = []
    for iters in (3, 30):
        calls = _count_argument_checks(monkeypatch)
        rep = solver(p, grad_tol=0.0, max_iters=iters, x0=x0)
        monkeypatch.undo()
        assert rep.iterations == iters
        counts.append(sorted(calls))
    # certified_rate checks t and _start x0 once per solve
    assert counts[0] == counts[1] == ["check_matrices", "check_unit_t"]


@pytest.mark.parametrize("solver", [solve_gradient_projection, solve_fixed_point])
def test_solve_box_and_matrix_checks_do_not_grow_with_iterations(monkeypatch, solver):
    # the box and x0 are checked where they enter: certified_rate's box, and
    # x0 once in the start, whose projection re-checks neither; an in-box
    # gradient step is certified by its two Cholesky factorizations alone,
    # and no step re-checks the box, an iterate or a sandwich before its eigh
    from sandwich_opt import linalg

    p = random_problem(17)
    p._bases  # the marginals are decomposed, each checked, once per problem
    x0 = random_spd(4, 1.5, 3.5, 18)
    counts = []
    for iters in (3, 30):
        calls = _count_checks(monkeypatch, (linalg.check_box, linalg._finite_hermitian))
        rep = solver(p, grad_tol=0.0, max_iters=iters, x0=x0)
        monkeypatch.undo()
        assert rep.iterations == iters
        counts.append(sorted(calls))
    assert counts[0] == counts[1] == ["check_box"]


def test_fixed_point_single_marginal():
    A = random_spd(4, 1.0, 3.0, 13)
    p = barycenter_problem([A], [1.0], 0.5)
    assert np.linalg.norm(fixed_point_map(p, A) - A) <= 1e-12
    rep = solve_fixed_point(p, grad_tol=1e-12)
    assert rep.termination == "gradient_tol"
    assert np.linalg.norm(rep.minimizer - A) <= 1e-10


def test_fixed_point_scalar_closed_form():
    p = barycenter_problem(
        [np.array([[1.0]]), np.array([[4.0]])], [0.5, 0.5], 0.5, alpha=1.0, beta=4.0
    )
    rep = solve_fixed_point(p, grad_tol=1e-14)
    assert abs(rep.minimizer[0, 0].real - 2.25) <= 1e-12


def test_fixed_point_stationarity_of_result():
    # X - F(X) = X^{1/2} grad phi_t(X) X^{1/2} / t, so the gradient rule bounds
    # the residual by lam_max(X) ||grad phi_t(X)||_F / t
    p = random_problem(14)
    grad_tol = 1e-11
    rep = solve_fixed_point(p, grad_tol=grad_tol)
    assert rep.termination == "gradient_tol"
    gn = np.linalg.norm(objective_gradient(p, rep.minimizer))
    assert gn <= grad_tol
    lam_max = np.linalg.eigvalsh(rep.minimizer)[-1]
    assert rep.fixed_point_residual <= lam_max * gn / p.t


def test_fixed_point_stops_on_the_gradient_rule_at_small_t():
    # t = 0.1, n = 16, m = 5 on [1, 4]: the residual ||X - F(X)|| has a
    # rounding floor of 2e-12 to 4e-12 here, so a residual stop at 1e-12 is
    # never met; the gradient rule holds after 14-15 steps
    for s in range(2):
        mats = [random_spd(16, 1.0, 4.0, derive_seed(s, "fp-floor", j)) for j in range(5)]
        p = barycenter_problem(mats, np.ones(5), 0.1, alpha=1.0, beta=4.0)
        rep = solve_fixed_point(p, max_iters=200)
        assert rep.termination == "gradient_tol" and rep.iterations <= 30


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    m=st.integers(1, 4),
    n=st.integers(1, 6),
    t=st.floats(0.2, 0.9),
    seed=st.integers(0, 2**32 - 2),
)
def test_both_solvers_stop_on_one_certified_rule(m, n, t, seed):
    # t >= 0.2 on [1, 4]: at t = 0.1 on wide boxes the computed gradient has a
    # rounding floor above the default tolerance (ROADMAP item 14)
    mats = [random_spd(n, 1.0, 4.0, derive_seed(seed, "marg", j)) for j in range(m)]
    p = barycenter_problem(mats, np.arange(1.0, m + 1.0), t, alpha=1.0, beta=4.0)
    gp, fp = solve_gradient_projection(p), solve_fixed_point(p)
    for rep in (gp, fp):
        assert rep.termination == "gradient_tol"
        # every iterate is exactly Hermitian, so the gradient is recomputed bit for bit
        assert rep.grad_norms[-1] == np.linalg.norm(objective_gradient(p, rep.minimizer))
    assert np.linalg.norm(gp.minimizer - fp.minimizer) <= gp.error_bound + fp.error_bound


def test_solvers_agree():
    for pid in (15, 16, 17):
        p = random_problem(pid, t=(0.3, 0.5, 0.7)[pid - 15])
        gp = solve_gradient_projection(p)
        fp = solve_fixed_point(p, grad_tol=1e-12)
        tol = max(1e-7, 10.0 * 1e-10 * p.t * p.n / gp.alpha_star)
        assert np.linalg.norm(gp.minimizer - fp.minimizer) <= tol


def test_stationarity_equivalence_both_directions():
    p = random_problem(18)
    gp = solve_gradient_projection(p)
    # gradient ~ 0 at the gp minimizer implies a small fixed-point residual
    assert gp.fixed_point_residual <= 10.0 * gp.error_bound
    # a small fixed-point residual implies a small gradient:
    # grad phi_t(X) = t X^{-1/2} (X - F(X)) X^{-1/2}, so
    # ||grad phi_t(X)||_F <= t ||X - F(X)||_F / lam_min(X), at every iterate
    fp = solve_fixed_point(p, grad_tol=1e-12, trace=True)
    for X in fp.iterates:
        res = np.linalg.norm(X - fixed_point_map(p, X))
        bound = p.t * res / np.linalg.eigvalsh(X)[0]
        assert np.linalg.norm(objective_gradient(p, X)) <= bound * (1.0 + 1e-6)
    X = fp.minimizer
    bound = p.t * fp.fixed_point_residual / np.linalg.eigvalsh(X)[0]
    assert np.linalg.norm(objective_gradient(p, X)) <= bound * (1.0 + 1e-6)


def test_fixed_point_iterates_stay_in_box():
    p = random_problem(20)
    rep = solve_fixed_point(p, grad_tol=1e-11, trace=True)
    slack = 1e-10 * p.beta
    for X in rep.iterates:
        w = np.linalg.eigvalsh(X)
        assert w[0] >= p.alpha - slack and w[-1] <= p.beta + slack


def test_fixed_point_divergence_safeguard(monkeypatch):
    import sandwich_opt.barycenter as bc

    p = random_problem(21)
    monkeypatch.setattr(bc, "_fixed_point_from_sum", lambda X, S: 1.5 * X + np.eye(X.shape[0]))
    rep = bc.solve_fixed_point(p, grad_tol=1e-12, max_iters=1000)
    assert rep.termination == "residual_growth"
    assert rep.iterations < 1000  # the 10-increase safeguard stopped the run


def test_termination_precedence(monkeypatch, caplog):
    # gradient_tol beats max_iters, and max_iters beats the safeguard: under
    # the diverging map the 10th consecutive increase comes at iterate 10
    import sandwich_opt.barycenter as bc

    p = random_problem(21)
    monkeypatch.setattr(bc, "_fixed_point_from_sum", lambda X, S: 1.5 * X + np.eye(X.shape[0]))
    with caplog.at_level("WARNING", logger="sandwich_opt.barycenter"):
        rep = bc.solve_fixed_point(p, grad_tol=1e-12, max_iters=10)
    assert (rep.termination, rep.iterations) == ("max_iters", 10)
    assert caplog.records == []
    with caplog.at_level("WARNING", logger="sandwich_opt.barycenter"):
        rep = bc.solve_fixed_point(p, grad_tol=1e-12, max_iters=11)
    assert (rep.termination, rep.iterations) == ("residual_growth", 10)
    assert [r.levelname for r in caplog.records] == ["WARNING"]
    rep = solve_gradient_projection(p, grad_tol=1e9, max_iters=0)
    assert (rep.termination, rep.iterations) == ("gradient_tol", 0)


@pytest.mark.parametrize("solver", [solve_gradient_projection, solve_fixed_point])
def test_history_keeps_the_final_iterate_beyond_cap(monkeypatch, solver):
    # past the cap only every 10th iterate is kept, and the last one always
    import sandwich_opt.barycenter as bc

    monkeypatch.setattr(bc, "HISTORY_CAP", 5)
    rep = solver(random_problem(25), grad_tol=0.0, max_iters=23)
    assert rep.termination == "max_iters"
    assert rep.history_indices == [0, 1, 2, 3, 4, 10, 20, 23]
    assert len(rep.grad_norms) == len(rep.history_indices)


def _real_or_complex(M, real):
    # the real part of a Hermitian positive definite matrix is real symmetric
    # positive definite, with its spectrum inside the original one
    return M.real if real else M


@pytest.mark.parametrize("t", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("n", [1, 3, 5])
@pytest.mark.parametrize("m", [1, 3])
def test_fixed_point_map_matches_direct_formula(m, n, real, t):
    mats = [_real_or_complex(random_spd(n, 1.0, 4.0, derive_seed(9100, "fp", m, n, j)), real)
            for j in range(m)]
    p = barycenter_problem(mats, np.arange(1.0, m + 1.0), t, alpha=1.0, beta=4.0)
    X = _real_or_complex(random_spd(n, 1.0, 4.0, derive_seed(9100, "x", m, n)), real)
    ref = fixed_point_map_oracle(p, X)
    assert np.linalg.norm(fixed_point_map(p, X) - ref) <= 1e-12 * np.linalg.norm(ref)
    ref = objective_gradient_oracle(p, X)
    assert np.linalg.norm(objective_gradient(p, X) - ref) <= 1e-12 * np.linalg.norm(ref)


def test_lost_positivity_raises_a_typed_error():
    # X is Hermitian but not positive definite, so no sandwich
    # A_j^{(1-t)/2t} X A_j^{(1-t)/2t} is either
    n, t = 4, 0.3
    mats = [random_spd(n, 1.0, 4.0, derive_seed(7, n, j)) for j in range(3)]
    p = barycenter_problem(mats, np.ones(3), t, alpha=1.0, beta=4.0)
    X = np.diag([1.0, -0.5, 2.0, 3.0])
    with pytest.raises(NumericalError, match="lost positivity"):
        objective_gradient(p, X)
    with pytest.raises(NumericalError, match="lost positivity"):
        fixed_point_map(p, X)


@pytest.mark.parametrize("n,t", [(4, 0.02), (9, 0.03)])
def test_objective_gradient_matches_mpmath_at_small_t(n, t):
    # the sandwiches span about cond(A_j)^{(1-t)/t}; formed as the product of
    # the full A_j^{(1-t)/2t} with X, the gradient was 4.0% off at n = 4 and
    # raised "lost positivity" at n = 9. Measured 4.2e-15 (n = 4) and 1.6e-13
    # (n = 9) relative against 80 digits
    mats = [random_spd(n, 1.0, 4.0, derive_seed(7, n, j)) for j in range(3)]
    p = barycenter_problem(mats, np.ones(3), t, alpha=1.0, beta=4.0)
    X = 2.5 * np.eye(n)
    ref = t * np.eye(n) - sum(w * mp_gradient(A, X, t) for w, A in zip(p.weights, p.matrices))
    assert np.linalg.norm(objective_gradient(p, X) - ref) <= 1e-12 * np.linalg.norm(ref)


def _count_calls(monkeypatch, name="eigh"):
    calls = []
    fn = getattr(np.linalg, name)
    monkeypatch.setattr(np.linalg, name, lambda *a, **k: calls.append(1) or fn(*a, **k))
    return calls


def _assert_well_inside_box(X, p):
    # at least 1e-6 beta inside [alpha I, beta I]: far beyond rounding, so the
    # Cholesky verdict of project_box, and with it each count, does not depend
    # on the BLAS kernel
    w = np.linalg.eigvalsh(X)
    margin = 1e-6 * p.beta
    assert p.alpha + margin <= w[0] and w[-1] <= p.beta - margin


def test_fixed_point_step_eigh_count(monkeypatch):
    # each marginal is decomposed once per problem, for its graded basis; a
    # step then takes one eigh per marginal (its graded sandwich), plus
    # X^{1/2} for a fixed-point step; a gradient step adds the box
    # projection, which takes two Cholesky factorizations and no eigh when
    # the step stays in the box
    import sandwich_opt.barycenter as bc

    m = 3
    p = random_problem(22, m=m)
    X = random_spd(4, 1.0, 4.0, 23)
    calls = _count_calls(monkeypatch)
    choleskys = _count_calls(monkeypatch, "cholesky")
    fixed_point_map(p, X)
    assert len(calls) == m + (m + 1)
    calls.clear()
    fixed_point_map(p, X)
    assert len(calls) == m + 1
    calls.clear()
    G = bc._gradient_and_sum(p, X)[0]
    step = X - G / certified_rate(p)[1]
    project_box(step, p.alpha, p.beta)
    assert len(calls) == m and len(choleskys) == 2
    _assert_well_inside_box(step, p)
    calls.clear()
    rep = bc.solve_fixed_point(random_problem(22, m=m), grad_tol=1e-12, max_iters=3)
    assert rep.iterations == 3
    # the marginals, the start (P's outer power 1/(1-t), S at P, F(P) and S
    # at the relaxed step: m + 1 + m + 1), then m + 1 per iterate, the
    # chosen start's S read once
    assert len(calls) == m + 1 + (m + 1) + (rep.iterations + 1) * (m + 1)


@pytest.mark.parametrize("iters", [0, 3])
def test_gradient_projection_solve_eigh_count(monkeypatch, iters):
    # the m marginals once (for the factors P_j and the start's A_j^{1-t}),
    # the power mean's outer power 1/(1-t), S at the power mean (m), the
    # relaxed step's F(P) (one; P^{1/2} and P^{-a} come from P's
    # decomposition), S at the step (m), S(X) at each of the k later iterates
    # (m each; the chosen start's S is the loop's first), and X^{1/2} for the
    # final fixed-point residual, which reuses the last S(X); the power
    # mean's projection, the step's and the k steps' each certify an in-box
    # point by two Cholesky factorizations and take no eigh
    m = 3
    p = random_problem(24, m=m)
    calls = _count_calls(monkeypatch)
    choleskys = _count_calls(monkeypatch, "cholesky")
    rep = solve_gradient_projection(p, grad_tol=0.0, max_iters=iters, trace=True)
    k = rep.iterations
    assert k == iters
    assert len(calls) == 3 * m + 3 + m * k
    assert len(choleskys) == 2 * (k + 2)
    # a projection's output is its input when that lies in the box, and has an
    # eigenvalue at alpha or beta when it does not; the start is the relaxed
    # step, which lies well inside the box too
    assert len(rep.iterates) == k + 1
    assert not np.array_equal(rep.iterates[0], _package_power_mean(p))
    _assert_well_inside_box(power_mean_oracle(p), p)
    for X in rep.iterates:
        _assert_well_inside_box(X, p)


@pytest.mark.parametrize("solver", [solve_gradient_projection, solve_fixed_point])
def test_a_user_start_adds_no_eigh(monkeypatch, solver):
    # from x0, neither solver forms the power mean nor the relaxed step:
    # m + 2 eigh (P, F(P), S at the point not chosen) and 2 Cholesky (the
    # step's projection) fewer than the default start. GP takes the m
    # marginals, S(X) at the k + 1 iterates and X^{1/2} for the residual,
    # and two Cholesky for x0's projection and each in-box step; the fixed
    # point takes S(X) and X^{1/2} at each iterate, and two Cholesky for x0's
    m, iters = 3, 3
    if solver is solve_gradient_projection:
        from_x0 = (m + m * (iters + 1) + 1, 2 * (iters + 1))
    else:
        from_x0 = (m + (m + 1) * (iters + 1), 2)
    counts = []
    for x0 in (random_spd(4, 1.5, 3.5, 25), None):
        p = random_problem(24, m=m)
        calls = _count_calls(monkeypatch)
        choleskys = _count_calls(monkeypatch, "cholesky")
        rep = solver(p, grad_tol=0.0, max_iters=iters, x0=x0)
        monkeypatch.undo()
        assert rep.iterations == iters
        counts.append((len(calls), len(choleskys)))
    assert counts[0] == from_x0
    assert counts[1] == (counts[0][0] + m + 2, counts[0][1] + 2)


@pytest.mark.parametrize("solver", [solve_gradient_projection, solve_fixed_point])
def test_a_start_just_outside_the_box_is_projected(solver):
    # an x0 whose spectrum overshoots [alpha, beta] at both ends by less than
    # the slack BOX_RTOL beta is accepted, and either solver starts at its
    # projection, which lies in the box
    p = random_problem(27)
    slack = 0.5 * BOX_RTOL * p.beta
    Q = np.linalg.qr(random_spd(4, 1.0, 2.0, 28))[0]
    x0 = (Q * [p.alpha - slack, 2.0, 3.0, p.beta + slack]) @ Q.conj().T
    w0 = np.linalg.eigvalsh(x0)
    assert w0[0] < p.alpha and w0[-1] > p.beta
    rep = solver(p, max_iters=0, x0=x0, trace=True)
    X = rep.iterates[0]
    assert np.array_equal(X, project_box(x0, p.alpha, p.beta))
    w = np.linalg.eigvalsh(X)
    assert p.alpha - 1e-14 * p.beta <= w[0] and w[-1] <= p.beta + 1e-14 * p.beta


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    m=st.integers(1, 4),
    n=st.integers(1, 5),
    t=st.floats(0.02, 0.9),
    real=st.booleans(),
    seed=st.integers(0, 2**32 - 2),
)
def test_mean_sum_is_the_weighted_gradient_of_each_marginal(m, n, t, real, seed):
    # the cached graded bases (a_j^{(1-t)/2t}, U_j) of the sandwiches are
    # formed exactly as gradient_f forms its own, so S(X) keeps every bit of
    # the per-marginal sum
    import sandwich_opt.barycenter as bc

    mats = [_real_or_complex(random_spd(n, 1.0, 4.0, derive_seed(seed, "marg", j)), real)
            for j in range(m)]
    p = barycenter_problem(mats, np.arange(1.0, m + 1.0), t, alpha=1.0, beta=4.0)
    X = _real_or_complex(random_spd(n, 1.0, 4.0, derive_seed(seed, "x")), real)
    expected = sum(w * gradient_f(A, X, p.t) for w, A in zip(p.weights, p.matrices)) / p.t
    assert np.array_equal(bc._mean_sum(p, X), expected)
    assert np.array_equal(bc._mean_sum(p, X), expected)  # and again from the cache


def test_solved_problem_and_its_factors_are_freed():
    # the decompositions and the graded bases of the sandwiches live on the
    # problem, so no module state keeps a solved problem alive
    p = random_problem(26)
    solve_gradient_projection(p, max_iters=3)
    solve_fixed_point(p, max_iters=3)
    assert "_decompositions" in vars(p) and "_bases" in vars(p)
    assert len(p._decompositions) == p.m
    ref = weakref.ref(p)
    del p
    gc.collect()
    assert ref() is None


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(
    log_w=st.lists(st.floats(-12.0, 0.0), min_size=1, max_size=4),
    n=st.integers(1, 5),
    t=st.floats(0.1, 0.9),
    seed=st.integers(0, 2**32 - 2),
)
def test_fixed_point_map_is_gradient_sandwich(log_w, n, t, seed):
    # F(X) = X^{1/2} (I - grad phi_t(X) / t) X^{1/2}, weights spanning 1e-12..1
    mats = [random_spd(n, 1.0, 4.0, derive_seed(seed, "marg", j)) for j in range(len(log_w))]
    p = barycenter_problem(mats, 10.0 ** np.array(log_w), t, alpha=1.0, beta=4.0)
    X = random_spd(n, 1.0, 4.0, derive_seed(seed, "x"))
    Xh = matrix_power(X, 0.5)
    expected = Xh @ (np.eye(n) - objective_gradient(p, X) / p.t) @ Xh
    F = fixed_point_map(p, X)
    assert np.linalg.norm(F - expected) <= 1e-12 * np.linalg.norm(F)
    # the direct formula's A_j^{(1-t)/t} spans up to 4^9 at t = 0.1, so it
    # agrees to about 3e-12 there and to 5e-15 on [0.2, 0.8]
    assert np.linalg.norm(F - fixed_point_map_oracle(p, X)) <= 1e-11 * np.linalg.norm(F)


def test_fixed_point_default_tolerance():
    # grad_tol=None means 1e-10 t n, as it does for gradient projection
    p = random_problem(19)
    default = solve_fixed_point(p)
    explicit = solve_fixed_point(p, grad_tol=1e-10 * p.t * p.n)
    assert default.termination == explicit.termination == "gradient_tol"
    assert default.iterations == explicit.iterations
    assert np.array_equal(default.minimizer, explicit.minimizer)


def test_fixed_point_reports_match_problem_constants():
    p = random_problem(19)
    a_star, b_star, _ = certified_rate(p)
    rep = solve_fixed_point(p, grad_tol=1e-10)
    assert rep.alpha_star == a_star
    assert rep.beta_star == b_star
    assert rep.q is None and rep.eta is None


def test_history_thinning_beyond_cap():
    h = _History(trace=False)
    for k in range(10_050):
        h.record(k, float(k), None if False else np.eye(1))
    assert len(h.indices) == 10_005
    assert h.indices[-1] == 10_040
    assert all(k % 10 == 0 for k in h.indices[10_000:])
