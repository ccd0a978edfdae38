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
    matrix_power,
    objective,
    objective_gradient,
    random_spd,
    solve_fixed_point,
    solve_gradient_projection,
)
from sandwich_opt.barycenter import _History

from oracles import fd_gradient, fixed_point_map_oracle, objective_gradient_oracle


def random_problem(pid, n=4, m=3, t=0.5, lo=1.0, hi=4.0):
    mats = [random_spd(n, lo, hi, derive_seed(9000 + pid, "marg", j)) for j in range(m)]
    return barycenter_problem(mats, np.ones(m), t, alpha=lo, beta=hi)


def test_problem_normalizes_weights_and_defaults_box():
    mats = [random_spd(3, 1.0, 2.0, 1), random_spd(3, 1.5, 3.0, 2)]
    p = barycenter_problem(mats, [2.0, 6.0], 0.5)
    assert np.allclose(p.weights, [0.25, 0.75])
    assert np.isclose(np.sum(p.weights), 1.0, atol=1e-12)
    lo = min(np.linalg.eigvalsh(M)[0] for M in mats)
    hi = max(np.linalg.eigvalsh(M)[-1] for M in mats)
    assert np.isclose(p.alpha, lo) and np.isclose(p.beta, hi)


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
    ref = solve_fixed_point(p, tol=1e-13, max_iters=10_000)
    rep = solve_gradient_projection(p, trace=True)
    assert np.linalg.norm(rep.minimizer - ref.minimizer) <= rep.error_bound * (1 + 1e-6)
    a_star = rep.alpha_star
    for gn, X in zip(rep.grad_norms, rep.iterates):
        assert np.linalg.norm(X - ref.minimizer) <= gn / a_star * (1.0 + 1e-6)


def test_gradient_projection_geometric_contraction():
    p = random_problem(10)
    ref = solve_fixed_point(p, tol=1e-13, max_iters=10_000)
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


@pytest.mark.parametrize("solver,field", [(solve_gradient_projection, "grad_tol"),
                                          (solve_fixed_point, "tol")])
@pytest.mark.parametrize("name,value", [
    ("tol", float("nan")), ("tol", -1.0), ("tol", float("inf")), ("tol", "1e-8"),
    ("max_iters", -3), ("max_iters", 2.5), ("max_iters", True),
])
def test_solvers_reject_bad_stopping_parameters(solver, field, name, value):
    # a NaN or negative tolerance is never met: the run went on to the
    # iteration cap, and max_iters = -3 returned after 0 steps as "max_iters"
    name = field if name == "tol" else name
    with pytest.raises(InvalidInput, match=name):
        solver(random_problem(14), **{name: value})


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
    # every module binding of check_matrices and check_unit_t, so that a call
    # through any of them is counted
    import sandwich_opt
    from sandwich_opt import entropy, linalg

    calls = []
    for fn in (linalg.check_matrices, entropy.check_unit_t):
        def counted(*args, _fn=fn, **kwargs):
            calls.append(_fn.__name__)
            return _fn(*args, **kwargs)

        for module in vars(sandwich_opt).values():
            if getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counted)
    return calls


@pytest.mark.parametrize("solver,tol", [(solve_gradient_projection, "grad_tol"),
                                        (solve_fixed_point, "tol")])
def test_solve_argument_checks_do_not_grow_with_iterations(monkeypatch, solver, tol):
    # the problem and x0 are checked once per solve; no step re-checks t or a
    # marginal
    p = random_problem(17)
    x0 = random_spd(4, 1.5, 3.5, 18)
    counts = []
    for iters in (3, 30):
        calls = _count_argument_checks(monkeypatch)
        rep = solver(p, max_iters=iters, x0=x0, **{tol: 0.0})
        monkeypatch.undo()
        assert rep.iterations == iters
        counts.append(sorted(calls))
    # certified_rate checks t once per solve
    assert counts[0] == counts[1] == ["check_unit_t"]


def test_fixed_point_single_marginal():
    A = random_spd(4, 1.0, 3.0, 13)
    p = barycenter_problem([A], [1.0], 0.5)
    assert np.linalg.norm(fixed_point_map(p, A) - A) <= 1e-12
    rep = solve_fixed_point(p, tol=1e-12)
    assert rep.termination == "gradient_tol"
    assert np.linalg.norm(rep.minimizer - A) <= 1e-10


def test_fixed_point_scalar_closed_form():
    p = barycenter_problem(
        [np.array([[1.0]]), np.array([[4.0]])], [0.5, 0.5], 0.5, alpha=1.0, beta=4.0
    )
    rep = solve_fixed_point(p, tol=1e-14)
    assert abs(rep.minimizer[0, 0].real - 2.25) <= 1e-12


def test_fixed_point_stationarity_of_result():
    p = random_problem(14)
    tol = 1e-11
    rep = solve_fixed_point(p, tol=tol)
    g = objective_gradient(p, rep.minimizer)
    assert np.linalg.norm(g) <= 10.0 * tol * p.t
    assert rep.fixed_point_residual <= tol


def test_solvers_agree():
    for pid in (15, 16, 17):
        p = random_problem(pid, t=(0.3, 0.5, 0.7)[pid - 15])
        gp = solve_gradient_projection(p)
        fp = solve_fixed_point(p, tol=1e-12)
        tol = max(1e-7, 10.0 * 1e-10 * p.t * p.n / gp.alpha_star)
        assert np.linalg.norm(gp.minimizer - fp.minimizer) <= tol


def test_stationarity_equivalence_both_directions():
    p = random_problem(18)
    gp = solve_gradient_projection(p)
    # gradient ~ 0 at the gp minimizer implies a small fixed-point residual
    assert gp.fixed_point_residual <= 10.0 * gp.error_bound
    fp = solve_fixed_point(p, tol=1e-12)
    assert np.linalg.norm(objective_gradient(p, fp.minimizer)) <= 10.0 * 1e-12 * p.t


def test_fixed_point_iterates_stay_in_box():
    p = random_problem(20)
    rep = solve_fixed_point(p, tol=1e-11, trace=True)
    slack = 1e-10 * p.beta
    for X in rep.iterates:
        w = np.linalg.eigvalsh(X)
        assert w[0] >= p.alpha - slack and w[-1] <= p.beta + slack


def test_fixed_point_divergence_safeguard(monkeypatch):
    import sandwich_opt.barycenter as bc

    p = random_problem(21)
    step = bc._fixed_point_step
    monkeypatch.setattr(
        bc, "_fixed_point_step",
        lambda p, X: (1.5 * X + np.eye(X.shape[0]), step(p, X)[1]),
    )
    rep = bc.solve_fixed_point(p, tol=1e-12, max_iters=1000)
    assert rep.termination == "residual_growth"
    assert rep.iterations < 1000  # the 10-increase safeguard stopped the run


def test_termination_precedence(monkeypatch, caplog):
    # gradient_tol beats max_iters, and max_iters beats the safeguard: under
    # the diverging map the 10th consecutive increase comes at iterate 10
    import sandwich_opt.barycenter as bc

    p = random_problem(21)
    step = bc._fixed_point_step
    monkeypatch.setattr(
        bc, "_fixed_point_step",
        lambda p, X: (1.5 * X + np.eye(X.shape[0]), step(p, X)[1]),
    )
    with caplog.at_level("WARNING", logger="sandwich_opt.barycenter"):
        rep = bc.solve_fixed_point(p, tol=1e-12, max_iters=10)
    assert (rep.termination, rep.iterations) == ("max_iters", 10)
    assert caplog.records == []
    with caplog.at_level("WARNING", logger="sandwich_opt.barycenter"):
        rep = bc.solve_fixed_point(p, tol=1e-12, max_iters=11)
    assert (rep.termination, rep.iterations) == ("residual_growth", 10)
    assert [r.levelname for r in caplog.records] == ["WARNING"]
    rep = solve_gradient_projection(p, grad_tol=1e9, max_iters=0)
    assert (rep.termination, rep.iterations) == ("gradient_tol", 0)


@pytest.mark.parametrize("solver,tol", [(solve_gradient_projection, "grad_tol"),
                                        (solve_fixed_point, "tol")])
def test_history_keeps_the_final_iterate_beyond_cap(monkeypatch, solver, tol):
    # past the cap only every 10th iterate is kept, and the last one always
    import sandwich_opt.barycenter as bc

    monkeypatch.setattr(bc, "HISTORY_CAP", 5)
    rep = solver(random_problem(25), max_iters=23, **{tol: 0.0})
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


def test_small_t_loses_positivity_with_a_typed_error():
    # at n = 9, t = 0.03 the sandwich A_j^{(1-t)/2t} X A_j^{(1-t)/2t} spans
    # about cond(A_j)^{32} and its computed spectrum turns negative
    n, t = 9, 0.03
    mats = [random_spd(n, 1.0, 4.0, derive_seed(7, n, j)) for j in range(3)]
    p = barycenter_problem(mats, np.ones(3), t, alpha=1.0, beta=4.0)
    X = 2.5 * np.eye(n)
    with pytest.raises(NumericalError, match="lost positivity"):
        objective_gradient(p, X)
    with pytest.raises(NumericalError, match="lost positivity"):
        fixed_point_map(p, X)


def test_fixed_point_step_eigh_count(monkeypatch):
    # two eigh per marginal for grad f_j (A_j and its sandwich with X), plus
    # X^{1/2} for a fixed-point step or the box projection for a gradient
    # step; nothing is decomposed once per solve
    import sandwich_opt.barycenter as bc

    m = 3
    p = random_problem(22, m=m)
    X = random_spd(4, 1.0, 4.0, 23)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(1) or eigh(*a, **k))
    bc._fixed_point_step(p, X)
    assert len(calls) == 2 * m + 1
    calls.clear()
    G = bc._gradient(p, X)
    bc.project_box(X - G / certified_rate(p)[1], p.alpha, p.beta)
    assert len(calls) == 2 * m + 1
    calls.clear()
    rep = bc.solve_fixed_point(p, tol=1e-12, max_iters=3)
    assert rep.iterations == 3
    assert len(calls) == (rep.iterations + 1) * (2 * m + 1)


@pytest.mark.parametrize("iters", [0, 3])
def test_gradient_projection_solve_eigh_count(monkeypatch, iters):
    # the start's projection, S(X) at each of the k + 1 iterates (2m each),
    # k box projections, and X^{1/2} for the final fixed-point residual,
    # which reuses the last S(X)
    m = 3
    p = random_problem(24, m=m)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(1) or eigh(*a, **k))
    rep = solve_gradient_projection(p, grad_tol=0.0, max_iters=iters)
    k = rep.iterations
    assert k == iters
    assert len(calls) == 1 + 2 * m * (k + 1) + k + 1


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
    # tol=None means 1e-12, as grad_tol=None means the gradient-projection default
    p = random_problem(19)
    default, explicit = solve_fixed_point(p), solve_fixed_point(p, tol=1e-12)
    assert default.termination == explicit.termination == "gradient_tol"
    assert default.iterations == explicit.iterations
    assert np.array_equal(default.minimizer, explicit.minimizer)


def test_fixed_point_reports_match_problem_constants():
    p = random_problem(19)
    a_star, b_star, _ = certified_rate(p)
    rep = solve_fixed_point(p, tol=1e-10)
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
