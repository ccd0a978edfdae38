"""Entropic barycenter of positive definite matrices.

Minimizes phi_t(X) = sum_j w_j [tr((1-t) A_j + t X) - f_j(X)] with
f_j(X) = tr(A_j^{(1-t)/2t} X A_j^{(1-t)/2t})^t over the spectral box
[alpha I, beta I] by projected gradient descent with a certified linear rate.
The box defaults to the power-mean box [alpha', beta'] of the marginals'
extreme eigenvalues, which holds the minimizer and lies inside their
spectral hull, so its certified rate is no slower (``barycenter_problem``); GP is
cross-validated by a fixed-point iteration on
F(X) = sum_j w_j (X^{1/2} A_j^{(1-t)/t} X^{1/2})^t. A solver is its
certified rate and its step rule ``advance(X, G, S)`` alone: one loop
(``_iterate``) owns the tolerance, the start, the evaluation
(G, S) = (grad phi_t(X), S(X)) at each iterate, the history, the stop rule
||grad phi_t(X)|| <= grad_tol (default 1e-10 t n), the fixed-point residual
and the report.

Both solvers read the one gradient of f, the kernel of ``calculus.gradient_f``:
grad phi_t(X) = t I - sum_j w_j grad f_j(X) = t (I - S(X)) with
S(X) = sum_j w_j grad f_j(X) / t, and F(X) = X^{1/2} S(X) X^{1/2}. Each
A_j = U_j diag(a_j) U_j* is decomposed once, when a problem first needs it
(m eigh per problem), and every function of A_j a solver reads comes from
that decomposition: the sandwich of grad f_j, formed in A_j's eigenbasis as
D_j (U_j* X U_j) D_j, with the scaling D_j = diag(a_j^{(1-t)/2t}) kept on
the problem, and the powers A_j^{1-t} of the power mean
P = (sum_j w_j A_j^{1-t})^{1/(1-t)}, the minimizer when the marginals
commute, which takes one eigh more. Each grad f_j takes one eigh, of that
sandwich, and four products, so S(X) takes m eigh. A fixed-point step adds
one eigh for X^{1/2}: m + 1 per step. A gradient-projection step adds the
box projection, which certifies an in-box X - eta grad phi_t(X) by two
Cholesky factorizations and decomposes only a step that leaves the box: m
eigh and 2 Cholesky per in-box step. Both solvers start at the better of the
projected P and one relaxed fixed-point step from it (``_start``), which
adds m + 1 eigh and 2 Cholesky to P's projection, so a default solve of k
steps that forms the step takes m (k + 3) + 3 eigh and 2 (k + 2) Cholesky
by GP, and 3m + 3 + k (m + 1) eigh and 4 Cholesky by the fixed point. A
point X and the box are checked once where they enter, and no step
re-checks either; every iterate of either solver is exactly Hermitian.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .calculus import convexity_constants
from .entropy import _finite_product, _frame, _frame_power, _graded_basis, _sandwich_trace, check_unit_t
from .errors import InvalidBox, InvalidInput, InvalidStart, InvalidStepSize, NumericalError
from .linalg import (
    SpectralDecomp,
    _check_integer,
    _descending,
    _eigenvalues,
    _eigh,
    _is_finite_number,
    _is_number,
    _project_box,
    _spd_and_spectrum,
    _trace,
    check_box,
    check_matrices,
    power,
    spectral_decompose,
    symmetrize,
)

# Spectral slack, relative to beta, when checking matrices against the box.
BOX_RTOL = 1e-10

# Convergence history cap; beyond this many stored entries, keep every 10th and the last.
HISTORY_CAP = 10_000


@dataclass(frozen=True)
class BarycenterProblem:
    """Marginals A_j, normalized weights w_j, order t, and spectral box.

    The decompositions of the marginals, and the graded bases
    (a_j^{(1-t)/2t}, U_j) of their sandwiches formed from them, are made on
    first use and kept on the instance, so they live exactly as long as the
    problem.
    """

    matrices: tuple
    weights: np.ndarray
    t: float
    alpha: float
    beta: float

    @property
    def n(self) -> int:
        return self.matrices[0].shape[0]

    @property
    def m(self) -> int:
        return len(self.matrices)

    @cached_property
    def _decompositions(self) -> tuple:
        """The ``SpectralDecomp`` of each marginal A_j: m eigh, once."""
        return tuple(spectral_decompose(A) for A in self.matrices)

    @cached_property
    def _bases(self) -> tuple:
        """``entropy._graded_basis`` of each marginal's decomposition at the order t."""
        return tuple(_graded_basis(dec, self.t) for dec in self._decompositions)


def _in_box(lo, hi, alpha, beta):
    """Whether a spectrum [lo, hi] lies in [alpha, beta] up to the slack BOX_RTOL beta."""
    return alpha - BOX_RTOL * beta <= lo and hi <= beta + BOX_RTOL * beta


def barycenter_problem(matrices, weights, t, alpha=None, beta=None) -> BarycenterProblem:
    """Validate and assemble a barycenter problem.

    Weights are normalized to sum 1 at load. The box defaults to the
    power-mean box [alpha', beta'] = [M_r(a), M_r(b)]: r = 1 - t,
    a_j = lam_min(A_j), b_j = lam_max(A_j) and M_r(v) = (sum_j w_j v_j^r)^{1/r}
    the weighted power mean, read from the spectra the marginals are checked
    by. A given box must contain [alpha', beta'] up to a relative slack of
    BOX_RTOL beta, which every box holding the marginals does; the marginals
    themselves need not lie in it.

    The minimizer X* lies in [alpha', beta']. It is the fixed point
    X* = sum_j w_j (X*^{1/2} A_j^{(1-t)/t} X*^{1/2})^t; with mu = lam_max(X*),
    each term is at most (b_j^{(1-t)/t} mu)^t I, as x -> x^t is operator
    monotone, so mu <= (sum_j w_j b_j^{1-t}) mu^t,
    that is mu^{1-t} <= beta'^{1-t}. With lam_min(X*) and a_j the same
    argument gives alpha' from below. On any box that contains
    [alpha', beta'], ``convexity_constants`` certifies phi_t (see
    ``calculus.ConvexityConstants``), so every solver certificate holds there.
    M_r lies between its arguments' extremes, and the computed one is clipped
    there: a single marginal's box is exactly its spectrum.
    """
    check_unit_t(t)
    checked = [_spd_and_spectrum(M) for M in matrices]
    mats = tuple(A for A, _ in checked)
    if len(mats) == 0:
        raise InvalidInput("at least one marginal matrix is required")
    n = mats[0].shape[0]
    if any(M.shape[0] != n for M in mats):
        raise InvalidInput("marginal matrices must share one dimension")
    if not all(_is_finite_number(v) for v in np.ravel(np.asarray(weights, dtype=object))):
        raise InvalidInput(f"weights must be finite numbers, got {weights!r}")
    w = np.asarray(weights, dtype=float)
    if w.shape != (len(mats),):
        raise InvalidInput(f"expected {len(mats)} weights, got shape {w.shape}")
    if np.any(w <= 0):
        raise InvalidInput("weights must be positive")
    w = w / w.sum()

    r = 1.0 - float(t)
    ends = np.array([(s[0], s[-1]) for _, s in checked])  # rows (a_j, b_j)
    lo, hi = map(float, np.clip((w @ ends ** r) ** (1.0 / r), ends.min(axis=0), ends.max(axis=0)))
    alpha = lo if alpha is None else alpha
    beta = hi if beta is None else beta
    check_box(alpha, beta)
    alpha, beta = float(alpha), float(beta)
    if not _in_box(lo, hi, alpha, beta):
        raise InvalidBox(
            f"the box [{alpha}, {beta}] misses the power-mean box [{lo:.6g}, {hi:.6g}], "
            "which holds the barycenter"
        )
    return BarycenterProblem(mats, w, float(t), alpha, beta)


def objective(p: BarycenterProblem, X):
    """phi_t(X); nonnegative, zero iff every marginal equals X."""
    X = check_matrices(n=p.n, X=X)[0]
    total = 0.0
    for w, A, dec in zip(p.weights, p.matrices, p._decompositions):
        linear = (1.0 - p.t) * float(_trace(A)) + p.t * float(_trace(X))
        total += w * (linear - float(_sandwich_trace(dec, X, p.t)))
    return total


def _mean_sum(p: BarycenterProblem, X):
    """S(X) = sum_j w_j grad f_j(X) / t from the problem's graded bases: m eigh."""
    return sum(w * _frame_power(*_frame(basis, X, p.t), p.t - 1.0, p.t)
               for w, basis in zip(p.weights, p._bases)) / p.t


def _gradient_and_sum(p: BarycenterProblem, X):
    """(t (I - S(X)), S(X)) = (grad phi_t(X), S(X)), exactly Hermitian as S sums such terms: m eigh."""
    S = _mean_sum(p, X)
    return p.t * (np.eye(p.n) - S), S


def _fixed_point_from_sum(X, S):
    """F(X) = X^{1/2} S(X) X^{1/2} from S(X): one unchecked eigh of the exactly Hermitian X."""
    return _root_sandwich(_descending(*_eigh(X)), S)


def _root_sandwich(dec, S):
    """X^{1/2} S X^{1/2}, exactly Hermitian, from the decomposition ``dec`` of X: no eigh."""
    root = dec.map(power(0.5))
    return symmetrize(root @ S @ root)


def objective_gradient(p: BarycenterProblem, X):
    """grad phi_t(X) = t I - sum_j w_j grad f_j(X).

    ``NumericalError`` when a sandwich A_j^{(1-t)/2t} X A_j^{(1-t)/2t} loses
    positivity in floating point, as it does for an X that is not positive
    definite.
    """
    return _gradient_and_sum(p, check_matrices(n=p.n, X=X)[0])[0]


def fixed_point_map(p: BarycenterProblem, X):
    """F(X) = sum_j w_j (X^{1/2} A_j^{(1-t)/t} X^{1/2})^t; stationarity iff X = F(X).

    Evaluated as X^{1/2} S(X) X^{1/2} = X^{1/2} (I - grad phi_t(X) / t) X^{1/2}:
    one decomposition of X plus one eigh per marginal for grad f_j, from the
    decomposition of A_j the problem keeps (m more eigh on the problem's first use).
    """
    X = check_matrices(n=p.n, X=X)[0]
    return _fixed_point_from_sum(X, _mean_sum(p, X))


def certified_rate(p: BarycenterProblem, eta=None):
    """Certified constants (alpha_star, beta_star, q) for step size eta.

    alpha_star = k1 (strong convexity) and beta_star = k2 (smoothness) of
    convexity_constants(t, alpha, beta), and
    q = max{|1 - eta alpha_star|, |1 - eta beta_star|} < 1 for
    eta in (0, 2/beta_star); the default eta = 1/beta_star gives
    q = 1 - (alpha/beta)^{3-2t}. The problem's box contains the power-mean
    box [alpha', beta'], which holds the minimizer (``barycenter_problem``),
    so grad^2 phi_t lies in [alpha_star, beta_star] on the whole box
    (``calculus.ConvexityConstants``), whether or not the marginals lie in
    it: GP contracts by q, and ||grad phi_t(X)|| / alpha_star bounds
    ||X - X*|| at any X in the box. ``InvalidInput`` unless eta is a number
    (a bool is not), ``InvalidStepSize`` outside that interval.
    """
    c = convexity_constants(p.t, p.alpha, p.beta)
    alpha_star, beta_star = c.k1, c.k2
    if eta is None:
        eta = 1.0 / beta_star
    elif not _is_number(eta):
        raise InvalidInput(f"eta = {eta!r} must be a number")
    if not 0.0 < eta < 2.0 / beta_star:
        raise InvalidStepSize(f"eta = {eta} outside (0, {2.0 / beta_star:.6g})")
    q = max(abs(1.0 - eta * alpha_star), abs(1.0 - eta * beta_star))
    return alpha_star, beta_star, q


@dataclass
class SolverReport:
    """Outcome of a solver run, and the report's schema: ``report_to_json`` writes one key per field, in order.

    ``minimizer`` is X after ``iterations`` steps. ``grad_norms`` holds the
    Frobenius norm of grad phi_t at the recorded iterates (indices in
    ``history_indices``; thinned to every 10th entry beyond 10,000).
    (alpha_star, beta_star, q) is ``certified_rate``'s and ``eta`` the step;
    the fixed point has neither q nor eta. ``error_bound`` = final gradient
    norm / alpha_star certifies the distance to the true minimizer.
    ``termination`` is "gradient_tol" when the tolerance was met, also at
    the iteration cap, else "max_iters". ``fixed_point_residual`` is
    ||X - F(X)||_F at the minimizer; ``iterates``, the recorded X of a
    traced run, is left out of the JSON otherwise.
    """

    minimizer: np.ndarray
    iterations: int
    grad_norms: list
    history_indices: list
    alpha_star: float
    beta_star: float
    q: float | None
    eta: float | None
    termination: str
    error_bound: float
    fixed_point_residual: float
    iterates: list | None = None


def _stopping_tolerance(p: BarycenterProblem, grad_tol, max_iters):
    """grad_tol, or its default 1e-10 t n when None: the stop rule of both solvers.

    ``InvalidInput`` unless grad_tol is a finite number >= 0 and max_iters an
    integer >= 0: a NaN or negative tolerance is never met, so the run would
    end at the iteration cap, and a bool is not a number (True reads as 1.0).
    """
    _check_integer(max_iters, "max_iters", 0)
    if grad_tol is None:
        return 1e-10 * p.t * p.n
    if not (_is_finite_number(grad_tol) and grad_tol >= 0):
        raise InvalidInput(f"grad_tol = {grad_tol!r} must be a finite number >= 0")
    return grad_tol


def _power_mean_decomposition(p: BarycenterProblem) -> SpectralDecomp:
    """The eigendecomposition of the power mean P = (sum_j w_j A_j^{1-t})^{1/(1-t)}: one eigh.

    P is the minimizer of phi_t when the marginals commute, and the point
    both solvers' start is chosen from (``_start``). Each A_j^{1-t} is
    rebuilt from the problem's decomposition of A_j, and P is decomposed by
    the eigenvectors of their mean with its eigenvalues raised to 1/(1-t),
    so every function of P (its root, the powers of the relaxed step) costs
    no further eigh. P's spectrum lies in the power-mean box [alpha', beta'],
    and so in [alpha, beta]: each A_j^{1-t} lies in
    [a_j^{1-t} I, b_j^{1-t} I], so their weighted sum lies in
    [alpha'^{1-t} I, beta'^{1-t} I], and x -> x^{1/(1-t)} is increasing.
    Applied to the extremes a_j and b_j alone, the same mean is the box.
    """
    r = 1.0 - p.t
    mean = sum(w * dec.map(power(r)) for w, dec in zip(p.weights, p._decompositions))
    dec, fn = spectral_decompose(mean), power(1.0 / r)
    dec.require_domain(fn)
    return SpectralDecomp(fn.finite_on(dec.eigenvalues), dec.eigenvectors)


def _relaxed_step(dec, S, t):
    """T(X) = X^{-a} F(X)^b X^{-a}, b = 1/(1-t), a = t/(2(1-t)), exactly Hermitian: one eigh, of F(X).

    ``dec`` decomposes X and S = S(X), so F(X) = X^{1/2} S X^{1/2}. T has the
    fixed points of F, and for marginals that commute with each other and
    with X it is their power mean, the minimizer: there
    F(X) = X^t M^{1-t} for the power mean M, so F(X)^b = X^{2a} M. At t = 1/2
    it is S X S, the fixed-point step of Alvarez-Esteban, del Barrio,
    Cuesta-Albertos & Matran (J. Math. Anal. Appl. 441, 2016).
    ``NumericalError``, and no numpy warning, if a power or the product
    overflows, as it can near t = 1, where b is large.
    """
    b = 1.0 / (1.0 - t)
    outer = dec.map(power(-0.5 * t * b))
    inner = _descending(*_eigh(_root_sandwich(dec, S))).map(power(b))
    return symmetrize(_finite_product((outer, inner, outer), "relaxed fixed-point step"))


def _start(p: BarycenterProblem, x0, grad_tol):
    """Both solvers' start X and, when it formed one, X's evaluation (grad phi_t(X), S(X)), else None.

    A given x0 is checked once, against the problem's size and the box up to
    the slack BOX_RTOL beta, and projected onto the box. Otherwise X is the
    projected power mean P, unless P misses grad_tol and the projected
    relaxed step Pi(T(P)) (``_relaxed_step``) has a strictly smaller
    gradient; X is P also when the step overflows, as it can near t = 1. P
    is the minimizer when the marginals commute, so it meets grad_tol there
    and the run stops at iteration 0 with no step formed. Both points lie in
    the box, where ||X - X*|| <= ||grad phi_t(X)|| / k1, so the rule never
    starts farther from X* by that bound than P. The step is built from
    P's decomposition and S(P), and the chosen point's evaluation is the
    loop's first, so the rule adds m + 1 eigh (F(P), and S at the point not
    chosen) and two Cholesky factorizations, for the step's projection (an
    eigh instead if the step leaves the box).
    """
    if x0 is not None:
        x0 = check_matrices(n=p.n, error=InvalidStart, x0=x0)[0]
        w = _eigenvalues(x0)
        if not _in_box(w[0], w[-1], p.alpha, p.beta):
            raise InvalidStart(f"starting spectrum [{w[0]:.6g}, {w[-1]:.6g}] outside the box "
                               f"[{p.alpha}, {p.beta}]")
        return _project_box(x0, p.alpha, p.beta), None
    dec = _power_mean_decomposition(p)
    X = _project_box(symmetrize(dec.reconstruct()), p.alpha, p.beta)
    first = _gradient_and_sum(p, X)
    gn = np.linalg.norm(first[0])
    if gn <= grad_tol:
        return X, first
    try:
        C = _project_box(_relaxed_step(dec, first[1], p.t), p.alpha, p.beta)
        candidate = _gradient_and_sum(p, C)
    except NumericalError:
        return X, first
    return (C, candidate) if np.linalg.norm(candidate[0]) < gn else (X, first)


def _iterate(p: BarycenterProblem, x0, advance, rate, grad_tol, max_iters, trace, eta=None):
    """The whole solve of both solvers, and their one report.

    The loop resolves grad_tol (``_stopping_tolerance``) and takes the start
    X and its first evaluation from ``_start``. At iterate k it forms
    (G, S) = (grad phi_t(X), S(X)) (``_gradient_and_sum``); the run stops
    with "gradient_tol" if ||G|| <= grad_tol, else with "max_iters" if
    k = max_iters; else X moves to ``advance(X, G, S)``, the solver's step
    rule, formed only after the stop test. ``rate`` is (alpha_star,
    beta_star, q). fixed_point_residual is ||X - F(X)|| at the returned X,
    with F(X) formed from the last S.
    """
    grad_tol = _stopping_tolerance(p, grad_tol, max_iters)
    X, first = _start(p, x0, grad_tol)
    indices, grad_norms, iterates = [], [], [] if trace else None
    for k in itertools.count():
        G, S = _gradient_and_sum(p, X) if first is None else first
        first = None
        gn = float(np.linalg.norm(G))
        termination = "gradient_tol" if gn <= grad_tol else "max_iters" if k >= max_iters else None
        if termination is not None or len(indices) < HISTORY_CAP or k % 10 == 0:
            indices.append(k)
            grad_norms.append(gn)
            if trace:
                iterates.append(X.copy())
        if termination is not None:
            break
        X = advance(X, G, S)

    alpha_star, beta_star, q = rate
    return SolverReport(
        minimizer=X,
        iterations=k,
        grad_norms=grad_norms,
        history_indices=indices,
        alpha_star=alpha_star,
        beta_star=beta_star,
        q=q,
        eta=eta,
        termination=termination,
        error_bound=gn / alpha_star,
        fixed_point_residual=float(np.linalg.norm(X - _fixed_point_from_sum(X, S))),
        iterates=iterates,
    )


def solve_gradient_projection(
    p: BarycenterProblem,
    eta=None,
    grad_tol=None,
    max_iters=100_000,
    x0=None,
    trace=False,
) -> SolverReport:
    """Projected gradient descent: the step X <- [X - eta grad phi_t(X)]_+ on the box.

    The step is this solver's whole rule, its ``advance`` in the one loop
    (``_iterate``), which owns the stop rule ||grad phi_t(X)|| <= grad_tol,
    the start, the evaluation, the history and the residual. Defaults:
    eta = 1/beta_star and grad_tol = 1e-10 t n. X0 is a given x0, whose
    spectrum must lie in the box up to BOX_RTOL beta, projected onto it;
    otherwise the better of the projected power mean P, the minimizer when
    the marginals commute, and one projected relaxed fixed-point step from
    it (``_start``). Every iterate stays in [alpha I, beta I], where phi_t is
    k1-strongly convex, so the returned error_bound is a certified distance
    bound to the unique minimizer, and each step contracts by the certified
    rate q, which does not depend on the start. ``InvalidInput`` unless
    grad_tol is finite and >= 0 and max_iters is an integer >= 0.
    """
    alpha_star, beta_star, q = certified_rate(p, eta)
    eta = 1.0 / beta_star if eta is None else float(eta)
    return _iterate(p, x0, lambda X, G, S: _project_box(X - eta * G, p.alpha, p.beta),
                    (alpha_star, beta_star, q), grad_tol, max_iters, trace, eta)


def solve_fixed_point(
    p: BarycenterProblem,
    grad_tol=None,
    max_iters=100_000,
    x0=None,
    trace=False,
) -> SolverReport:
    """Fixed-point iteration X <- F(X), used for cross-validation.

    The step is this solver's whole rule, its ``advance`` in the one loop
    (``_iterate``): F(X) = X^{1/2} S(X) X^{1/2}, from the S(X) the loop read
    grad phi_t(X) from. The loop gives it gradient projection's stop rule
    ||grad phi_t(X)|| <= grad_tol (default 1e-10 t n) and its start
    (``_start``), so the two solvers start at one point (a cross-check from
    a start of the caller's choosing passes another x0). No contraction is
    guaranteed, but F maps the box into itself, as it contains the
    power-mean box [alpha', beta'] (``barycenter_problem``): for X in it,
    X^{1/2} A_j^{(1-t)/t} X^{1/2} <= b_j^{(1-t)/t} lam_max(X) I and
    x -> x^t is operator monotone, so
    lam_max(F(X)) <= (sum_j w_j b_j^{1-t}) lam_max(X)^t
    = beta'^{1-t} lam_max(X)^t <= beta, and with a_j and lam_min(X) the same
    argument gives lam_min(F(X)) >= alpha. So every iterate lies in the box,
    where error_bound is certified as gradient projection's is, and a run
    that does not converge ends at max_iters. ``InvalidInput`` unless
    grad_tol is finite and >= 0 and max_iters is an integer >= 0.
    """
    alpha_star, beta_star, _ = certified_rate(p)
    return _iterate(p, x0, lambda X, G, S: _fixed_point_from_sum(X, S),
                    (alpha_star, beta_star, None), grad_tol, max_iters, trace)
