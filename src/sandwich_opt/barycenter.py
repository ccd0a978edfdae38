"""Entropic barycenter of positive definite matrices.

Minimizes phi_t(X) = sum_j w_j [tr((1-t) A_j + t X) - f_j(X)] with
f_j(X) = tr(A_j^{(1-t)/2t} X A_j^{(1-t)/2t})^t over the spectral box
[alpha I, beta I] by projected gradient descent with a certified linear rate,
cross-validated by a fixed-point iteration on
F(X) = sum_j w_j (X^{1/2} A_j^{(1-t)/t} X^{1/2})^t. The two are step rules
of one loop, which owns the history, the stopping order and the report.

Both solvers read the one gradient of f, the kernel of ``calculus.gradient_f``:
grad phi_t(X) = t I - sum_j w_j grad f_j(X) = t (I - S(X)) with
S(X) = sum_j w_j grad f_j(X) / t, and F(X) = X^{1/2} S(X) X^{1/2}. The
sandwich factors P_j = A_j^{(1-t)/2t} are fixed by the problem: each A_j is
decomposed once, when a problem first needs its factors (m eigh per
problem). Each grad f_j then takes one eigh, of the sandwich P_j X P_j, so
S(X) takes m. A gradient-projection step adds one eigh for the box
projection and a fixed-point step one for X^{1/2}: m + 1 eigh per step
either way. A point X is checked once where it enters, and no step re-checks
it.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .calculus import _frame_gradient, _whitened_frame, convexity_constants
from .entropy import _factor_trace, _sandwich_factor, check_unit_t
from .errors import InvalidBox, InvalidInput, InvalidStart, InvalidStepSize
from .linalg import (
    _check_integer,
    _eigenvalues,
    _hermitian_of_size,
    _is_number,
    _spd_and_spectrum,
    check_box,
    power,
    project_box,
    spectral_decompose,
    symmetrize,
)

logger = logging.getLogger(__name__)

# Spectral slack, relative to beta, when checking matrices against the box.
BOX_RTOL = 1e-10

# Convergence history cap; beyond this many stored entries, keep every 10th.
HISTORY_CAP = 10_000


@dataclass(frozen=True)
class BarycenterProblem:
    """Marginals A_j, normalized weights w_j, order t, and spectral box.

    The sandwich factors P_j = A_j^{(1-t)/2t} are formed on first use and
    kept on the instance, so they live exactly as long as the problem.
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
    def _factors(self) -> tuple:
        """(P_1, ..., P_m), each from one decomposition of its marginal: m eigh, once."""
        return tuple(_sandwich_factor(spectral_decompose(A), self.t) for A in self.matrices)


def _in_box(lo, hi, alpha, beta):
    """Whether a spectrum [lo, hi] lies in [alpha, beta] up to the slack BOX_RTOL beta."""
    return alpha - BOX_RTOL * beta <= lo and hi <= beta + BOX_RTOL * beta


def barycenter_problem(matrices, weights, t, alpha=None, beta=None) -> BarycenterProblem:
    """Validate and assemble a barycenter problem.

    Weights are normalized to sum 1 at load. The box defaults to the optimal
    [min_j lam_min(A_j), max_j lam_max(A_j)]; every marginal must satisfy
    alpha I <= A_j <= beta I up to a relative slack of 1e-10 beta.
    """
    check_unit_t(t)
    checked = [_spd_and_spectrum(M) for M in matrices]
    mats = tuple(A for A, _ in checked)
    if len(mats) == 0:
        raise InvalidInput("at least one marginal matrix is required")
    n = mats[0].shape[0]
    if any(M.shape[0] != n for M in mats):
        raise InvalidInput("marginal matrices must share one dimension")
    w = np.asarray(weights, dtype=float)
    if w.shape != (len(mats),):
        raise InvalidInput(f"expected {len(mats)} weights, got shape {w.shape}")
    if not np.all(np.isfinite(w)) or np.any(w <= 0):
        raise InvalidInput("weights must be finite and positive")
    w = w / w.sum()

    lo = min(float(s[0]) for _, s in checked)
    hi = max(float(s[-1]) for _, s in checked)
    alpha = lo if alpha is None else alpha
    beta = hi if beta is None else beta
    check_box(alpha, beta)
    alpha, beta = float(alpha), float(beta)
    if not _in_box(lo, hi, alpha, beta):
        raise InvalidBox(
            f"marginal spectra [{lo:.6g}, {hi:.6g}] violate the box [{alpha}, {beta}]"
        )
    return BarycenterProblem(mats, w, float(t), alpha, beta)


def objective(p: BarycenterProblem, X):
    """phi_t(X); nonnegative, zero iff every marginal equals X."""
    X = _hermitian_of_size("X", X, p.n)
    total = 0.0
    for w, A, P in zip(p.weights, p.matrices, p._factors):
        linear = (1.0 - p.t) * float(np.trace(A).real) + p.t * float(np.trace(X).real)
        total += w * (linear - float(_factor_trace(P, X, p.t)))
    return total


def _mean_sum(p: BarycenterProblem, X):
    """S(X) = sum_j w_j grad f_j(X) / t from the problem's sandwich factors: m eigh."""
    return sum(w * _frame_gradient(*_whitened_frame(P, X, p.t), p.t)
               for w, P in zip(p.weights, p._factors)) / p.t


def _gradient_from_sum(S, t):
    return symmetrize(t * (np.eye(S.shape[0]) - S))


def _gradient(p: BarycenterProblem, X):
    return _gradient_from_sum(_mean_sum(p, X), p.t)


def _fixed_point_from_sum(X, S):
    """F(X) = X^{1/2} S(X) X^{1/2} from S(X): one eigh."""
    root = spectral_decompose(X).map(power(0.5))
    return symmetrize(root @ S @ root)


def _fixed_point_step(p: BarycenterProblem, X):
    """(F(X), grad phi_t(X)) from one decomposition of X and one S(X): m + 1 eigh."""
    S = _mean_sum(p, X)
    return _fixed_point_from_sum(X, S), _gradient_from_sum(S, p.t)


def objective_gradient(p: BarycenterProblem, X):
    """grad phi_t(X) = t I - sum_j w_j grad f_j(X).

    ``NumericalError`` when a sandwich A_j^{(1-t)/2t} X A_j^{(1-t)/2t} loses
    positivity in floating point, which happens first at small t.
    """
    return _gradient(p, _hermitian_of_size("X", X, p.n))


def fixed_point_map(p: BarycenterProblem, X):
    """F(X) = sum_j w_j (X^{1/2} A_j^{(1-t)/t} X^{1/2})^t; stationarity iff X = F(X).

    Evaluated as X^{1/2} S(X) X^{1/2} = X^{1/2} (I - grad phi_t(X) / t) X^{1/2}:
    one decomposition of X plus one eigh per marginal for grad f_j, whose
    sandwich factor the problem keeps (m more eigh on the problem's first use).
    """
    return _fixed_point_step(p, _hermitian_of_size("X", X, p.n))[0]


def certified_rate(p: BarycenterProblem, eta=None):
    """Certified constants (alpha_star, beta_star, q) for step size eta.

    alpha_star = k1 (strong convexity) and beta_star = k2 (smoothness) of
    convexity_constants(t, alpha, beta), and
    q = max{|1 - eta alpha_star|, |1 - eta beta_star|} < 1 for
    eta in (0, 2/beta_star); the default eta = 1/beta_star gives
    q = 1 - (alpha/beta)^{3-2t}. ``InvalidInput`` unless eta is a number (a
    bool is not), ``InvalidStepSize`` outside that interval.
    """
    c = convexity_constants(p.t, p.alpha, p.beta)
    alpha_star, beta_star = c.k1, c.k2
    if eta is None:
        eta = 1.0 / beta_star
    elif not _is_number(eta):
        raise InvalidInput(f"eta = {eta!r} must be a number")
    if not (np.isfinite(eta) and 0.0 < eta < 2.0 / beta_star):
        raise InvalidStepSize(f"eta = {eta} outside (0, {2.0 / beta_star:.6g})")
    q = max(abs(1.0 - eta * alpha_star), abs(1.0 - eta * beta_star))
    return alpha_star, beta_star, q


@dataclass
class SolverReport:
    """Outcome of a solver run.

    ``grad_norms`` holds the Frobenius norm of grad phi_t at the recorded
    iterates (indices in ``history_indices``; the history is thinned to every
    10th entry beyond 10,000). ``error_bound`` = final gradient norm /
    alpha_star certifies the distance to the true minimizer. ``termination``
    says why the run stopped: "gradient_tol" when the tolerance was met,
    "max_iters" at the iteration cap, and "residual_growth" when the
    fixed-point safeguard stopped a diverging run. When several hold at one
    iterate, the first in that order wins.
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


def _check_stopping(tol_name, tol, max_iters):
    """InvalidInput unless the tolerance is a finite number >= 0 and max_iters an integer >= 0.

    A NaN or negative tolerance is never met, so the run would go on to the
    iteration cap and report an unconverged iterate; a bool is not a number
    (True would read as 1.0).
    """
    if not (_is_number(tol) and math.isfinite(tol) and tol >= 0):
        raise InvalidInput(f"{tol_name} = {tol!r} must be a finite number >= 0")
    _check_integer(max_iters, "max_iters", 0)


def _start_iterate(p: BarycenterProblem, x0):
    if x0 is None:
        return (p.alpha + p.beta) / 2.0 * np.eye(p.n, dtype=complex)
    x0 = _hermitian_of_size("x0", x0, p.n, InvalidStart)
    w = _eigenvalues(x0)
    if not _in_box(w[0], w[-1], p.alpha, p.beta):
        raise InvalidStart(
            f"starting spectrum [{w[0]:.6g}, {w[-1]:.6g}] outside the box "
            f"[{p.alpha}, {p.beta}]"
        )
    return x0


class _History:
    def __init__(self, trace):
        self.indices = []
        self.grad_norms = []
        self.iterates = [] if trace else None

    def record(self, k, gn, X, final=False):
        if not final and len(self.indices) >= HISTORY_CAP and k % 10 != 0:
            return
        self.indices.append(k)
        self.grad_norms.append(gn)
        if self.iterates is not None:
            self.iterates.append(X.copy())


def _iterate(X, evaluate, converged, advance, residual, rate, max_iters, trace,
             safeguard=lambda k, state: None, eta=None):
    """The one loop of both solvers, and their one report.

    At iterate k, ``evaluate(X)`` returns (grad phi_t(X), the step rule's
    state). The run stops with the first of "gradient_tol" if
    ``converged(||grad phi_t(X)||, state)``, "max_iters" if k = max_iters and
    the reason ``safeguard(k, state)`` returns; else X moves to
    ``advance(X, G, state)``, formed only after the stop test. ``rate`` is
    (alpha_star, beta_star, q); ``residual(X, state)`` gives ||X - F(X)||.
    """
    hist = _History(trace)
    for k in itertools.count():
        G, state = evaluate(X)
        gn = float(np.linalg.norm(G))
        termination = ("gradient_tol" if converged(gn, state) else
                       "max_iters" if k >= max_iters else safeguard(k, state))
        hist.record(k, gn, X, final=termination is not None)
        if termination is not None:
            break
        X = advance(X, G, state)

    alpha_star, beta_star, q = rate
    return SolverReport(
        minimizer=X,
        iterations=k,
        grad_norms=hist.grad_norms,
        history_indices=hist.indices,
        alpha_star=alpha_star,
        beta_star=beta_star,
        q=q,
        eta=eta,
        termination=termination,
        error_bound=gn / alpha_star,
        fixed_point_residual=residual(X, state),
        iterates=hist.iterates,
    )


def solve_gradient_projection(
    p: BarycenterProblem,
    eta=None,
    grad_tol=None,
    max_iters=100_000,
    x0=None,
    trace=False,
) -> SolverReport:
    """Projected gradient descent X <- [X - eta grad phi_t(X)]_+ on the box.

    Defaults: eta = 1/beta_star, X0 = (alpha+beta)/2 I, grad_tol = 1e-10 t n.
    Every iterate stays in [alpha I, beta I]; the returned error_bound is a
    certified distance bound to the unique minimizer. ``InvalidInput`` unless
    grad_tol is finite and >= 0 and max_iters is an integer >= 0.
    """
    alpha_star, beta_star, q = certified_rate(p, eta)
    if eta is None:
        eta = 1.0 / beta_star
    if grad_tol is None:
        grad_tol = 1e-10 * p.t * p.n
    _check_stopping("grad_tol", grad_tol, max_iters)

    def evaluate(X):
        S = _mean_sum(p, X)
        return _gradient_from_sum(S, p.t), S

    return _iterate(
        project_box(_start_iterate(p, x0), p.alpha, p.beta), evaluate,
        converged=lambda gn, S: gn <= grad_tol,
        advance=lambda X, G, S: project_box(X - eta * G, p.alpha, p.beta),
        # the last S(X) was formed at this X
        residual=lambda X, S: float(np.linalg.norm(X - _fixed_point_from_sum(X, S))),
        rate=(alpha_star, beta_star, q), max_iters=max_iters, trace=trace, eta=float(eta),
    )


def solve_fixed_point(
    p: BarycenterProblem,
    tol=None,
    max_iters=100_000,
    x0=None,
    trace=False,
) -> SolverReport:
    """Fixed-point iteration X <- F(X), used for cross-validation.

    Default tol = 1e-12 on the residual ||X - F(X)||. No contraction is
    guaranteed; if the residual grows for 10 consecutive steps the run stops
    with residual_growth termination instead of raising. grad_norms records
    grad phi_t at each iterate for comparability with the gradient-projection
    report, read from the same S(X) as F(X). ``InvalidInput`` unless tol is
    finite and >= 0 and max_iters is an integer >= 0.
    """
    if tol is None:
        tol = 1e-12
    _check_stopping("tol", tol, max_iters)
    alpha_star, beta_star, _ = certified_rate(p, None)
    increases, prev_residual = 0, np.inf

    def evaluate(X):
        FX, G = _fixed_point_step(p, X)
        return G, (FX, float(np.linalg.norm(X - FX)))  # F(X) and the residual

    def residual_growth(k, state):
        nonlocal increases, prev_residual
        increases = increases + 1 if state[1] > prev_residual else 0
        prev_residual = state[1]
        if increases >= 10:
            logger.warning("fixed-point residual increased for 10 consecutive steps "
                           "(%.3e at iterate %d); stopping", state[1], k)
            return "residual_growth"

    return _iterate(
        _start_iterate(p, x0), evaluate,
        converged=lambda gn, state: state[1] <= tol,
        advance=lambda X, G, state: state[0],
        residual=lambda X, state: state[1],
        rate=(alpha_star, beta_star, None), max_iters=max_iters, trace=trace,
        safeguard=residual_growth,
    )
