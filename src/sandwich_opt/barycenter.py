"""Entropic barycenter of positive definite matrices.

Minimizes phi_t(X) = sum_j w_j [tr((1-t) A_j + t X) - tr(A_j^{(1-t)/2t} X A_j^{(1-t)/2t})^t]
over the spectral box [alpha I, beta I] by projected gradient descent with a
certified linear rate, cross-validated by a fixed-point iteration on
F(X) = sum_j w_j (X^{1/2} A_j^{(1-t)/t} X^{1/2})^t.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .calculus import convexity_constants
from .entropy import check_unit_t, geometric_mean, sandwich_trace
from .errors import InvalidBox, InvalidInput, InvalidStart, InvalidStepSize
from .linalg import (
    as_hermitian,
    as_spd,
    check_box,
    matrix_power,
    project_box,
    symmetrize,
)

logger = logging.getLogger(__name__)

# Spectral slack, relative to beta, when checking matrices against the box.
BOX_RTOL = 1e-10

# Convergence history cap; beyond this many stored entries, keep every 10th.
HISTORY_CAP = 10_000


@dataclass(frozen=True)
class BarycenterProblem:
    """Marginals A_j, normalized weights w_j, order t, and spectral box."""

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


def barycenter_problem(matrices, weights, t, alpha=None, beta=None) -> BarycenterProblem:
    """Validate and assemble a barycenter problem.

    Weights are normalized to sum 1 at load. The box defaults to the optimal
    [min_j lam_min(A_j), max_j lam_max(A_j)]; every marginal must satisfy
    alpha I <= A_j <= beta I up to a relative slack of 1e-10 beta.
    """
    check_unit_t(t)
    mats = tuple(as_spd(M) for M in matrices)
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

    spectra = [np.linalg.eigvalsh(M) for M in mats]
    lo = min(float(s[0]) for s in spectra)
    hi = max(float(s[-1]) for s in spectra)
    alpha = lo if alpha is None else float(alpha)
    beta = hi if beta is None else float(beta)
    check_box(alpha, beta)
    slack = BOX_RTOL * beta
    if lo < alpha - slack or hi > beta + slack:
        raise InvalidBox(
            f"marginal spectra [{lo:.6g}, {hi:.6g}] violate the box [{alpha}, {beta}]"
        )
    return BarycenterProblem(mats, w, float(t), alpha, beta)


def _powered_marginals(p: BarycenterProblem):
    e = (1.0 - p.t) / p.t
    return [matrix_power(A, e) for A in p.matrices]


def objective(p: BarycenterProblem, X):
    """phi_t(X); nonnegative, zero iff every marginal equals X."""
    X = as_hermitian(X)
    total = 0.0
    for w, A in zip(p.weights, p.matrices):
        linear = (1.0 - p.t) * float(np.trace(A).real) + p.t * float(np.trace(X).real)
        total += w * (linear - sandwich_trace(A, X, p.t))
    return total


def _gradient(powered, weights, t, X):
    Xi = matrix_power(X, -1.0)
    S = sum(w * geometric_mean(App, Xi, 1.0 - t) for w, App in zip(weights, powered))
    return symmetrize(t * (np.eye(X.shape[0]) - S))


def objective_gradient(p: BarycenterProblem, X):
    """grad phi_t(X) = t [I - sum_j w_j (A_j^{(1-t)/t} #_{1-t} X^{-1})]."""
    return _gradient(_powered_marginals(p), p.weights, p.t, as_hermitian(X))


def fixed_point_map(p: BarycenterProblem, X):
    """F(X) = sum_j w_j (X^{1/2} A_j^{(1-t)/t} X^{1/2})^t; stationarity iff X = F(X)."""
    Xh = matrix_power(X, 0.5)
    out = sum(
        w * matrix_power(Xh @ App @ Xh, p.t)
        for w, App in zip(p.weights, _powered_marginals(p))
    )
    return symmetrize(out)


def certified_rate(p: BarycenterProblem, eta=None):
    """Certified constants (alpha_star, beta_star, q) for step size eta.

    alpha_star = k1 (strong convexity) and beta_star = k2 (smoothness) of
    convexity_constants(t, alpha, beta), and
    q = max{|1 - eta alpha_star|, |1 - eta beta_star|} < 1 for
    eta in (0, 2/beta_star); the default eta = 1/beta_star gives
    q = 1 - (alpha/beta)^{3-2t}.
    """
    c = convexity_constants(p.t, p.alpha, p.beta)
    alpha_star, beta_star = c.k1, c.k2
    if eta is None:
        eta = 1.0 / beta_star
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
    is "gradient_tol" when the tolerance was met, "max_iters" otherwise.
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


def _start_iterate(p: BarycenterProblem, x0):
    if x0 is None:
        return (p.alpha + p.beta) / 2.0 * np.eye(p.n, dtype=complex)
    x0 = as_hermitian(x0)
    if x0.shape[0] != p.n:
        raise InvalidStart(f"starting iterate has dimension {x0.shape[0]}, expected {p.n}")
    w = np.linalg.eigvalsh(x0)
    slack = BOX_RTOL * p.beta
    if w[0] < p.alpha - slack or w[-1] > p.beta + slack:
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
        if self.indices and self.indices[-1] == k:
            return
        self.indices.append(k)
        self.grad_norms.append(gn)
        if self.iterates is not None:
            self.iterates.append(X.copy())


def _clip_to_box(X, p: BarycenterProblem):
    return project_box(X, p.alpha, p.beta)


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
    certified distance bound to the unique minimizer.
    """
    alpha_star, beta_star, q = certified_rate(p, eta)
    if eta is None:
        eta = 1.0 / beta_star
    if grad_tol is None:
        grad_tol = 1e-10 * p.t * p.n
    powered = _powered_marginals(p)
    X = _clip_to_box(_start_iterate(p, x0), p)
    hist = _History(trace)

    termination = "max_iters"
    k = 0
    while True:
        G = _gradient(powered, p.weights, p.t, X)
        gn = float(np.linalg.norm(G))
        stop = gn <= grad_tol or k >= max_iters
        hist.record(k, gn, X, final=stop)
        if gn <= grad_tol:
            termination = "gradient_tol"
            break
        if k >= max_iters:
            break
        X = _clip_to_box(X - eta * G, p)
        k += 1

    residual = float(np.linalg.norm(X - fixed_point_map(p, X)))
    return SolverReport(
        minimizer=X,
        iterations=k,
        grad_norms=hist.grad_norms,
        history_indices=hist.indices,
        alpha_star=alpha_star,
        beta_star=beta_star,
        q=q,
        eta=float(eta),
        termination=termination,
        error_bound=gn / alpha_star,
        fixed_point_residual=residual,
        iterates=hist.iterates,
    )


def solve_fixed_point(
    p: BarycenterProblem,
    tol=1e-12,
    max_iters=100_000,
    x0=None,
    trace=False,
) -> SolverReport:
    """Fixed-point iteration X <- F(X), used for cross-validation.

    No contraction is guaranteed; if the residual ||X - F(X)|| grows for 10
    consecutive steps the run stops with max_iters termination instead of
    raising. grad_norms records grad phi_t at each iterate for comparability
    with the gradient-projection report.
    """
    alpha_star, beta_star, _ = certified_rate(p, None)
    powered = _powered_marginals(p)
    X = _start_iterate(p, x0)
    hist = _History(trace)

    termination = "max_iters"
    increases = 0
    prev_residual = np.inf
    k = 0
    while True:
        FX = fixed_point_map(p, X)
        residual = float(np.linalg.norm(X - FX))
        gn = float(np.linalg.norm(_gradient(powered, p.weights, p.t, X)))
        stop = residual <= tol or k >= max_iters
        hist.record(k, gn, X, final=stop)
        if residual <= tol:
            termination = "gradient_tol"
            break
        if k >= max_iters:
            break
        increases = increases + 1 if residual > prev_residual else 0
        if increases >= 10:
            hist.record(k, gn, X, final=True)
            logger.warning(
                "fixed-point residual increased for 10 consecutive steps "
                "(%.3e at iterate %d); stopping", residual, k
            )
            break
        prev_residual = residual
        X = FX
        k += 1

    return SolverReport(
        minimizer=X,
        iterations=k,
        grad_norms=hist.grad_norms,
        history_indices=hist.indices,
        alpha_star=alpha_star,
        beta_star=beta_star,
        q=None,
        eta=None,
        termination=termination,
        error_bound=gn / alpha_star,
        fixed_point_residual=residual,
        iterates=hist.iterates,
    )
