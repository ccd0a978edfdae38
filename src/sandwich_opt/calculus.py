"""Derivatives of the sandwiched trace functional and certified constants.

For fixed SPD A and order t in (0, 1), let f(X) = tr (A^{(1-t)/2t} X A^{(1-t)/2t})^t.
This module provides the exact gradient and Hessian action of f, two-sided
spectral bounds on -grad^2 f (strong convexity / smoothness constants), the
Bregman divergence of -f, and the derivative of the trace functional in t.
The gradient, the Hessian and the Bregman divergence read one frame of the
graded sandwich, ``entropy._frame``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .entropy import (
    _finite,
    _frame,
    _frame_power,
    _graded_basis,
    _sandwich,
    _sandwich_trace,
    check_trace_order,
    check_unit_t,
)
from .errors import NumericalError
from .linalg import (
    LOG,
    check_box,
    check_matrices,
    inner,
    loewner_matrix,
    power,
    random_hermitian,
    spectral_decompose,
    symmetrize,
)


def gradient_f(A, X, t):
    """Gradient of f(X) = tr (A^{(1-t)/2t} X A^{(1-t)/2t})^t.

    Equals t W* diag(d^{t-1}) W (notation of ``HessianOperator``), the positive
    definite t * (A^{(1-t)/t} #_{1-t} X^{-1}), formed from the frame of M
    (``entropy._frame_power``); ``NumericalError`` unless the computed M is
    positive definite, which an X that is not positive definite fails, or if
    the gradient overflows. M is decomposed in A's eigenbasis, graded
    (``entropy._graded_sandwich``), so its small eigenvalues survive at small t.
    """
    check_unit_t(t)
    A, X = check_matrices(A=A, X=X)
    return _frame_power(*_frame(_graded_basis(spectral_decompose(A), t), X, t), t - 1.0, t)


@dataclass(frozen=True)
class HessianOperator:
    """The map Y -> -grad^2 f(X)(Y), cached in the eigenbasis of M.

    With A'' = A^{(1-t)/t}, M = A''^{1/2} X A''^{1/2} = V diag(d) V* and
    W = V* A''^{1/2}, the action is t W* [K o (W Y W*)] W where
    K = -loewner_matrix(x^{t-1}, d) is entrywise nonnegative.
    Immutable after construction; safe for concurrent applications.
    """

    t: float
    W: np.ndarray = field(repr=False)       # V* A''^{1/2}
    kernel: np.ndarray = field(repr=False)  # K

    @property
    def n(self) -> int:
        return self.W.shape[0]


def hessian_operator(A, X, t) -> HessianOperator:
    """The -grad^2 f(X) operator.

    ``NumericalError`` unless the computed M is positive definite and the
    kernel K is finite.
    """
    check_unit_t(t)
    A, X = check_matrices(A=A, X=X)
    F, d = _frame(_graded_basis(spectral_decompose(A), t), X, t)
    kernel = -loewner_matrix(power(t - 1.0), d)
    if not np.isfinite(kernel).all():
        raise NumericalError(f"the Hessian kernel overflows at t = {t} "
                             f"(sandwich eigenvalues {np.min(d):.3e} to {np.max(d):.3e})")
    return HessianOperator(t=float(t), W=F.conj().T, kernel=kernel)


def hessian_apply(op: HessianOperator, Y):
    """Apply -grad^2 f(X) to a Hermitian direction Y: t W* [K o (W Y W*)] W.

    ``InvalidInput`` unless Y is a finite op.n x op.n matrix: this is the
    public entry point. ``NumericalError``, and no numpy warning, if the
    action overflows. ``hessian_extreme_eigs`` does not call it; it reads
    the spectrum from the twin operator (see there).
    """
    W, Wh = op.W, op.W.conj().T
    Y = check_matrices(n=op.n, Y=Y)[0]
    with np.errstate(over="ignore", invalid="ignore"):
        return symmetrize(_finite(op.t * Wh @ (op.kernel * (W @ Y @ Wh)) @ W, "Hessian action"))


def hessian_operator_matrix(op: HessianOperator):
    """The n^2 x n^2 real symmetric matrix of -grad^2 f(X) in closed form.

    It acts on the coordinates vec(Re Y + Im Y) of a Hermitian direction Y
    (row-major vec; an isometry of the Hermitian matrices onto R^{n x n}):
    t G^T diag(vec K) G with C = kron(W, conj(W)) the matrix of
    Y -> W Y W* on vec(Y), and G = Re C + (Im C) P, P the transpose
    permutation of vec. The complex form t C* diag(vec K) C on vec(Y) has
    the same spectrum, but its complex product and eigensolver ran 10-30x
    slower than the real ones in some processes on a 2-vCPU host with
    threaded OpenBLAS. ``hessian_extreme_eigs`` does not form this matrix:
    it reads the same spectrum from the cheaper twin operator.
    ``NumericalError``, and no numpy warning, if the matrix overflows.
    """
    n = op.n
    with np.errstate(over="ignore", invalid="ignore"):
        C = np.kron(op.W, op.W.conj())
        G = C.real + C.imag[:, np.arange(n * n).reshape(n, n).T.ravel()]
        return _finite(op.t * (G.T * op.kernel.ravel()) @ G, "Hessian matrix")


# -grad^2 f(X) = t C* D_K C with C(Y) = W Y W* and D_K(Z) = K o Z, K >= 0
# entrywise. With S = sqrt(K) it is t (D_S C)* (D_S C), so it has the
# spectrum of its twin T(Z) = t (D_S C)(D_S C)*(Z) = t S o (B (S o Z) B),
# B = W W* = V* A'' V: W is invertible and K > 0, so both are of full rank.
# In the coordinates of hessian_operator_matrix, T has the matrix
# t (s s^T) o [Re(B (x) conj B) + Im(B (x) conj B) P], s = vec S: entry
# ((i, j), (k, l)) is t s_ij s_kl [Re(B_ik conj B_jl) + Im(B_il conj B_jk)],
# formed in O(n^4) from one elementwise product, with no n^2 x n^2 product.


def _twin_factors(op: HessianOperator):
    """(B, S): the Hermitian part of B = W W*, and S = sqrt(K); ``NumericalError`` if B overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        B = _finite(symmetrize(op.W @ op.W.conj().T), "Hessian twin factor W W*")
    return B, np.sqrt(op.kernel)


def _twin_matrix(op: HessianOperator):
    """The n^2 x n^2 real matrix of the twin T, symmetric up to rounding.

    Its spectrum is that of -grad^2 f(X); eigvalsh reads one triangle.
    """
    n = op.n
    B, S = _twin_factors(op)
    E = B[:, None, :, None] * B.conj()[None, :, None, :]  # (i, j, k, l): B_ik conj B_jl
    M = E.real + E.imag.transpose(0, 1, 3, 2)
    M *= op.t * S[:, :, None, None]
    M *= S
    return M.reshape(n * n, n * n)


def _twin_matvec(op: HessianOperator):
    """x -> T x on the coordinates vec(Re Z + Im Z): two n x n products, no validation."""
    n = op.n
    B, S = _twin_factors(op)
    tS = op.t * S

    def matvec(x):
        Z = x.reshape(n, n)
        U = B @ (S * ((Z + Z.T) / 2 + 0.5j * (Z - Z.T))) @ B
        return (tS * (U.real + U.imag)).ravel()

    return matvec


# Lanczos stops once both extreme Ritz residuals are at most this, relative
# to the largest Ritz value.
LANCZOS_RTOL = 1e-13


def _ritz_bottom(alpha, beta, theta, sign):
    """|s[-1]| for the unit eigenvector s of the Lanczos matrix T at theta.

    theta is the largest eigenvalue of T (sign = 1) or the smallest
    (sign = -1), so sign * (theta I - T) is positive semidefinite. Its
    U D U^T factorization from the bottom row up leaves out the top pivot,
    which carries the singularity; x = U^{-T} e_1 is then the eigenvector,
    with |x[j+1] / x[j]| = beta[j] / d[j+1], a product free of cancellation.
    A pivot that is not positive gives inf, which never counts as converged.
    """
    pivots = []
    for j in range(len(alpha) - 1, 0, -1):
        d = sign * (theta - alpha[j]) - (beta[j] ** 2 / pivots[-1] if pivots else 0.0)
        if not d > 0:
            return np.inf
        pivots.append(d)
    logs = np.concatenate(([0.0], np.cumsum(np.log(beta) - np.log(pivots[::-1]))))
    logs -= logs.max()
    return float(np.exp(logs[-1]) / np.sqrt(np.sum(np.exp(2.0 * logs))))


def _lanczos_extreme(matvec, n):
    # Lanczos with full reorthogonalization for the extreme eigenvalues of a
    # real symmetric operator on R^{n^2}, given by its matvec; the start is
    # the coordinate vector vec(Re Y + Im Y) of a seeded Hermitian n x n Y.
    # Two classical Gram-Schmidt passes against the whole basis also remove
    # the alpha_k q_k and beta_{k-1} q_{k-1} terms. The residual of a Ritz
    # pair (theta, s) of T_k is beta_k |s[-1]|; beta_k = 0 (an invariant
    # Krylov space) zeroes it. T_k is checked after step 4 and then after
    # max(4, k // 4) more steps, since its eigvalsh costs more than a matvec.
    # The basis grows by doubling.
    dim = n * n
    rtol = LANCZOS_RTOL

    Y0 = random_hermitian(n, seed=0x5EED)
    q = (Y0.real + Y0.imag).ravel()
    Q = np.empty((min(dim, 32), dim))
    Q[0] = q / np.linalg.norm(q)
    alpha, beta = [], []
    next_check = 4
    for k in range(1, dim + 1):
        w = matvec(Q[k - 1])
        alpha.append(float(Q[k - 1] @ w))
        for _ in range(2):
            w -= Q[:k].T @ (Q[:k] @ w)
        b = float(np.linalg.norm(w))
        # b <= rtol |alpha_k| <= rtol max|theta| bounds both residuals
        if b <= rtol * abs(alpha[-1]) or k >= next_check or k == dim:
            next_check = k + max(4, k // 4)
            T = np.zeros((k, k))
            T.flat[:: k + 1] = alpha
            T.flat[1 :: k + 1] = beta
            # direct: real T_k, read from one triangle; symmetrize would cast it to complex
            theta = np.linalg.eigvalsh(T, UPLO="U")
            lo, hi = float(theta[0]), float(theta[-1])
            resid = (b * _ritz_bottom(alpha, beta, lo, -1.0), b * _ritz_bottom(alpha, beta, hi, 1.0))
            tol = rtol * max(abs(lo), abs(hi))
            if b == 0.0 or all(r <= tol for r in resid):
                return lo, hi
            if k == dim:
                raise NumericalError(
                    f"Lanczos for the Hessian extremes did not converge in {dim} steps "
                    f"(Ritz residuals {resid[0]:.3e}, {resid[1]:.3e} > {tol:.3e})"
                )
        if k == len(Q):
            Q = np.concatenate([Q, np.empty((min(dim, 2 * k) - k, dim))])
        beta.append(b)
        Q[k] = w / b


# hessian_extreme_eigs takes the dense spectrum up to this n and Lanczos
# beyond: the measured crossover of tools/hessian_crossover.py (twin matrix
# against Lanczos on the twin matvec, random_spd inputs on [1, 4], t in
# {0.3, 0.5, 0.7}). Dense was faster at every t up to n = 20 (9-11 ms
# against 10-13 ms there) and lost from n = 24 on (22-25 ms against 13-21
# ms), on a 2-vCPU Xeon with numpy 2.4.6 and 2-thread OpenBLAS 0.3.31.
DENSE_MAX_N = 20


def hessian_extreme_eigs(op: HessianOperator):
    """Extreme eigenvalues (lam_min, lam_max) of -grad^2 f(X) as an operator.

    Both paths read the twin T(Z) = t S o (B (S o Z) B), S = sqrt(K),
    B = W W*, which has the spectrum of -grad^2 f(X) = t W* [K o (W . W*)] W.
    Dense: eigvalsh of T's n^2 x n^2 matrix, formed entrywise in O(n^4), for
    n <= DENSE_MAX_N, the measured size up to which it is faster than
    Lanczos. Beyond, Lanczos with full reorthogonalization on T's matvec (two
    n x n products), stopped when both extreme Ritz residuals are at most
    LANCZOS_RTOL times the largest Ritz value; at most n^2 steps, and
    ``NumericalError`` if it stops unconverged or if B overflows. Ritz values
    lie inside the spectrum, so neither value overstates the true extreme.
    The dense path's last bits depend on the BLAS thread count: at n = 16
    and 20, lam_min under two threads and under OPENBLAS_NUM_THREADS=1 can
    differ in the last places (0.040947424989549785 against
    0.04094742498954998 for A = random_spd(16, 1, 4, 11),
    X = random_spd(16, 1, 4, 12) and t = 0.5), while n = 8 and Lanczos at
    n = 24 agree. So a pinned ``hess-bounds`` digest is taken at n = 3.
    """
    if op.n <= DENSE_MAX_N:
        # direct: the real twin, read from one triangle; averaging both would move its bits
        w = np.linalg.eigvalsh(_twin_matrix(op))
        return float(w[0]), float(w[-1])
    return _lanczos_extreme(_twin_matvec(op), op.n)


@dataclass(frozen=True)
class ConvexityConstants:
    """Certified strong-convexity / smoothness constants on a spectral box.

    k1 = t(1-t) alpha^{1-t} beta^{t-2} and k2 = t(1-t) beta^{1-t} alpha^{t-2}
    bound -grad^2 f(X) from below and above whenever the spectra of A and X
    lie in [alpha, beta]; cond_bound = (beta/alpha)^{3-2t} = k2/k1 exactly.

    They follow from bounds split by role,
    t(1-t) lam_min(A)^{1-t} lam_max(X)^{t-2} <= -grad^2 f(X)
    <= t(1-t) lam_max(A)^{1-t} lam_min(X)^{t-2}. Proof: with
    x^{t-1} = (sin pi t / pi) int_0^inf s^{t-1} (x + s)^{-1} ds,
    -grad^2 f(X)[H, H] = t (sin pi t / pi) int_0^inf s^{t-1} tr[G_s^{-1} H G_s^{-1} H] ds
    with G_s = X + s A^{-(1-t)/t}. As
    lam_min(X) + s lam_max(A)^{-(1-t)/t} <= G_s <= lam_max(X) + s lam_min(A)^{-(1-t)/t}
    and int_0^inf u^{t-1} (1 + u)^{-2} du = (1-t) pi / sin pi t, the integral
    lies between the two bounds times ||H||^2.

    For the barycenter objective, -grad^2 f_j summed with the weights gives
    t(1-t) alpha'^{1-t} lam_max(X)^{t-2} <= grad^2 phi_t(X)
    <= t(1-t) beta'^{1-t} lam_min(X)^{t-2}, since sum_j w_j a_j^{1-t} =
    alpha'^{1-t} and sum_j w_j b_j^{1-t} = beta'^{1-t} for the power-mean box
    [alpha', beta'] of ``barycenter.barycenter_problem``. So on any box that
    contains [alpha', beta'], grad^2 phi_t lies in [k1, k2] of that box,
    even where a marginal lies outside it.
    """

    t: float
    alpha: float
    beta: float
    k1: float
    k2: float
    cond_bound: float


def convexity_constants(t, alpha, beta) -> ConvexityConstants:
    check_unit_t(t)
    check_box(alpha, beta)
    k1 = t * (1.0 - t) * beta ** (t - 2.0) * alpha ** (1.0 - t)
    k2 = t * (1.0 - t) * beta ** (1.0 - t) * alpha ** (t - 2.0)
    return ConvexityConstants(
        t=float(t),
        alpha=float(alpha),
        beta=float(beta),
        k1=k1,
        k2=k2,
        cond_bound=(beta / alpha) ** (3.0 - 2.0 * t),
    )


def sharper_lower_bound(t, beta, lam_min_A):
    """Lower Hessian bound: k1 with alpha replaced by lam_min(A) in (0, beta].

    Tighter than k1 whenever lam_min(A) > alpha.
    """
    return convexity_constants(t, lam_min_A, beta).k1


def third_derivative_bound(t, alpha, beta):
    """Norm bound t(1-t)(2-t) beta^{1-t} alpha^{t-3} on the third derivative.

    Serves as a Lipschitz constant for the Hessian on the box; tested at
    desk scale, not used by the solvers.
    """
    check_unit_t(t)
    check_box(alpha, beta)
    return t * (1.0 - t) * (2.0 - t) * beta ** (1.0 - t) * alpha ** (t - 3.0)


def bregman(A, t, Y, X):
    """Bregman divergence of g = -f between Y and X.

    D(Y, X) = g(Y) - g(X) - <grad g(X), Y - X>; nonnegative by concavity of
    f, zero iff X = Y, and >= (k1/2) ||X - Y||_2^2 on a [alpha, beta] box.
    A is decomposed once, and f(X) = sum d^t comes from the gradient's frame.
    """
    check_unit_t(t)
    A, Y, X = check_matrices(A=A, Y=Y, X=X)
    decA = spectral_decompose(A)
    F, d = _frame(_graded_basis(decA, t), X, t)
    fX = float(np.sum(d ** float(t)))
    fY = float(_sandwich_trace(decA, Y, t))
    return fX - fY + inner(_frame_power(F, d, t - 1.0, t), Y - X)


def fidelity_t_derivative(A, B, t):
    """Derivative in t of F(t) = tr (A^{(1-t)/2t} B A^{(1-t)/2t})^t.

    Equals tr[phi(t)^t (log phi(t) - (1/t) log A)] with
    phi(t) = A^{(1-t)/2t} B A^{(1-t)/2t}; at t = 1 this reduces to
    tr[B (log B - log A)].
    """
    check_trace_order(t)
    A, B = check_matrices(A=A, B=B)
    decA = spectral_decompose(A)
    basis = _graded_basis(decA, t)
    decA.require_domain(LOG)
    w, V = _sandwich(basis, B, t)
    wt = power(t).finite_on(w)
    term1 = float(np.sum(wt * np.log(w)))
    # in A's eigenbasis phi(t)^t = U V diag(w^t) V* U* and log A = U diag(log a) U*,
    # so tr[phi(t)^t log A] = sum_ik |V_ik|^2 w_k^t log a_i
    term2 = float(np.sum(np.abs(V) ** 2 * wt * np.log(decA.eigenvalues)[:, None])) / t
    return term1 - term2
