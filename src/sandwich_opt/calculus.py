"""Derivatives of the sandwiched trace functional and certified constants.

For fixed SPD A and order t in (0, 1), let f(X) = tr (A^{(1-t)/2t} X A^{(1-t)/2t})^t.
This module provides the exact gradient and Hessian action of f, two-sided
spectral bounds on -grad^2 f (strong convexity / smoothness constants), the
Bregman divergence of -f, and the derivative of the trace functional in t.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .entropy import check_unit_t, geometric_mean, sandwich_trace, T_MAX, T_MIN
from .errors import NumericalError, ParameterError
from .linalg import (
    as_hermitian,
    check_box,
    inner,
    loewner_matrix,
    matrix_log,
    matrix_power,
    power,
    random_hermitian,
    spectral_decompose,
    symmetrize,
)


def gradient_f(A, X, t):
    """Gradient of f(X) = tr (A^{(1-t)/2t} X A^{(1-t)/2t})^t.

    Equals t * (A^{(1-t)/t} #_{1-t} X^{-1}), a positive definite matrix.
    """
    check_unit_t(t)
    App = matrix_power(A, (1.0 - t) / t)
    return t * geometric_mean(App, matrix_power(X, -1.0), 1.0 - t)


@dataclass(frozen=True)
class HessianOperator:
    """The map Y -> -grad^2 f(X)(Y), cached in the eigenbasis of M.

    With A'' = A^{(1-t)/t} and M = A''^{1/2} X A''^{1/2} = V diag(d) V*, the
    action is t * A''^{1/2} V [K o (V* A''^{1/2} Y A''^{1/2} V)] V* A''^{1/2}
    where K = -loewner_matrix(x^{t-1}, d) is entrywise nonnegative.
    Immutable after construction; safe for concurrent applications.
    """

    A: np.ndarray
    X: np.ndarray
    t: float
    root: np.ndarray = field(repr=False)    # A^{(1-t)/2t}
    vecs: np.ndarray = field(repr=False)    # V
    vals: np.ndarray = field(repr=False)    # d, descending
    kernel: np.ndarray = field(repr=False)  # K

    @property
    def n(self) -> int:
        return self.X.shape[0]


def hessian_operator(A, X, t) -> HessianOperator:
    """Build the -grad^2 f(X) operator for parameter matrix A and base point X."""
    check_unit_t(t)
    A = as_hermitian(A)
    X = as_hermitian(X)
    root = matrix_power(A, (1.0 - t) / (2.0 * t))
    dec = spectral_decompose(root @ X @ root)
    return HessianOperator(
        A=A,
        X=X,
        t=float(t),
        root=root,
        vecs=dec.eigenvectors,
        vals=dec.eigenvalues,
        kernel=-loewner_matrix(power(t - 1.0), dec.eigenvalues),
    )


def hessian_apply(op: HessianOperator, Y):
    """Apply -grad^2 f(X) to a Hermitian direction Y."""
    V = op.vecs
    Yt = V.conj().T @ (op.root @ as_hermitian(Y) @ op.root) @ V
    return symmetrize(op.t * op.root @ (V @ (op.kernel * Yt) @ V.conj().T) @ op.root)


def hessian_operator_matrix(op: HessianOperator):
    """The n^2 x n^2 real symmetric matrix of -grad^2 f(X) in closed form.

    It acts on the coordinates vec(Re Y + Im Y) of a Hermitian direction Y
    (row-major vec; an isometry of the Hermitian matrices onto R^{n x n}):
    t G^T diag(vec K) G with W = V* A''^{1/2}, C = kron(W, conj(W)) the
    matrix of Y -> W Y W* on vec(Y), and G = Re C + (Im C) P, P the
    transpose permutation of vec. The complex form t C* diag(vec K) C on
    vec(Y) has the same spectrum, but its complex product and eigensolver
    ran 10-30x slower than the real ones in some processes on a 2-vCPU
    host with threaded OpenBLAS.
    """
    n = op.n
    W = op.vecs.conj().T @ op.root
    C = np.kron(W, W.conj())
    G = C.real + C.imag[:, np.arange(n * n).reshape(n, n).T.ravel()]
    return op.t * (G.T * op.kernel.ravel()) @ G


def _power_extreme(op: HessianOperator, sigma):
    # Largest eigenvalues of H and of (sigma I - H) via power iteration with a
    # deterministic seeded start; used only beyond the explicit-matrix scale.
    def top(apply_fn):
        Y = random_hermitian(op.n, seed=0x5EED)
        Y = Y / np.linalg.norm(Y)
        lam = 0.0
        for _ in range(50_000):
            Z = apply_fn(Y)
            nz = np.linalg.norm(Z)
            if nz == 0.0:
                return 0.0
            Y_next = Z / nz
            lam_next = inner(Y_next, apply_fn(Y_next))
            if abs(lam_next - lam) <= 1e-14 * max(1.0, abs(lam_next)):
                return lam_next
            lam, Y = lam_next, Y_next
        return lam

    lam_max = top(lambda Y: hessian_apply(op, Y))
    lam_min = sigma - top(lambda Y: sigma * Y - hessian_apply(op, Y))
    return lam_min, lam_max


def hessian_extreme_eigs(op: HessianOperator):
    """Extreme eigenvalues (lam_min, lam_max) of -grad^2 f(X) as an operator.

    Exact n^2 x n^2 eigendecomposition for n <= 8; shifted power iteration
    beyond (shift 1.1x the smoothness bound from the actual spectra).
    """
    if op.n <= 8:
        w = np.linalg.eigvalsh(hessian_operator_matrix(op))
        return float(w[0]), float(w[-1])
    wA = np.linalg.eigvalsh(op.A)
    wX = np.linalg.eigvalsh(op.X)
    lo = min(wA[0], wX[0])
    hi = max(wA[-1], wX[-1])
    sigma = 1.1 * convexity_constants(op.t, lo, hi).k2
    lam_min, lam_max = _power_extreme(op, sigma)
    return float(lam_min), float(lam_max)


@dataclass(frozen=True)
class ConvexityConstants:
    """Certified strong-convexity / smoothness constants on a spectral box.

    k1 = t(1-t) alpha^{1-t} beta^{t-2} and k2 = t(1-t) beta^{1-t} alpha^{t-2}
    bound -grad^2 f(X) from below and above whenever the spectra of A and X
    lie in [alpha, beta]; cond_bound = (beta/alpha)^{3-2t} = k2/k1 exactly.
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
    """
    check_unit_t(t)
    fX = sandwich_trace(A, X, t)
    fY = sandwich_trace(A, Y, t)
    G = gradient_f(A, X, t)
    return fX - fY + inner(G, as_hermitian(Y) - as_hermitian(X))


def fidelity_t_derivative(A, B, t):
    """Derivative in t of F(t) = tr (A^{(1-t)/2t} B A^{(1-t)/2t})^t.

    Equals tr[phi(t)^t (log phi(t) - (1/t) log A)] with
    phi(t) = A^{(1-t)/2t} B A^{(1-t)/2t}; at t = 1 this reduces to
    tr[B (log B - log A)].
    """
    if not (np.isfinite(t) and T_MIN < t <= T_MAX):
        raise ParameterError(f"order parameter t = {t} outside ({T_MIN}, {T_MAX}]")
    P = matrix_power(A, (1.0 - t) / (2.0 * t))
    dec = spectral_decompose(P @ B @ P)
    if dec.eigenvalues[-1] <= 0:
        raise NumericalError(
            f"sandwiched product lost positivity (min eigenvalue {dec.eigenvalues[-1]:.3e})"
        )
    w = dec.eigenvalues
    phi_t = dec.apply(w ** float(t))
    term1 = float(np.sum(w ** float(t) * np.log(w)))
    term2 = float(np.trace(phi_t @ matrix_log(A)).real) / t
    return term1 - term2
