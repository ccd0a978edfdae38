"""Independent oracles shared by the test modules.

The paper's geometric-mean expression for the gradient, finite-difference
reconstruction of gradients and Hessian actions, the Hessian matrix
assembled in an explicit Hermitian basis, a quadrature evaluation of the
Hessian integral representation, and extended-precision evaluation of the
sandwiched trace. These stay independent of the code paths they check.
"""

import numpy as np

from sandwich_opt import geometric_mean, hessian_apply, inner, matrix_power, norm, symmetrize


def hermitian_basis(n):
    """Orthonormal basis of the real space of n x n Hermitian matrices.

    Diagonal units, then symmetric pairs / sqrt(2) and antisymmetric
    imaginary pairs / sqrt(2), under the trace inner product.
    """
    basis = []
    for i in range(n):
        E = np.zeros((n, n), dtype=complex)
        E[i, i] = 1.0
        basis.append(E)
    r = 1.0 / np.sqrt(2.0)
    for i in range(n):
        for j in range(i + 1, n):
            S = np.zeros((n, n), dtype=complex)
            S[i, j] = S[j, i] = r
            basis.append(S)
            Kk = np.zeros((n, n), dtype=complex)
            Kk[i, j] = 1j * r
            Kk[j, i] = -1j * r
            basis.append(Kk)
    return basis


def basis_hessian_matrix(op):
    """The n^2 x n^2 real symmetric matrix of -grad^2 f(X) in the Hermitian
    basis, built from n^2 Hessian applications."""
    basis = hermitian_basis(op.n)
    images = [hessian_apply(op, B) for B in basis]
    M = np.array([[inner(Bk, img) for img in images] for Bk in basis])
    return (M + M.T) / 2.0


def paper_gradient(A, X, t):
    """grad f(X) = t (A^{(1-t)/t} #_{1-t} X^{-1}), the paper's closed form."""
    return t * geometric_mean(matrix_power(A, (1.0 - t) / t), matrix_power(X, -1.0), 1.0 - t)


def fd_gradient(f, X, h=None):
    """Full gradient of a scalar function of a Hermitian matrix by central
    differences along an orthonormal Hermitian basis."""
    n = X.shape[0]
    if h is None:
        h = 1e-5 * norm(X, "operator")
    G = np.zeros((n, n), dtype=complex)
    for B in hermitian_basis(n):
        c = (f(X + h * B) - f(X - h * B)) / (2.0 * h)
        G += c * B
    return G


def fd_directional_hessian(grad, X, Y, h=None):
    """Central difference of a gradient field in direction Y: grad^2 f(X)(Y)."""
    if h is None:
        h = 1e-5 * norm(X, "operator") / max(norm(Y, "operator"), 1e-300)
    return (grad(X + h * Y) - grad(X - h * Y)) / (2.0 * h)


def quadrature_hessian_apply(A, X, t, Y, nodes=200):
    """-grad^2 f(X)(Y) by quadrature of the resolvent integral representation.

    The measure (sin t pi / pi) lam^{t-1} d lam is integrated after the
    substitution w = lam^t (absorbing the endpoint singularity exactly) and
    a Moebius map of (0, inf) onto (0, 1) with Gauss-Legendre nodes.
    """
    Appinv = matrix_power(A, -(1.0 - t) / t)
    App = matrix_power(A, (1.0 - t) / t)
    R = matrix_power(App, 0.5)
    d = np.linalg.eigvalsh(symmetrize(R @ X @ R))
    c = float(np.exp(np.mean(np.log(d)))) ** t
    u, wts = np.polynomial.legendre.leggauss(nodes)
    u = (u + 1.0) / 2.0
    wts = wts / 2.0
    out = np.zeros_like(np.asarray(Y, dtype=complex))
    for ui, wi in zip(u, wts):
        w = c * ui / (1.0 - ui)
        lam = w ** (1.0 / t)
        C = np.linalg.inv(lam * Appinv + X)
        out += wi * (c / (1.0 - ui) ** 2) * (C @ Y @ C)
    return (np.sin(t * np.pi) / np.pi) * out


def mp_sandwich_trace(A, B, t, dps=40):
    """Extended-precision tr (A^{(1-t)/2t} B A^{(1-t)/2t})^t."""
    import mpmath as mp

    with mp.workdps(dps):
        tm = mp.mpf(t)

        def to_mp(M):
            M = np.asarray(M, dtype=complex)
            return mp.matrix(
                [[mp.mpc(M[i, j]) for j in range(M.shape[1])] for i in range(M.shape[0])]
            )

        def herm_eig(Mm):
            E, Q = mp.eighe((Mm + Mm.H) / 2)
            return [E[i] for i in range(Mm.rows)], Q

        Am, Bm = to_mp(A), to_mp(B)
        E, Q = herm_eig(Am)
        s = (1 - tm) / (2 * tm)
        P = Q * mp.diag([mp.power(e, s) for e in E]) * Q.H
        Em, _ = herm_eig(P * Bm * P)
        return sum(mp.power(e, tm) for e in Em)
