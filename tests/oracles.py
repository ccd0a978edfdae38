"""Independent oracles shared by the test modules.

The paper's geometric-mean expression for the gradient, finite-difference
reconstruction of gradients and Hessian actions, the Hessian matrix
assembled in an explicit Hermitian basis, a quadrature evaluation of the
Hessian integral representation, extended-precision evaluation of the
sandwiched trace, and the scalar cyclic Jacobi with the per-matrix small-t
limit check built on it. These stay independent of the code paths they check.
"""

import numpy as np

from sandwich_opt import (
    NumericalError,
    geometric_mean,
    hessian_apply,
    inner,
    matrix_power,
    norm,
    spectral_decompose,
    symmetrize,
)


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


def jacobi_eigh(H, max_sweeps=60, tol=1e-15):
    """Cyclic Jacobi eigendecomposition of one Hermitian positive definite matrix.

    Row-by-row cyclic order, one 2 x 2 rotation at a time, with the relative
    off-diagonal criterion |H_pq| <= tol sqrt(H_pp H_qq). Eigenvalues
    descending; ``NumericalError`` if an entry still fails the criterion
    after ``max_sweeps`` sweeps.
    """
    H = np.array(H, dtype=complex)
    n = H.shape[0]
    V = np.eye(n, dtype=complex)
    for _ in range(max_sweeps):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                z = H[p, q]
                r = abs(z)
                if r <= tol * np.sqrt(abs(H[p, p].real) * abs(H[q, q].real)):
                    continue
                rotated = True
                u = z / r
                tau = (H[q, q].real - H[p, p].real) / (2.0 * r)
                tt = np.sign(tau) / (abs(tau) + np.hypot(1.0, tau)) if tau != 0 else 1.0
                c = 1.0 / np.hypot(1.0, tt)
                s = tt * c
                for M in (H, V):
                    col_p = M[:, p].copy()
                    col_q = M[:, q].copy()
                    M[:, p] = u * c * col_p - s * col_q
                    M[:, q] = u * s * col_p + c * col_q
                row_p = H[p, :].copy()
                row_q = H[q, :].copy()
                H[p, :] = np.conj(u) * c * row_p - s * row_q
                H[q, :] = np.conj(u) * s * row_p + c * row_q
                H[p, q] = 0.0
                H[q, p] = 0.0
                H[p, p] = H[p, p].real
                H[q, q] = H[q, q].real
        if not rotated:
            break
    else:
        d = np.sqrt(np.abs(H.diagonal().real))
        off = np.max(np.abs(np.triu(H, 1)) / np.outer(d, d))
        if off > tol:
            raise NumericalError(f"Jacobi unconverged after {max_sweeps} sweeps "
                                 f"(largest relative off-diagonal {off:.3e})")
    w = H.diagonal().real
    order = np.argsort(w)[::-1]
    return w[order], V[:, order]


def graded_sandwich_power(A, B, t):
    """(A^{(1-t)/2t} B A^{(1-t)/2t})^t through jacobi_eigh of the graded
    diag(a^m) U*BU diag(a^m), m = (1-t)/2t, in the eigenbasis of A."""
    decA = spectral_decompose(A)
    d = decA.eigenvalues ** ((1.0 - t) / (2.0 * t))
    U = decA.eigenvectors
    Bt = U.conj().T @ B @ U
    H = (d[:, None] * d[None, :]) * ((Bt + Bt.conj().T) / 2.0)
    w, V = jacobi_eigh(H)
    W = U @ V
    return symmetrize((W * w ** float(t)) @ W.conj().T)


def gamma_limit_oracle(A, B, t_grid):
    """(errors, envelope_ok) of the small-t limit check, one order at a time:
    ||gamma(t) - A||_F and lam_min(B)^t A^{1-t} <= gamma(t) <= lam_max(B)^t A^{1-t}
    within 1e-10 of the operator norm of the upper envelope."""
    b_eigs = np.linalg.eigvalsh(symmetrize(B))
    alpha, beta = float(b_eigs[0]), float(b_eigs[-1])
    errors, envelope_ok = [], []
    for t in t_grid:
        G = graded_sandwich_power(A, B, t)
        errors.append(float(np.linalg.norm(G - A)))
        A1mt = matrix_power(A, 1.0 - t)
        lo, hi = alpha**t * A1mt, beta**t * A1mt
        scale = norm(hi, "operator")
        envelope_ok.append(bool(
            np.linalg.eigvalsh(symmetrize(G - lo))[0] >= -1e-10 * scale
            and np.linalg.eigvalsh(symmetrize(hi - G))[0] >= -1e-10 * scale
        ))
    return errors, envelope_ok
