"""Independent oracles shared by the test modules.

The paper's geometric-mean expression for the gradient of f and of the
barycenter objective, the direct power-sum formulas for the barycenter
fixed-point map and the power mean, finite-difference reconstruction of
gradients and Hessian actions, the Hessian matrix assembled in an explicit
Hermitian basis, a quadrature evaluation of the Hessian integral
representation, extended-precision evaluation of the sandwiched trace and
of the gradient of f, and the scalar cyclic Jacobi with the per-matrix
small-t limit check built on it. These stay independent of the code paths
they check.

The suite oracles run every verification suite one trial at a time: each
trial draws its matrices one at a time from its input family's two numpy
Generators (uniforms, then Gaussians), then takes one scalar formula per
link and one verdict per relation. The batched suites must give the same
report, byte for byte.
"""

import numpy as np

from sandwich_opt import (
    NumericalError,
    derive_seed,
    divergence_limit_check,
    gamma_limit_check,
    geometric_mean,
    hessian_apply,
    inner,
    majorizes,
    matrix_power,
    matrix_to_json,
    norm,
    sandwich_trace,
    spectral_decompose,
    symmetrize,
)
from sandwich_opt.entropy import sandwich_spectrum
from sandwich_opt.inequalities import (
    DEFAULT_GAMMA_GRID,
    GAUGE_PANEL,
    MAJORIZE_RTOL,
    OPEN_QUESTION_RELATIONS,
    REPRESENTATIONS,
    _is_strictly_convex_id,
    _mp_relation_margin,
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


def objective_gradient_oracle(p, X):
    """grad phi_t(X) = t [I - sum_j w_j (A_j^{(1-t)/t} #_{1-t} X^{-1})], the geometric-mean form."""
    Xi = matrix_power(X, -1.0)
    S = sum(
        w * geometric_mean(matrix_power(A, (1.0 - p.t) / p.t), Xi, 1.0 - p.t)
        for w, A in zip(p.weights, p.matrices)
    )
    return symmetrize(p.t * (np.eye(X.shape[0]) - S))


def fixed_point_map_oracle(p, X):
    """F(X) = sum_j w_j (X^{1/2} A_j^{(1-t)/t} X^{1/2})^t, the direct formula."""
    Xh = matrix_power(X, 0.5)
    out = sum(
        w * matrix_power(Xh @ matrix_power(A, (1.0 - p.t) / p.t) @ Xh, p.t)
        for w, A in zip(p.weights, p.matrices)
    )
    return symmetrize(out)


def power_mean_oracle(p):
    """P = (sum_j w_j A_j^{1-t})^{1/(1-t)}, the barycenter of commuting marginals, by the direct formula."""
    r = 1.0 - p.t
    return symmetrize(matrix_power(sum(w * matrix_power(A, r) for w, A in zip(p.weights, p.matrices)), 1.0 / r))


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


def _to_mp(M):
    import mpmath as mp

    M = np.asarray(M, dtype=complex)
    return mp.matrix([[mp.mpc(M[i, j]) for j in range(M.shape[1])] for i in range(M.shape[0])])


def _mp_herm_eig(Mm):
    import mpmath as mp

    E, Q = mp.eighe((Mm + Mm.H) / 2)
    return [E[i] for i in range(Mm.rows)], Q


def _mp_sandwich_factor(A, tm):
    """P = A^{(1-t)/2t} at mpmath's working precision, formed in the eigenbasis mpmath finds for A."""
    import mpmath as mp

    E, Q = _mp_herm_eig(_to_mp(A))
    return Q * mp.diag([mp.power(e, (1 - tm) / (2 * tm)) for e in E]) * Q.H


def _mp_sandwich_eig(A, B, tm):
    """Eigenvalues and eigenvectors of A^{(1-t)/2t} B A^{(1-t)/2t} at mpmath's working precision."""
    P = _mp_sandwich_factor(A, tm)
    return _mp_herm_eig(P * _to_mp(B) * P)


def mp_gradient(A, X, t, dps=80):
    """Extended-precision gradient t P (P X P)^{t-1} P of f(X) = tr (P X P)^t, P = A^{(1-t)/2t}.

    The full product P X P, formed at 80 digits, keeps the small eigenvalues
    that the same product loses in double precision at small t.
    """
    import mpmath as mp

    with mp.workdps(dps):
        tm = mp.mpf(t)
        P = _mp_sandwich_factor(A, tm)
        E, Q = _mp_herm_eig(P * _to_mp(X) * P)
        G = tm * P * Q * mp.diag([mp.power(e, tm - 1) for e in E]) * Q.H * P
        return np.array([[complex(G[i, j]) for j in range(G.cols)] for i in range(G.rows)])


def mp_sandwich_trace(A, B, t, dps=40):
    """Extended-precision tr (A^{(1-t)/2t} B A^{(1-t)/2t})^t."""
    import mpmath as mp

    with mp.workdps(dps):
        tm = mp.mpf(t)
        Em, _ = _mp_sandwich_eig(A, B, tm)
        return sum(mp.power(e, tm) for e in Em)


def _mp_power(Mm, s):
    """Mm^s for a Hermitian positive definite mpmath matrix, from its eigendecomposition."""
    import mpmath as mp

    E, Q = _mp_herm_eig(Mm)
    return Q * mp.diag([mp.power(e, s) for e in E]) * Q.H


def _mp_mean(Am, Bm, t):
    """Am #_t Bm = Am^{1/2} (Am^{-1/2} Bm Am^{-1/2})^t Am^{1/2} of mpmath matrices."""
    import mpmath as mp

    root, inv_root = _mp_power(Am, mp.mpf(1) / 2), _mp_power(Am, -mp.mpf(1) / 2)
    return root * _mp_power(inv_root * Bm * inv_root, t) * root


def mp_means(A, B, t, dps=250):
    """Extended-precision {"mean": A #_t B, "i": X_i, "iii": X_iii} from the definitions.

    X_i = A^{(1-t)/t} #_{1-t} B^{-1} and X_iii = B #_{1-t} A^{(t-1)/t} are
    the minimizers of the variational representations i and iii. Every
    product is formed in full at dps digits, which covers the grading
    A^{(1-t)/t} of about 1e114 on a [1e-3, 1e3] box at t = 0.05.
    """
    import mpmath as mp

    with mp.workdps(dps):
        tm = mp.mpf(t)
        Am, Bm = _to_mp(A), _to_mp(B)
        means = {"mean": _mp_mean(Am, Bm, tm),
                 "i": _mp_mean(_mp_power(Am, (1 - tm) / tm), _mp_power(Bm, -1), 1 - tm),
                 "iii": _mp_mean(Bm, _mp_power(Am, (tm - 1) / tm), 1 - tm)}
        return {key: np.array([[complex(M[i, j]) for j in range(M.cols)] for i in range(M.rows)])
                for key, M in means.items()}


def mp_gamma_error(A, B, t, dps=500):
    """Extended-precision ||gamma(t) - A||_F, gamma(t) = (A^{(1-t)/2t} B A^{(1-t)/2t})^t.

    The default 500 digits hold every eigenvalue of the graded sandwich down
    to t = 0.01 on a [1, 1e4] box, a grading of about 1e400.
    """
    import mpmath as mp

    with mp.workdps(dps):
        tm = mp.mpf(t)
        Em, Qm = _mp_sandwich_eig(A, B, tm)
        D = Qm * mp.diag([mp.power(e, tm) for e in Em]) * Qm.H
        A = np.asarray(A, dtype=complex)
        return mp.sqrt(sum(abs(D[i, j] - mp.mpc(A[i, j])) ** 2
                           for i in range(D.rows) for j in range(D.cols)))


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


# ------------------------------------------------------------ suite oracles


def _spd_oracle(lam, Z):
    """The SPD matrix with eigenvalues lam and the eigenvectors of the QR
    factor of Z, its R diagonal made positive."""
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R)
    U = Q * (d / np.abs(d))
    return symmetrize((U * lam) @ U.conj().T)


def random_spd_oracle(n, alpha, beta, seed):
    """One seeded SPD draw: eigenvalues uniform in [alpha, beta], eigenvectors
    from the QR factor of a complex Gaussian matrix with a positive R diagonal."""
    rng = np.random.default_rng(seed)
    lam = rng.uniform(alpha, beta, size=n)
    return _spd_oracle(lam, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def random_hermitian_oracle(n, seed, scale=1.0):
    """One seeded Hermitian draw with Gaussian entries, real parts first."""
    rng = np.random.default_rng(seed)
    H = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return symmetrize(scale * H)


class Family:
    """The input family ``family`` of a suite run on ``seed``: a uniform and
    a Gaussian Generator, seeded from derive_seed(seed, suite, family, stream)."""

    def __init__(self, seed, suite, family):
        self.uniform, self.normal = (np.random.default_rng(derive_seed(seed, suite, family, stream))
                                     for stream in ("uniform", "normal"))

    def trial(self, n, count, lo, hi):
        """The next trial's ``count`` SPD matrices on the box [lo, hi]: first
        every eigenvalue draw, then every Gaussian matrix, real part first."""
        lams = [self.uniform.uniform(lo, hi, size=n) for _ in range(count)]
        Zs = [self.normal.standard_normal((n, n)) + 1j * self.normal.standard_normal((n, n))
              for _ in range(count)]
        return [_spd_oracle(lam, Z) for lam, Z in zip(lams, Zs)]


def _density_pair(A, R, mix=0.005):
    A = A / float(np.trace(A).real)
    R = R / float(np.trace(R).real)
    return A, (1.0 - mix) * A + mix * R


def _sorted_eigs(M):
    return np.linalg.eigvalsh(symmetrize(M))[::-1]


def trace_chain_links_oracle(A, B, t):
    """The four trace-chain links of one pair, from the scalar functions."""
    return [
        float(np.trace(geometric_mean(A, B, t)).real),
        float(np.trace(matrix_power(A, 1.0 - t) @ matrix_power(B, t)).real),
        sandwich_trace(A, B, t),
        (1.0 - t) * float(np.trace(A).real) + t * float(np.trace(B).real),
    ]


def trace_chain_suite_oracle(n, trials, seed, t_values=(0.1, 0.3, 0.5, 0.7, 0.9)):
    rows = []
    pairs = Family(seed, "trace-chain", "pairs")
    for _ in range(trials):
        A, B = pairs.trial(n, 2, 0.5, 2.0)
        for t in t_values:
            links = trace_chain_links_oracle(A, B, t)
            tol = MAJORIZE_RTOL * links[-1]
            margins = [vb - va for va, vb in zip(links[:-1], links[1:])]
            rows.append((all(m >= -tol for m in margins), min(margins)))
    violations = sum(1 for ok, _ in rows if not ok)
    return {"suite": "trace-chain", "n": n, "trials": trials, "seed": seed, "t": list(t_values),
            "checks": len(rows), "violations": violations,
            "worst_margin": float(min(m for _, m in rows)), "all_hold": bool(violations == 0)}


def log_major_chain_oracle(A, B, t):
    """all_hold of the log-majorization chains of one pair at order t."""
    lam_g = _sorted_eigs(geometric_mean(A, B, t))
    A_half = matrix_power(A, (1.0 - t) / 2.0)
    Bt = matrix_power(B, t)
    lam_p = _sorted_eigs(A_half @ Bt @ A_half)
    s_p = np.linalg.svd(matrix_power(A, 1.0 - t) @ Bt, compute_uv=False)
    lam_sw = sandwich_spectrum(A, B, t)[::-1] ** float(t)
    lam_avg = _sorted_eigs((1.0 - t) * A + t * B)
    verdicts = [majorizes(lam_g, lam_p, "log_majorize")]
    if t >= 0.5:
        verdicts += [majorizes(lam_p, lam_sw, "log_majorize"), majorizes(lam_sw, s_p, "log_majorize"),
                     majorizes(s_p, lam_avg, "entrywise_le")]
    if t <= 0.5:
        verdicts += [majorizes(lam_p, s_p, "log_majorize"), majorizes(s_p, lam_sw, "log_majorize")]
    if t == 0.5:
        verdicts += [majorizes(lam_sw, s_p, "entrywise_le"), majorizes(s_p, lam_sw, "entrywise_le")]
    return all(v.holds for v in verdicts)


def log_major_suite_oracle(n, trials, seed, t_values=(0.25, 0.5, 0.75)):
    rows = []
    pairs = Family(seed, "log-major", "pairs")
    for _ in range(trials):
        A, B = pairs.trial(n, 2, 0.5, 2.0)
        rows += [log_major_chain_oracle(A, B, t) for t in t_values]
    violations = sum(1 for ok in rows if not ok)
    return {"suite": "log-major", "n": n, "trials": trials, "seed": seed, "t": list(t_values),
            "checks": len(rows), "violations": violations, "all_hold": bool(violations == 0)}


def _powered_trace(M, s):
    return float(np.sum(_sorted_eigs(M) ** s))


def variational_value_oracle(A, B, t, X, rep):
    """A representation objective at X from matrix powers of A and B."""
    X = symmetrize(X)
    s = t / (t - 1.0)
    if rep in ("i", "ii"):
        Q = matrix_power(A, (t - 1.0) / (2.0 * t))
        u = _powered_trace(Q @ X @ Q, s)
        v = float(np.trace(X @ B).real)
        return (1.0 - t) * u + t * v if rep == "i" else u ** (1.0 - t) * v**t
    Bri = matrix_power(B, -0.5)
    u = float(np.trace(matrix_power(A, (1.0 - t) / t) @ X).real)
    w = _powered_trace(Bri @ X @ Bri, s)
    return t * u + (1.0 - t) * w if rep == "iii" else u**t * w ** (1.0 - t)


def variational_suite_oracle(n, trials, seed, t_values=(0.3, 0.5, 0.7)):
    rows = []
    pairs, probes = Family(seed, "variational", "pairs"), Family(seed, "variational", "probes")
    for i in range(trials):
        A, B = pairs.trial(n, 2, 0.5, 2.0)
        t = t_values[i % len(t_values)]
        F = sandwich_trace(A, B, t)
        (X,) = probes.trial(n, 1, 0.25, 4.0)
        lower_ok = all(variational_value_oracle(A, B, t, X, rep) >= F * (1.0 - 1e-9)
                       for rep in REPRESENTATIONS)
        X0 = geometric_mean(B, matrix_power(A, (t - 1.0) / t), 1.0 - t)
        tight_ok = all(abs(variational_value_oracle(A, B, t, X0, rep) - F) <= 1e-9 * F
                       for rep in ("iii", "iv"))
        rows.append((lower_ok, tight_ok))
    lower = sum(1 for ok, _ in rows if not ok)
    tight = sum(1 for _, ok in rows if not ok)
    return {"suite": "variational", "n": n, "trials": trials, "seed": seed, "t": list(t_values),
            "lower_bound_violations": lower, "tightness_violations": tight,
            "all_hold": bool(lower == 0 and tight == 0)}


def limits_suite_oracle(n, trials, seed):
    gamma = div = 0
    gamma_pairs, density_pairs = Family(seed, "limits", "gamma"), Family(seed, "limits", "density")
    for _ in range(trials):
        gamma += not gamma_limit_check(*gamma_pairs.trial(n, 2, 0.5, 2.0), DEFAULT_GAMMA_GRID)["all_hold"]
        div += not divergence_limit_check(*_density_pair(*density_pairs.trial(n, 2, 1.0, 2.0)))["all_hold"]
    return {"suite": "limits", "n": n, "trials": trials, "seed": seed, "gamma_violations": gamma,
            "divergence_violations": div, "all_hold": bool(gamma == 0 and div == 0)}


def gauge_check_oracle(fn, p, trials, seed, n):
    """Midpoint convexity of A -> ||f(A)||_p, one pair at a time."""
    strict = _is_strictly_convex_id(fn)

    def fnorm(M):
        vals = fn(np.linalg.eigvalsh(symmetrize(M)))
        return float(np.sum(np.abs(vals) ** p) ** (1.0 / p))

    results = []
    pairs = Family(seed, "gauge", "pairs")
    for _ in range(trials):
        A, B = pairs.trial(n, 2, 0.5, 2.0)
        lhs = fnorm((A + B) / 2.0)
        rhs = (fnorm(A) + fnorm(B)) / 2.0
        scale = max(abs(lhs), abs(rhs))
        margin = rhs - lhs
        separated = float(np.linalg.norm(A - B)) >= 0.1
        results.append((margin / max(scale, 1e-300), margin >= -MAJORIZE_RTOL * scale,
                        (not (strict and separated)) or margin > 1e-12 * scale))
    violations = sum(1 for _, ok, _ in results if not ok)
    strict_violations = sum(1 for _, _, ok in results if not ok)
    return {"function": {"kind": fn.kind, "exponent": fn.exponent}, "p": float(p), "n": n,
            "trials": trials, "seed": seed, "violations": violations,
            "strict_violations": strict_violations,
            "worst_margin": min(m for m, _, _ in results),
            "all_hold": bool(violations == 0 and strict_violations == 0)}


def gauge_suite_oracle(n, trials, seed):
    reports = [gauge_check_oracle(fn, p, trials, derive_seed(seed, "gauge-panel", idx), n)
               for idx, (fn, p) in enumerate(GAUGE_PANEL)]
    return {"suite": "gauge", "n": n, "trials": trials, "seed": seed, "checks": reports,
            "all_hold": bool(all(r["all_hold"] for r in reports))}


def open_question_suite_oracle(n, trials, seed, t_grid=(0.25,), alpha=0.5, beta=2.0):
    checked = {rel: 0 for rel in OPEN_QUESTION_RELATIONS}
    worst = {rel: np.inf for rel in OPEN_QUESTION_RELATIONS}
    candidates, pairs_of = [], []
    pairs = Family(seed, "open-question", "pairs")
    for i in range(trials):
        A, B = pairs.trial(n, 2, alpha, beta)
        for t in t_grid:
            x = sandwich_spectrum(A, B, t)[::-1] ** float(t)
            y = _sorted_eigs((1.0 - t) * A + t * B)
            for rel in OPEN_QUESTION_RELATIONS:
                v = majorizes(x, y, rel)
                checked[rel] += 1
                worst[rel] = min(worst[rel], v.worst_margin)
                if not v.holds:
                    candidates.append({"trial": i, "t": t, "relation": rel, "float_margin": v.worst_margin})
                    pairs_of.append((A, B))
    confirmed = 0
    for cand, (A, B) in zip(candidates[:50], pairs_of):
        margin, scale = _mp_relation_margin(A, B, cand["t"], cand["relation"])
        cand["mp_margin"] = str(margin)
        cand["confirmed"] = bool(margin < -1e-30 * max(scale, 1))
        cand["a"] = matrix_to_json(A)
        cand["b"] = matrix_to_json(B)
        confirmed += int(cand["confirmed"])
    return {"suite": "open-question", "n": n, "t_grid": list(t_grid), "trials": trials,
            "seed": seed, "alpha": alpha, "beta": beta, "checked": checked,
            "worst_margins": {rel: float(worst[rel]) for rel in OPEN_QUESTION_RELATIONS},
            "float_violations": len(candidates), "confirmed_violations": confirmed,
            "candidates_truncated": len(candidates) > 50, "candidates": candidates,
            "all_hold": True}


# suite name -> oracle(n, trials, seed), the per-trial form of run_suite
SUITE_ORACLES = {
    "trace-chain": trace_chain_suite_oracle,
    "log-major": log_major_suite_oracle,
    "variational": variational_suite_oracle,
    "limits": limits_suite_oracle,
    "gauge": gauge_suite_oracle,
    "open-question": open_question_suite_oracle,
}
