"""Numerical verification of trace, majorization, and variational inequalities.

Covers the four-link trace chain, the log-majorization chains for the two
order-parameter regimes, the variational lower bounds for the sandwiched
trace functional, the small-t limit envelope, Schatten-norm convexity of
induced matrix functions, and an exploratory search on the open domination
question for t <= 1/2. Trials are independent, seeded, and run serially in
trial order; reports are plain dicts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropy import (
    T_MIN,
    check_unit_t,
    fidelity,
    geometric_mean,
    sandwich_trace,
    sandwiched_divergence,
    thompson_metric,
    umegaki_relative_entropy,
)
from .errors import DomainError, InvalidInput, ParameterError
from .linalg import (
    ScalarFunction,
    as_hermitian,
    derive_seed,
    matrix_power,
    norm,
    power,
    project_box,
    random_spd,
    spectral_decompose,
    symmetrize,
)
from .serialization import canonical_json, matrix_to_json

RELATIONS = ("weak_majorize", "majorize", "weak_log_majorize", "log_majorize", "entrywise_le")

# Verdict tolerances are relative to the largest aggregate in the comparison:
# chains mix quantities spanning orders of magnitude with condition number.
MAJORIZE_RTOL = 1e-10

DEFAULT_GAMMA_GRID = (0.2, 0.1, 0.05, 0.01, 0.005)


@dataclass(frozen=True)
class MajorizationVerdict:
    """Outcome of one majorization comparison over decreasing rearrangements.

    ``worst_margin`` is the most-violated partial sum/product difference;
    positive means satisfied with room.
    """

    relation: str
    holds: bool
    worst_margin: float


@dataclass(frozen=True)
class ComparisonVerdict:
    """Outcome of one scalar comparison lhs <= rhs."""

    label: str
    lhs: float
    rhs: float
    margin: float
    holds: bool


@dataclass(frozen=True)
class ChainReport:
    """Labelled link values plus the verdicts tying consecutive links."""

    link_values: list
    verdicts: list
    all_hold: bool


def majorizes(x, y, kind) -> MajorizationVerdict:
    """Check a (weak/log) majorization or entrywise relation x against y."""
    if kind not in RELATIONS:
        raise InvalidInput(f"unknown relation kind {kind!r}")
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise InvalidInput(f"length mismatch: {x.shape} vs {y.shape}")
    xs = np.sort(x)[::-1]
    ys = np.sort(y)[::-1]
    if kind == "entrywise_le":
        margins = ys - xs
        scale = float(np.max(np.abs(np.concatenate([xs, ys])), initial=0.0))
    else:
        if kind in ("weak_log_majorize", "log_majorize"):
            if xs[-1] <= 0 or ys[-1] <= 0:
                raise DomainError("log relations require strictly positive entries")
            ax = np.cumprod(xs)
            ay = np.cumprod(ys)
        else:
            ax = np.cumsum(xs)
            ay = np.cumsum(ys)
        margins = ay - ax
        if kind in ("majorize", "log_majorize"):
            # total aggregate must match: equality enters as a two-sided margin
            margins = np.concatenate([margins[:-1], [-abs(ax[-1] - ay[-1])]])
        scale = float(np.max(np.abs(np.concatenate([ax, ay])), initial=0.0))
    worst = float(np.min(margins))
    return MajorizationVerdict(kind, bool(worst >= -MAJORIZE_RTOL * scale), worst)


def _sorted_eigs(M):
    return np.linalg.eigvalsh(symmetrize(M))[::-1]


def trace_chain_check(A, B, t) -> ChainReport:
    """Four-link trace chain from the geometric to the arithmetic mean.

    tr A#_tB <= tr A^{1-t}B^t <= tr(A^{(1-t)/2t} B A^{(1-t)/2t})^t
    <= tr[(1-t)A + tB], with tolerance 1e-10 times the last link.
    """
    check_unit_t(t)
    l1 = float(np.trace(geometric_mean(A, B, t)).real)
    l2 = float(np.trace(matrix_power(A, 1.0 - t) @ matrix_power(B, t)).real)
    l3 = sandwich_trace(A, B, t)
    l4 = (1.0 - t) * float(np.trace(A).real) + t * float(np.trace(B).real)
    links = [
        ("tr_geometric_mean", l1),
        ("tr_power_product", l2),
        ("tr_sandwich", l3),
        ("tr_arithmetic_mean", l4),
    ]
    tol = MAJORIZE_RTOL * l4
    verdicts = []
    for (la, va), (lb, vb) in zip(links[:-1], links[1:]):
        verdicts.append(
            ComparisonVerdict(f"{la}<={lb}", va, vb, vb - va, bool(vb - va >= -tol))
        )
    return ChainReport(links, verdicts, all(v.holds for v in verdicts))


REPRESENTATIONS = ("i", "ii", "iii", "iv")


def variational_value(A, B, t, X, rep):
    """Objective value of one extremal representation of the sandwiched trace.

    Each representation is minimized over SPD X with minimum value
    fidelity(A, B, t); "i"/"iii" are trace sums, "ii"/"iv" their
    scale-invariant product forms.
    """
    check_unit_t(t)
    if rep not in REPRESENTATIONS:
        raise InvalidInput(f"unknown representation {rep!r}")
    X = as_hermitian(X)
    s = t / (t - 1.0)

    def powered_trace(M):
        w = _sorted_eigs(M)
        if w[-1] <= 0:
            raise DomainError("representation objectives need a positive definite X")
        return float(np.sum(w**s))

    if rep in ("i", "ii"):
        Q = matrix_power(A, (t - 1.0) / (2.0 * t))
        u = powered_trace(Q @ X @ Q)
        v = float(np.trace(X @ B).real)
        if rep == "i":
            return (1.0 - t) * u + t * v
        return u ** (1.0 - t) * v**t
    Bri = matrix_power(B, -0.5)
    u = float(np.trace(matrix_power(A, (1.0 - t) / t) @ X).real)
    w = powered_trace(Bri @ X @ Bri)
    if rep == "iii":
        return t * u + (1.0 - t) * w
    return u**t * w ** (1.0 - t)


def variational_minimizer(A, B, t):
    """Minimizer B #_{1-t} A^{(t-1)/t} of representations iii and iv."""
    check_unit_t(t)
    return geometric_mean(B, matrix_power(A, (t - 1.0) / t), 1.0 - t)


def _representation_gradient(A, B, t, X, rep):
    s = t / (t - 1.0)
    Att = matrix_power(A, (t - 1.0) / t)
    Xi = matrix_power(X, -1.0)
    if rep == "i":
        return symmetrize(t * (B - geometric_mean(Att, Xi, 1.0 / (1.0 - t))))
    # rep "ii": grad of u^{1-t} v^t with u = tr (QXQ)^s, v = tr XB
    Q = matrix_power(A, (t - 1.0) / (2.0 * t))
    u = float(np.sum(_sorted_eigs(Q @ X @ Q) ** s))
    v = float(np.trace(X @ B).real)
    grad_u = s * geometric_mean(Att, Xi, 1.0 - s)
    return symmetrize((1.0 - t) * u ** (-t) * v**t * grad_u + t * u ** (1.0 - t) * v ** (t - 1.0) * B)


def minimize_representation(A, B, t, rep, x0=None, max_iters=5000, grad_rtol=1e-9):
    """Locally minimize representation "i" or "ii" by projected gradient descent.

    Starts at the iii/iv minimizer, projects onto a generous spectral box
    around the start, and backtracks the step size on non-descent. The step
    is seeded from a finite-difference smoothness estimate. Returns the final
    iterate and objective value.
    """
    if rep not in ("i", "ii"):
        raise InvalidInput(f"local minimization supports reps i/ii, got {rep!r}")
    X = as_hermitian(variational_minimizer(A, B, t) if x0 is None else x0)
    w = np.linalg.eigvalsh(X)
    lo, hi = w[0] / 50.0, w[-1] * 50.0

    val = variational_value(A, B, t, X, rep)
    G = _representation_gradient(A, B, t, X, rep)
    h = 1e-4 * max(norm(X), 1e-8)
    D = np.eye(X.shape[0], dtype=complex)
    Gp = _representation_gradient(A, B, t, project_box(X + h * D, lo, hi), rep)
    lips = np.linalg.norm(Gp - G) / (h * np.linalg.norm(D))
    eta = 1.0 / max(lips, 1e-8)

    for _ in range(max_iters):
        gn = np.linalg.norm(G)
        if gn <= grad_rtol * (1.0 + abs(val)):
            break
        accepted = False
        for _ in range(60):
            Xn = project_box(X - eta * G, lo, hi)
            val_n = variational_value(A, B, t, Xn, rep)
            if val_n <= val + 1e-14 * (1.0 + abs(val)):
                accepted = True
                break
            eta /= 2.0
        if not accepted:
            break
        X, val = Xn, val_n
        G = _representation_gradient(A, B, t, X, rep)
    return X, val


def log_majorization_chain(A, B, t) -> ChainReport:
    """Eigenvalue/singular-value chains around the sandwiched power.

    For t >= 1/2:  lam(A#_tB) <log lam(A^{1-t}B^t) <log lam(sandwich)^t
    <log s(A^{1-t}B^t) <= lam((1-t)A + tB) entrywise.
    For t <= 1/2 the sandwiched power moves to the end and the entrywise
    link is the open question, not asserted here. At t = 1/2 both chains are
    checked and their shared links must agree.
    """
    check_unit_t(t)
    lam_g = _sorted_eigs(geometric_mean(A, B, t))
    A_half = matrix_power(A, (1.0 - t) / 2.0)
    Bt = matrix_power(B, t)
    lam_p = _sorted_eigs(A_half @ Bt @ A_half)
    s_p = np.linalg.svd(matrix_power(A, 1.0 - t) @ Bt, compute_uv=False)
    P = matrix_power(A, (1.0 - t) / (2.0 * t))
    lam_sw = _sorted_eigs(P @ B @ P) ** float(t)
    lam_avg = _sorted_eigs((1.0 - t) * A + t * B)

    links = [
        ("geometric_mean", lam_g.tolist()),
        ("power_product", lam_p.tolist()),
        ("sandwich_power", lam_sw.tolist()),
        ("power_product_singular", s_p.tolist()),
        ("arithmetic_mean", lam_avg.tolist()),
    ]
    verdicts = [majorizes(lam_g, lam_p, "log_majorize")]
    if t >= 0.5:
        verdicts.append(majorizes(lam_p, lam_sw, "log_majorize"))
        verdicts.append(majorizes(lam_sw, s_p, "log_majorize"))
        verdicts.append(majorizes(s_p, lam_avg, "entrywise_le"))
    if t <= 0.5:
        verdicts.append(majorizes(lam_p, s_p, "log_majorize"))
        verdicts.append(majorizes(s_p, lam_sw, "log_majorize"))
    if t == 0.5:
        # both chains apply; their middle links must be the same vector
        verdicts.append(majorizes(lam_sw, s_p, "entrywise_le"))
        verdicts.append(majorizes(s_p, lam_sw, "entrywise_le"))
    return ChainReport(links, verdicts, all(v.holds for v in verdicts))


def gamma_limit_check(A, B, t_grid=DEFAULT_GAMMA_GRID):
    """Small-t limit of the sandwiched power: gamma(t) -> A with envelope.

    Verifies lam_min(B)^t A^{1-t} <= gamma(t) <= lam_max(B)^t A^{1-t} at
    each grid point and that the final error sits below the envelope-implied
    bound sqrt(n) max_i |c^t a_i^{1-t} - a_i| over both envelope constants.
    """
    for t in t_grid:
        check_unit_t(t)
    a_eigs = np.linalg.eigvalsh(as_hermitian(A))
    b_eigs = np.linalg.eigvalsh(as_hermitian(B))
    alpha, beta = float(b_eigs[0]), float(b_eigs[-1])
    n = len(a_eigs)

    errors, envelope_ok = [], []
    for t in t_grid:
        G = _graded_sandwich_power(A, B, t)
        errors.append(float(np.linalg.norm(G - A)))
        A1mt = matrix_power(A, 1.0 - t)
        lo = alpha**t * A1mt
        hi = beta**t * A1mt
        scale = norm(hi, "operator")
        ok = (
            np.linalg.eigvalsh(symmetrize(G - lo))[0] >= -MAJORIZE_RTOL * scale
            and np.linalg.eigvalsh(symmetrize(hi - G))[0] >= -MAJORIZE_RTOL * scale
        )
        envelope_ok.append(bool(ok))

    t_last = t_grid[-1]
    dev = max(
        float(np.max(np.abs(beta**t_last * a_eigs ** (1.0 - t_last) - a_eigs))),
        float(np.max(np.abs(alpha**t_last * a_eigs ** (1.0 - t_last) - a_eigs))),
    )
    final_bound = float(np.sqrt(n) * dev)
    final_ok = errors[-1] <= final_bound * (1.0 + 1e-10)
    return {
        "t_grid": list(t_grid),
        "errors": errors,
        "envelope_ok": envelope_ok,
        "final_error": errors[-1],
        "final_bound": final_bound,
        "all_hold": bool(all(envelope_ok) and final_ok),
    }


def _jacobi_eigh(H, max_sweeps=60, tol=1e-15):
    """Cyclic Jacobi eigendecomposition of a Hermitian positive definite matrix.

    Uses the relative off-diagonal criterion |H_pq| <= tol sqrt(H_pp H_qq),
    which keeps all eigenvalues of strongly graded matrices D M D (diagonal D,
    well-conditioned M) accurate in the relative sense where a standard
    tridiagonalization-based solver loses the small ones entirely.
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
    w = H.diagonal().real
    order = np.argsort(w)[::-1]
    return w[order], V[:, order]


def _graded_sandwich_power(A, B, t):
    """(A^{(1-t)/2t} B A^{(1-t)/2t})^t for small t, stable under grading.

    In the eigenbasis of A the inner matrix is diag(a^m) U*BU diag(a^m) with
    m = (1-t)/2t; its dynamic range grows like cond(A)^{2m}, far past what a
    standard eigensolver resolves, so the graded Jacobi decomposition is used
    before the compressing power t is applied.
    """
    decA = spectral_decompose(A)
    d = decA.eigenvalues ** ((1.0 - t) / (2.0 * t))
    U = decA.eigenvectors
    Bt = U.conj().T @ B @ U
    H = (d[:, None] * d[None, :]) * ((Bt + Bt.conj().T) / 2.0)
    w, V = _jacobi_eigh(H)
    W = U @ V
    return symmetrize((W * w ** float(t)) @ W.conj().T)


DENSITY_TOL = 1e-10
NEAR_ONE_GRID = (1e-3, 1e-4)
LARGE_T_GRID = (8.0, 16.0, 32.0, 64.0)


def divergence_limit_check(A, B):
    """Limits of the sandwiched divergence for density matrices.

    Near t = 1 the divergence must sit within 10 |t-1| (1 + |RE|) of the
    Umegaki relative entropy. For large t both the Thompson metric and
    log lam_1(A^{-1/2} B A^{-1/2}) are recorded; a monotone approach to the
    latter is asserted, equality with neither.
    """
    if abs(float(np.trace(A).real) - 1.0) > DENSITY_TOL or abs(
        float(np.trace(B).real) - 1.0
    ) > DENSITY_TOL:
        raise DomainError("divergence limits are checked for density matrices (unit trace)")
    re_value = umegaki_relative_entropy(B, A)

    near_one = []
    near_ok = True
    for h in NEAR_ONE_GRID:
        for tshift in (1.0 - h, 1.0 + h):
            d = sandwiched_divergence(A, B, tshift)
            bound = 10.0 * h * (1.0 + abs(re_value))
            ok = abs(d - re_value) <= bound
            near_ok = near_ok and ok
            near_one.append({"t": tshift, "divergence": d, "bound": bound, "ok": bool(ok)})

    Ami = matrix_power(A, -0.5)
    w = np.linalg.eigvalsh(symmetrize(Ami @ B @ Ami))
    max_rel = float(np.log(w[-1]))
    thompson = thompson_metric(A, B)

    large_t = [{"t": t, "divergence": sandwiched_divergence(A, B, t)} for t in LARGE_T_GRID]
    gaps = [abs(e["divergence"] - max_rel) for e in large_t]
    monotone_ok = all(
        g2 <= g1 * (1.0 + 1e-9) + 1e-12 for g1, g2 in zip(gaps[:-1], gaps[1:])
    )
    return {
        "relative_entropy": re_value,
        "near_one": near_one,
        "large_t": large_t,
        "thompson_metric": thompson,
        "max_relative_form": max_rel,
        "gaps_to_max_relative": gaps,
        "monotone_ok": bool(monotone_ok),
        "near_one_ok": bool(near_ok),
        "all_hold": bool(near_ok and monotone_ok),
    }


def _is_convex_id(fn: ScalarFunction) -> bool:
    if fn.kind == "exp":
        return True
    return fn.kind == "power" and not (0.0 < fn.exponent < 1.0)


def _is_strictly_convex_id(fn: ScalarFunction) -> bool:
    if fn.kind == "exp":
        return True
    return fn.kind == "power" and (fn.exponent > 1.0 or fn.exponent < 0.0)


def gauge_convexity_check(fn: ScalarFunction, p, trials, seed, n=4):
    """Midpoint convexity of A -> ||f(A)||_p on random SPD pairs.

    Requires f convex on the positive axis (power with exponent outside
    (0, 1), or exp). For strictly convex f and well-separated pairs the
    inequality must be strict.
    """
    if not isinstance(fn, ScalarFunction) or not _is_convex_id(fn):
        raise InvalidInput(f"unsupported or non-convex scalar function id {fn!r}")
    if not (np.isfinite(p) and p >= 1):
        raise InvalidInput(f"Schatten order must be in [1, inf), got {p}")
    strict = _is_strictly_convex_id(fn)

    def fnorm(M):
        vals = fn(np.linalg.eigvalsh(symmetrize(M)))
        return float(np.sum(np.abs(vals) ** p) ** (1.0 / p))

    def worker(i):
        Ai = random_spd(n, 0.5, 2.0, derive_seed(seed, "gauge", i, "a"))
        Bi = random_spd(n, 0.5, 2.0, derive_seed(seed, "gauge", i, "b"))
        lhs = fnorm((Ai + Bi) / 2.0)
        rhs = (fnorm(Ai) + fnorm(Bi)) / 2.0
        scale = max(abs(lhs), abs(rhs))
        margin = rhs - lhs
        ok = margin >= -MAJORIZE_RTOL * scale
        separated = float(np.linalg.norm(Ai - Bi)) >= 0.1
        strict_ok = (not (strict and separated)) or margin > 1e-12 * scale
        return margin / max(scale, 1e-300), ok, strict_ok

    results = [worker(i) for i in range(trials)]
    violations = sum(1 for _, ok, _ in results if not ok)
    strict_violations = sum(1 for _, _, ok in results if not ok)
    return {
        "function": {"kind": fn.kind, "exponent": fn.exponent},
        "p": float(p),
        "n": n,
        "trials": trials,
        "seed": seed,
        "violations": violations,
        "strict_violations": strict_violations,
        "worst_margin": min(m for m, _, _ in results),
        "all_hold": bool(violations == 0 and strict_violations == 0),
    }


OPEN_QUESTION_RELATIONS = ("weak_majorize", "weak_log_majorize", "entrywise_le")
_MP_REVERIFY_CAP = 50


def _mp_relation_margin(A, B, t, relation, dps=50):
    """Recompute a relation margin in extended precision; returns (margin, scale)."""
    import mpmath as mp

    with mp.workdps(dps):
        tm = mp.mpf(t)

        def to_mp(M):
            return mp.matrix([[mp.mpc(M[i, j]) for j in range(M.shape[1])] for i in range(M.shape[0])])

        def herm_eig(Mm):
            E, Q = mp.eighe((Mm + Mm.H) / 2)
            return [E[i] for i in range(Mm.rows)], Q

        def mpow(Mm, s):
            E, Q = herm_eig(Mm)
            D = mp.diag([mp.power(e, s) for e in E])
            return Q * D * Q.H

        Am, Bm = to_mp(A), to_mp(B)
        P = mpow(Am, (1 - tm) / (2 * tm))
        sw_eigs, _ = herm_eig(P * Bm * P)
        x = sorted((mp.power(e, tm) for e in sw_eigs), reverse=True)
        avg_eigs, _ = herm_eig((1 - tm) * Am + tm * Bm)
        y = sorted(avg_eigs, reverse=True)

        if relation == "entrywise_le":
            margins = [yi - xi for xi, yi in zip(x, y)]
            scale = max(abs(v) for v in x + y)
        else:
            if relation == "weak_log_majorize":
                ax, ay = [], []
                px = py = mp.mpf(1)
                for xi, yi in zip(x, y):
                    px *= xi
                    py *= yi
                    ax.append(px)
                    ay.append(py)
            else:
                ax = [sum(x[: k + 1]) for k in range(len(x))]
                ay = [sum(y[: k + 1]) for k in range(len(y))]
            margins = [a - b for a, b in zip(ay, ax)]
            scale = max(abs(v) for v in ax + ay)
        return min(margins), scale


def open_question_search(
    n, t_grid, trials, seed, alpha=0.5, beta=2.0, candidates_path=None
):
    """Empirical search on whether lam(sandwich)^t is dominated by lam((1-t)A + tB).

    For t <= 1/2 this domination is open; the search records weak
    majorization, weak log-majorization, and entrywise outcomes for seeded
    random pairs, re-verifies float-level violations in extended precision,
    and makes no claim either way.
    """
    if not 1 <= n <= 8:
        raise InvalidInput(f"search dimension must be in [1, 8], got {n}")
    if not 1 <= trials <= 10**6:
        raise InvalidInput(f"trial count must be in [1, 1e6], got {trials}")
    for t in t_grid:
        if not (np.isfinite(t) and T_MIN < t <= 0.5):
            raise ParameterError(f"search order t = {t} outside ({T_MIN}, 0.5]")

    def worker(i):
        sa = derive_seed(seed, "open-question", i, "a")
        sb = derive_seed(seed, "open-question", i, "b")
        Ai = random_spd(n, alpha, beta, sa)
        Bi = random_spd(n, alpha, beta, sb)
        out = []
        for t in t_grid:
            P = matrix_power(Ai, (1.0 - t) / (2.0 * t))
            x = _sorted_eigs(P @ Bi @ P) ** float(t)
            y = _sorted_eigs((1.0 - t) * Ai + t * Bi)
            for rel in OPEN_QUESTION_RELATIONS:
                v = majorizes(x, y, rel)
                out.append((i, t, rel, sa, sb, v.holds, v.worst_margin))
        return out

    rows = [r for i in range(trials) for r in worker(i)]
    checked = {rel: 0 for rel in OPEN_QUESTION_RELATIONS}
    worst = {rel: np.inf for rel in OPEN_QUESTION_RELATIONS}
    candidates = []
    for i, t, rel, sa, sb, holds, margin in rows:
        checked[rel] += 1
        worst[rel] = min(worst[rel], margin)
        if not holds:
            candidates.append(
                {"trial": i, "t": t, "relation": rel, "seed_a": sa, "seed_b": sb,
                 "float_margin": margin}
            )

    truncated = len(candidates) > _MP_REVERIFY_CAP
    confirmed = 0
    for cand in candidates[:_MP_REVERIFY_CAP]:
        Ai = random_spd(n, alpha, beta, cand["seed_a"])
        Bi = random_spd(n, alpha, beta, cand["seed_b"])
        margin, scale = _mp_relation_margin(Ai, Bi, cand["t"], cand["relation"])
        cand["mp_margin"] = str(margin)
        cand["confirmed"] = bool(margin < -1e-30 * max(scale, 1))
        cand["a"] = matrix_to_json(Ai)
        cand["b"] = matrix_to_json(Bi)
        confirmed += int(cand["confirmed"])

    report = {
        "suite": "open-question",
        "n": n,
        "t_grid": list(t_grid),
        "trials": trials,
        "seed": seed,
        "alpha": alpha,
        "beta": beta,
        "checked": checked,
        "worst_margins": {rel: float(worst[rel]) for rel in OPEN_QUESTION_RELATIONS},
        "float_violations": len(candidates),
        "confirmed_violations": confirmed,
        "candidates_truncated": truncated,
        "candidates": candidates,
        # exploratory search: no property is asserted either way
        "all_hold": True,
    }
    if candidates_path is not None:
        with open(candidates_path, "w", encoding="utf-8") as fh:
            fh.write(canonical_json({"candidates": candidates}) + "\n")
    return report


def random_pair(n, seed, label, lo=0.5, hi=2.0):
    """Seeded SPD pair for a verification suite, split off a master seed."""
    return (
        random_spd(n, lo, hi, derive_seed(seed, label, "a")),
        random_spd(n, lo, hi, derive_seed(seed, label, "b")),
    )


def density_pair(n, seed, label, mix=0.005, lo=1.0, hi=2.0):
    """Seeded density-matrix pair; B is a gentle mixture around A.

    The mixing keeps the finite-order divergence close enough to its
    asymptote for the large-t limit checks to be meaningful at t = 64.
    """
    A, R = random_pair(n, seed, label, lo, hi)
    A = A / float(np.trace(A).real)
    R = R / float(np.trace(R).real)
    B = (1.0 - mix) * A + mix * R
    return A, B


def run_trace_chain_suite(n=4, trials=100, seed=0, t_values=(0.1, 0.3, 0.5, 0.7, 0.9)):
    def worker(i):
        Ai, Bi = random_pair(n, derive_seed(seed, "trace-chain", i), "pair")
        out = []
        for t in t_values:
            rep = trace_chain_check(Ai, Bi, t)
            out.append((rep.all_hold, min(v.margin for v in rep.verdicts)))
        return out

    rows = [r for i in range(trials) for r in worker(i)]
    violations = sum(1 for ok, _ in rows if not ok)
    return {
        "suite": "trace-chain",
        "n": n,
        "trials": trials,
        "seed": seed,
        "t": list(t_values),
        "checks": len(rows),
        "violations": violations,
        "worst_margin": float(min(m for _, m in rows)),
        "all_hold": bool(violations == 0),
    }


def run_variational_suite(n=4, trials=100, seed=0, t_values=(0.3, 0.5, 0.7)):
    def worker(i):
        trial_seed = derive_seed(seed, "variational", i)
        Ai, Bi = random_pair(n, trial_seed, "pair")
        t = t_values[i % len(t_values)]
        F = fidelity(Ai, Bi, t)
        X = random_spd(n, 0.25, 4.0, derive_seed(trial_seed, "probe"))
        lower_ok = all(
            variational_value(Ai, Bi, t, X, rep) >= F * (1.0 - 1e-9)
            for rep in REPRESENTATIONS
        )
        X0 = variational_minimizer(Ai, Bi, t)
        tight_ok = all(
            abs(variational_value(Ai, Bi, t, X0, rep) - F) <= 1e-9 * F
            for rep in ("iii", "iv")
        )
        return lower_ok, tight_ok

    rows = [worker(i) for i in range(trials)]
    lower_violations = sum(1 for ok, _ in rows if not ok)
    tight_violations = sum(1 for _, ok in rows if not ok)
    return {
        "suite": "variational",
        "n": n,
        "trials": trials,
        "seed": seed,
        "t": list(t_values),
        "lower_bound_violations": lower_violations,
        "tightness_violations": tight_violations,
        "all_hold": bool(lower_violations == 0 and tight_violations == 0),
    }


def run_log_major_suite(n=4, trials=100, seed=0, t_values=(0.25, 0.5, 0.75)):
    def worker(i):
        Ai, Bi = random_pair(n, derive_seed(seed, "log-major", i), "pair")
        return [log_majorization_chain(Ai, Bi, t).all_hold for t in t_values]

    rows = [ok for i in range(trials) for ok in worker(i)]
    violations = sum(1 for ok in rows if not ok)
    return {
        "suite": "log-major",
        "n": n,
        "trials": trials,
        "seed": seed,
        "t": list(t_values),
        "checks": len(rows),
        "violations": violations,
        "all_hold": bool(violations == 0),
    }


def run_limits_suite(n=4, trials=100, seed=0):
    def worker(i):
        trial_seed = derive_seed(seed, "limits", i)
        Ai, Bi = random_pair(n, trial_seed, "gamma")
        gamma_ok = gamma_limit_check(Ai, Bi)["all_hold"]
        Ad, Bd = density_pair(n, trial_seed, "density")
        div_ok = divergence_limit_check(Ad, Bd)["all_hold"]
        return gamma_ok, div_ok

    rows = [worker(i) for i in range(trials)]
    gamma_violations = sum(1 for ok, _ in rows if not ok)
    div_violations = sum(1 for _, ok in rows if not ok)
    return {
        "suite": "limits",
        "n": n,
        "trials": trials,
        "seed": seed,
        "gamma_violations": gamma_violations,
        "divergence_violations": div_violations,
        "all_hold": bool(gamma_violations == 0 and div_violations == 0),
    }


GAUGE_PANEL = (
    (power(2.0), 1.0),
    (power(2.0), 2.0),
    (power(-1.0), 2.0),
    (power(-1.0), 3.0),
    (ScalarFunction("exp"), 1.0),
    (ScalarFunction("exp"), 2.0),
)


def run_gauge_suite(n=4, trials=100, seed=0):
    reports = [
        gauge_convexity_check(fn, p, trials, derive_seed(seed, "gauge-panel", idx), n=n)
        for idx, (fn, p) in enumerate(GAUGE_PANEL)
    ]
    return {
        "suite": "gauge",
        "n": n,
        "trials": trials,
        "seed": seed,
        "checks": reports,
        "all_hold": bool(all(r["all_hold"] for r in reports)),
    }


SUITES = ("trace-chain", "variational", "log-major", "limits", "gauge", "open-question")


def run_suite(suite, n=4, trials=100, seed=0, t_values=None):
    """Dispatch one named verification suite and return its report dict."""
    if suite == "trace-chain":
        kw = {} if t_values is None else {"t_values": tuple(t_values)}
        return run_trace_chain_suite(n=n, trials=trials, seed=seed, **kw)
    if suite == "variational":
        kw = {} if t_values is None else {"t_values": tuple(t_values)}
        return run_variational_suite(n=n, trials=trials, seed=seed, **kw)
    if suite == "log-major":
        kw = {} if t_values is None else {"t_values": tuple(t_values)}
        return run_log_major_suite(n=n, trials=trials, seed=seed, **kw)
    if suite == "limits":
        return run_limits_suite(n=n, trials=trials, seed=seed)
    if suite == "gauge":
        return run_gauge_suite(n=n, trials=trials, seed=seed)
    if suite == "open-question":
        grid = (0.25,) if t_values is None else tuple(t_values)
        return open_question_search(n, grid, trials, seed)
    raise InvalidInput(f"unknown suite {suite!r}; choose from {SUITES}")
