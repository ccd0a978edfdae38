"""Numerical verification of trace, majorization, and variational inequalities.

Covers the four-link trace chain, the log-majorization chains for the two
order-parameter regimes, the variational lower bounds for the sandwiched
trace functional, the small-t limit envelope, Schatten-norm convexity of
induced matrix functions, and an exploratory search on the open domination
question for t <= 1/2. Trials are independent and seeded, and reports are
plain dicts.

Every suite draws its trials in trial order and checks them as one batch, in
chunks of ``SUITE_CHUNK`` trials. Its inputs come in families, one kind of
input on one spectral box, and each family draws from two numpy Generators,
uniforms and Gaussians, seeded once per run (``_streams``). A chunk takes
its trials' draws from them in trial-major order, one call per stream,
assembles all inputs that share a spectral box with one
``linalg._spd_from_draws`` call, and decomposes each input once with
``linalg.spectral_decompose``. The trace and log-majorization chains
also whiten each pair once, A^{-1/2} B A^{-1/2} decomposed for every order of
A #_t B. Then each link at each order takes one batched ``eigh``,
``eigvalsh``, ``svd`` or matmul (the limits suite adds one
``linalg.graded_eigh`` call), and the gauge suite checks its whole panel with
one ``eigvalsh``. The per-pair checks ``trace_chain_check``,
``log_majorization_chain``, ``gamma_limit_check`` and
``divergence_limit_check`` run the same batch kernels on a stack of one,
``gauge_convexity_check`` runs the gauge kernel on a panel of one, and
``variational_value`` runs the variational suite's formulas on one matrix.
Neither the chunk size nor the position of a trial in its chunk moves a bit of
any value, so a seed fixes the report byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropy import (
    T_MIN,
    _geometric_mean,
    _mean_at,
    _relative_entropy,
    _sandwich_spectrum,
    _sandwich_trace,
    _sandwiched_divergence,
    _thompson,
    _whiten,
    _whitened_spectrum,
    check_unit_t,
)
from .errors import DomainError, InvalidInput, NumericalError, ParameterError
from .linalg import (
    _SEED_MAX,
    ScalarFunction,
    SpectralDecomp,
    _check_integer,
    _eigenvalues,
    _is_number,
    _spd_from_draws,
    check_box,
    check_matrices,
    derive_seed,
    graded_eigh,
    matrix_power,
    norm,
    power,
    project_box,
    random_spd_stack,
    spectral_decompose,
    symmetrize,
)
from .serialization import canonical_json, matrix_to_json

RELATIONS = ("weak_majorize", "majorize", "weak_log_majorize", "log_majorize", "entrywise_le")

# Verdict tolerances are relative to the largest aggregate in the comparison:
# chains mix quantities spanning orders of magnitude with condition number.
MAJORIZE_RTOL = 1e-10

DEFAULT_GAMMA_GRID = (0.2, 0.1, 0.05, 0.01, 0.005)

# Trials per batch of every suite: memory stays bounded for any trial count,
# and results do not depend on it.
SUITE_CHUNK = 256


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


def _chunks(trials, cap=None):
    """Trial indices in trial order, in ranges of at most SUITE_CHUNK.

    The one trial-count check of every suite: ``InvalidInput`` unless trials
    is an integer (not a bool) in [1, cap].
    """
    trials = _check_integer(trials, "trial count", 1, cap)
    return [range(start, min(start + SUITE_CHUNK, trials)) for start in range(0, trials, SUITE_CHUNK)]


def _order_grid(t_values, check=check_unit_t):
    """The order grid as a tuple, ``check`` run on each order; ``InvalidInput`` if it is empty."""
    t_values = tuple(t_values)
    if not t_values:
        raise InvalidInput("the order grid is empty")
    for t in t_values:
        check(t)
    return t_values


def _streams(seed, suite, *families):
    """(uniform, Gaussian) Generators per input family, from ``derive_seed(seed, suite, family, stream)``.

    ``derive_seed`` checks the seed: an integer (not a bool) in [0, 2**128).
    """
    return [tuple(np.random.default_rng(derive_seed(seed, suite, family, stream))
                  for stream in ("uniform", "normal")) for family in families]


def _draws(streams, k, count, n):
    """Uniforms (count, k, n) and Gaussians (count, k, 2, n, n): k trials of ``count`` matrices.

    One call per stream, in trial-major order; numpy draws consecutive calls
    as one, so no bit depends on the chunk size. The one dimension check of
    every suite.
    """
    n = _check_integer(n, "dimension", 1)
    uniform, normal = streams
    return (uniform.random((k, count, n)).swapaxes(0, 1),
            normal.standard_normal((k, count, 2, n, n)).swapaxes(0, 1))


def _trace(M):
    """Real trace of a matrix or of each matrix of a stack."""
    return np.trace(M, axis1=-2, axis2=-1).real


def _sorted_eigs(M):
    """Eigenvalues of the Hermitian part of M (or of each M of a stack), descending."""
    return _eigenvalues(M)[..., ::-1]


def _libm_pow(x, s):
    """x ** s elementwise, rounded as the C library's pow rounds a float raised to a float.

    numpy raises a contiguous float array with a SIMD kernel, which can differ
    from pow in the last bit, but a reversed 1-D view with pow itself. The
    per-pair formulas raise scalars, so their stacked forms go through one
    reversed view.
    """
    flat = np.ascontiguousarray(x, dtype=float).ravel()
    return np.ascontiguousarray(np.power(flat[::-1], s)[::-1]).reshape(np.shape(x))


def _relation_margins(xs, ys, kind):
    """Margins of relation ``kind`` between decreasingly sorted xs and ys.

    Works along the last axis, on one vector or on a stack of them. Returns
    (margins, scale); a margin >= 0 holds with room. Works alike on float64
    arrays and on mpmath arrays of dtype object.
    """
    if kind == "entrywise_le":
        ax, ay = xs, ys
    elif kind in ("weak_log_majorize", "log_majorize"):
        if np.any(xs[..., -1] <= 0) or np.any(ys[..., -1] <= 0):
            raise DomainError("log relations require strictly positive entries")
        ax, ay = np.cumprod(xs, axis=-1), np.cumprod(ys, axis=-1)
    else:
        ax, ay = np.cumsum(xs, axis=-1), np.cumsum(ys, axis=-1)
    margins = ay - ax
    if kind in ("majorize", "log_majorize"):
        # total aggregate must match: equality enters as a two-sided margin
        margins = np.concatenate([margins[..., :-1], -np.abs(ax[..., -1:] - ay[..., -1:])], axis=-1)
    return margins, np.max(np.abs(np.concatenate([ax, ay], axis=-1)), axis=-1, initial=0.0)


def _verdicts(x, y, kind):
    """(worst margin, holds) of relation ``kind`` between x and y along the last axis."""
    margins, scale = _relation_margins(
        np.sort(x, axis=-1)[..., ::-1], np.sort(y, axis=-1)[..., ::-1], kind)
    worst = np.min(margins, axis=-1)
    return worst, worst >= -MAJORIZE_RTOL * scale


def majorizes(x, y, kind) -> MajorizationVerdict:
    """Check a (weak/log) majorization or entrywise relation x against y."""
    if kind not in RELATIONS:
        raise InvalidInput(f"unknown relation kind {kind!r}")
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise InvalidInput(f"length mismatch: {x.shape} vs {y.shape}")
    if x.size == 0:
        raise InvalidInput("majorization needs non-empty vectors")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise InvalidInput("majorization needs finite entries")
    worst, holds = _verdicts(x, y, kind)
    return MajorizationVerdict(kind, bool(holds), float(worst))


def _decomposed(A, B):
    """(A, B, decA, decB, whitened) for stacks A, B: each decomposed once.

    ``whitened`` is ``_whiten(decA, B)``, the order-free part of A #_t B that
    the trace and log-majorization chains share across their order grids.
    """
    decA = spectral_decompose(A)
    return A, B, decA, spectral_decompose(B), _whiten(decA, B)


def _stack_of_one(A, B):
    """The validated A, B as stacks of one."""
    check_matrices(A=A, B=B)
    return symmetrize(A)[None], symmetrize(B)[None]


TRACE_LINKS = ("tr_geometric_mean", "tr_power_product", "tr_sandwich", "tr_arithmetic_mean")


def trace_chain_check(A, B, t) -> ChainReport:
    """Four-link trace chain from the geometric to the arithmetic mean.

    tr A#_tB <= tr A^{1-t}B^t <= tr(A^{(1-t)/2t} B A^{(1-t)/2t})^t
    <= tr[(1-t)A + tB], with tolerance 1e-10 times the last link. This is the
    batch kernel of the trace-chain suite on a stack of one.
    """
    check_unit_t(t)
    links = _trace_chain_links(*_decomposed(*_stack_of_one(A, B)), t)[0]
    margins, holds = _chain_margins(links)
    values = [float(v) for v in links]
    verdicts = [
        ComparisonVerdict(f"{la}<={lb}", va, vb, float(m), bool(ok))
        for la, lb, va, vb, m, ok in zip(
            TRACE_LINKS[:-1], TRACE_LINKS[1:], values[:-1], values[1:], margins, holds)
    ]
    return ChainReport(list(zip(TRACE_LINKS, values)), verdicts, all(v.holds for v in verdicts))


def _trace_chain_links(A, B, decA, decB, whitened, t):
    """The four trace-chain links (k, 4) of stacks A, B from ``_decomposed(A, B)``."""
    return np.stack([
        _trace(_mean_at(whitened, t)),
        _trace(decA.map(power(1.0 - t)) @ decB.map(power(t))),
        _sandwich_trace(decA, B, t),
        (1.0 - t) * _trace(A) + t * _trace(B),
    ], axis=-1)


def _chain_margins(links):
    """(margins, holds) between consecutive links, tolerance 1e-10 of the last link."""
    margins = links[..., 1:] - links[..., :-1]
    return margins, margins >= -(MAJORIZE_RTOL * links[..., -1:])


REPRESENTATIONS = ("i", "ii", "iii", "iv")


def _powered_trace(M, s):
    """tr M^s for the positive definite M (or each M of a stack) of a representation objective."""
    w = _eigenvalues(M)
    if np.any(w[..., 0] <= 0):
        raise DomainError("representation objectives need a positive definite X")
    return np.sum(_libm_pow(w[..., ::-1], s), axis=-1)


def variational_value(A, B, t, X, rep):
    """Objective value of one extremal representation of the sandwiched trace.

    Each representation is minimized over SPD X with minimum value
    fidelity(A, B, t); "i"/"iii" are trace sums, "ii"/"iv" their
    scale-invariant product forms. The variational suite evaluates the same
    formulas on stacks.
    """
    check_unit_t(t)
    if rep not in REPRESENTATIONS:
        raise InvalidInput(f"unknown representation {rep!r}")
    check_matrices(A=A, B=B, X=X)
    decB = spectral_decompose(B) if rep in ("iii", "iv") else None
    return float(_variational_values(spectral_decompose(A), decB, B, t, symmetrize(X), (rep,))[rep])


def _variational_values(decA, decB, B, t, X, reps):
    """{rep: objective value at X} for the representations ``reps``.

    From the decompositions of A and B; works alike on one matrix and on
    stacks. Representations i/ii share one ``eigvalsh`` and iii/iv another;
    ``decB`` is read only for iii/iv.
    """
    s = t / (t - 1.0)
    values = {}
    if "i" in reps or "ii" in reps:
        Q = decA.map(power((t - 1.0) / (2.0 * t)))
        u = _powered_trace(Q @ X @ Q, s)
        v = _trace(X @ B)
        values["i"] = (1.0 - t) * u + t * v
        values["ii"] = _libm_pow(u, 1.0 - t) * _libm_pow(v, t)
    if "iii" in reps or "iv" in reps:
        Bri = decB.map(power(-0.5))
        u = _trace(decA.map(power((1.0 - t) / t)) @ X)
        w = _powered_trace(Bri @ X @ Bri, s)
        values["iii"] = t * u + (1.0 - t) * w
        values["iv"] = _libm_pow(u, t) * _libm_pow(w, 1.0 - t)
    return values


def variational_minimizer(A, B, t):
    """Minimizer B #_{1-t} A^{(t-1)/t} of representations iii and iv."""
    check_unit_t(t)
    check_matrices(A=A, B=B)
    return _variational_minimizer(spectral_decompose(A), spectral_decompose(B), t)


def _variational_minimizer(decA, decB, t):
    """variational_minimizer from the decompositions of A and B (or of stacks)."""
    return _geometric_mean(decB, decA.map(power((t - 1.0) / t)), 1.0 - t)


def _representation_gradient(decA, decAtt, B, t, X, rep):
    """Gradient of representation i or ii at X.

    From the decompositions of A and of A^{(t-1)/t}, which stay fixed over a
    minimization.
    """
    s = t / (t - 1.0)
    Xi = matrix_power(X, -1.0)
    if rep == "i":
        return symmetrize(t * (B - _geometric_mean(decAtt, Xi, 1.0 / (1.0 - t))))
    # rep "ii": grad of u^{1-t} v^t with u = tr (QXQ)^s, v = tr XB
    Q = decA.map(power((t - 1.0) / (2.0 * t)))
    u = float(_powered_trace(Q @ X @ Q, s))
    v = float(np.trace(X @ B).real)
    grad_u = s * _geometric_mean(decAtt, Xi, 1.0 - s)
    return symmetrize((1.0 - t) * u ** (-t) * v**t * grad_u + t * u ** (1.0 - t) * v ** (t - 1.0) * B)


# minimize_representation stops once the gradient norm is at most this times 1 + |value|.
REPRESENTATION_GRAD_RTOL = 1e-9


def minimize_representation(A, B, t, rep, x0=None, max_iters=5000):
    """Locally minimize representation "i" or "ii" by projected gradient descent.

    Starts at the iii/iv minimizer, projects onto a generous spectral box
    around the start, and backtracks the step size on non-descent. The step
    is seeded from a finite-difference smoothness estimate. A and B are
    decomposed once per call. Returns (X, value, termination): the final
    iterate, its objective value and why the descent stopped, "gradient_tol"
    when the gradient norm reached REPRESENTATION_GRAD_RTOL (1 + |value|), "max_iters" at
    the iteration cap, and "no_descent" when 60 halvings of the step found
    no point that does not increase the objective.
    """
    if rep not in ("i", "ii"):
        raise InvalidInput(f"local minimization supports reps i/ii, got {rep!r}")
    check_unit_t(t)
    _check_integer(max_iters, "max_iters", 0)
    check_matrices(A=A, B=B, **({} if x0 is None else {"x0": x0}))
    decA = spectral_decompose(A)
    X = symmetrize(_variational_minimizer(decA, spectral_decompose(B), t) if x0 is None else x0)
    decAtt = spectral_decompose(decA.map(power((t - 1.0) / t)))
    w = _eigenvalues(X)
    lo, hi = w[0] / 50.0, w[-1] * 50.0

    def value(Y):
        return float(_variational_values(decA, None, B, t, symmetrize(Y), (rep,))[rep])

    def gradient(Y):
        return _representation_gradient(decA, decAtt, B, t, Y, rep)

    val = value(X)
    G = gradient(X)
    h = 1e-4 * max(norm(X), 1e-8)
    D = np.eye(X.shape[0], dtype=complex)
    Gp = gradient(project_box(X + h * D, lo, hi))
    lips = np.linalg.norm(Gp - G) / (h * np.linalg.norm(D))
    eta = 1.0 / max(lips, 1e-8)

    for k in range(max_iters + 1):
        if np.linalg.norm(G) <= REPRESENTATION_GRAD_RTOL * (1.0 + abs(val)):
            return X, val, "gradient_tol"
        if k == max_iters:
            return X, val, "max_iters"
        for _ in range(60):
            Xn = project_box(X - eta * G, lo, hi)
            val_n = value(Xn)
            if val_n <= val + 1e-14 * (1.0 + abs(val)):
                break
            eta /= 2.0
        else:
            return X, val, "no_descent"
        X, val = Xn, val_n
        G = gradient(X)


LOG_MAJOR_LINKS = (
    "geometric_mean", "power_product", "sandwich_power", "power_product_singular", "arithmetic_mean")


def log_majorization_chain(A, B, t) -> ChainReport:
    """Eigenvalue/singular-value chains around the sandwiched power.

    For t >= 1/2:  lam(A#_tB) <log lam(A^{1-t}B^t) <log lam(sandwich)^t
    <log s(A^{1-t}B^t) <= lam((1-t)A + tB) entrywise.
    For t <= 1/2 the sandwiched power moves to the end and the entrywise
    link is the open question, not asserted here. At t = 1/2 both chains are
    checked and their shared links must agree. This is the batch kernel of
    the log-major suite on a stack of one.
    """
    check_unit_t(t)
    links = _log_major_links(*_decomposed(*_stack_of_one(A, B)), t)
    verdicts = []
    for x, y, kind in _log_major_relations(t):
        worst, holds = _verdicts(links[x], links[y], kind)
        verdicts.append(MajorizationVerdict(kind, bool(holds[0]), float(worst[0])))
    return ChainReport([(label, links[label][0].tolist()) for label in LOG_MAJOR_LINKS],
                       verdicts, all(v.holds for v in verdicts))


def _log_major_links(A, B, decA, decB, whitened, t):
    """{link: descending spectra (k, n)} of the log-majorization chains, from ``_decomposed(A, B)``."""
    A_half = decA.map(power((1.0 - t) / 2.0))
    Bt = decB.map(power(t))
    return {
        "geometric_mean": _sorted_eigs(_mean_at(whitened, t)),
        "power_product": _sorted_eigs(A_half @ Bt @ A_half),
        "sandwich_power": _libm_pow(_sandwich_spectrum(decA, B, t)[..., ::-1], t),
        "power_product_singular": np.linalg.svd(decA.map(power(1.0 - t)) @ Bt, compute_uv=False),
        "arithmetic_mean": _sorted_eigs((1.0 - t) * A + t * B),
    }


def _log_major_relations(t):
    """(x link, y link, relation) of every verdict of the chains at order t."""
    relations = [("geometric_mean", "power_product", "log_majorize")]
    if t >= 0.5:
        relations += [("power_product", "sandwich_power", "log_majorize"),
                      ("sandwich_power", "power_product_singular", "log_majorize"),
                      ("power_product_singular", "arithmetic_mean", "entrywise_le")]
    if t <= 0.5:
        relations += [("power_product", "power_product_singular", "log_majorize"),
                      ("power_product_singular", "sandwich_power", "log_majorize")]
    if t == 0.5:
        # both chains apply; their middle links must be the same vector
        relations += [("sandwich_power", "power_product_singular", "entrywise_le"),
                      ("power_product_singular", "sandwich_power", "entrywise_le")]
    return relations


def gamma_limit_check(A, B, t_grid=DEFAULT_GAMMA_GRID):
    """Small-t limit of the sandwiched power: gamma(t) -> A with envelope.

    Verifies lam_min(B)^t A^{1-t} <= gamma(t) <= lam_max(B)^t A^{1-t} at
    each grid point and that the final error sits below the envelope-implied
    bound sqrt(n) max_i |c^t a_i^{1-t} - a_i| over both envelope constants.
    gamma(t)^{1/t} = A^{(1-t)/2t} B A^{(1-t)/2t} is graded like
    cond(A)^{(1-t)/t}; it is decomposed by ``linalg.graded_eigh`` in the
    eigenbasis of A. This is the batch kernel of the limits suite on a stack
    of one, so the suite and this report agree for the same pair.
    """
    t_grid = _order_grid(t_grid)
    out = _gamma_limit_batch(*_stack_of_one(A, B), t_grid)
    errors = [float(e) for e in out["errors"][0]]
    return {
        "t_grid": list(t_grid),
        "errors": errors,
        "envelope_ok": [bool(ok) for ok in out["envelope_ok"][0]],
        "final_error": errors[-1],
        "final_bound": float(out["final_bound"][0]),
        "all_hold": bool(out["all_hold"][0]),
    }


def _gamma_limit_batch(A, B, t_grid):
    """gamma_limit_check on stacks A, B (k, n, n): arrays indexed by trial (and order)."""
    k, n, _ = A.shape
    ts = np.asarray(t_grid, dtype=float)
    decA = spectral_decompose(A)
    decA.require_domain(power(0.5))  # every power of A below is fractional
    a, U = decA.eigenvalues, decA.eigenvectors
    b = _eigenvalues(B)
    alpha, beta = b[:, :1], b[:, -1:]

    # In the eigenbasis of A, gamma(t)^{1/t} is diag(a^m) U*BU diag(a^m) with
    # m = (1-t)/2t: all (trial, order) pairs go through one graded_eigh
    Bt = symmetrize(U.conj().swapaxes(-1, -2) @ B @ U)
    with np.errstate(over="ignore", invalid="ignore"):
        d = a[:, None, :] ** ((1.0 - ts) / (2.0 * ts))[:, None]
        graded = d[..., :, None] * d[..., None, :] * Bt[:, None]
    bad = ~np.all(np.isfinite(graded), axis=(-2, -1))
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise NumericalError(f"graded sandwich A^{{(1-t)/2t}} B A^{{(1-t)/2t}} overflows "
                             f"at stack index {i} at t = {ts[j]}")
    w, V = graded_eigh(graded.reshape(-1, n, n))
    w = w.reshape(k, len(ts), n)
    gamma_root = SpectralDecomp(w, U[:, None] @ V.reshape(k, len(ts), n, n))
    G = symmetrize(gamma_root.apply(w ** ts[:, None]))
    errors = np.linalg.norm(G - A[:, None], axis=(-2, -1))

    A1mt = SpectralDecomp(a[:, None], U[:, None]).apply(a[:, None] ** (1.0 - ts)[:, None])
    lo = (alpha**ts)[..., None, None] * A1mt
    hi = (beta**ts)[..., None, None] * A1mt
    scale = beta**ts * a[:, :1] ** (1.0 - ts)  # operator norm of hi
    env = _eigenvalues(np.stack([G - lo, hi - G]))[..., 0]
    envelope_ok = np.all(env >= -MAJORIZE_RTOL * scale, axis=0)

    t_last = ts[-1]
    dev = np.maximum(np.max(np.abs(beta**t_last * a ** (1.0 - t_last) - a), axis=1),
                     np.max(np.abs(alpha**t_last * a ** (1.0 - t_last) - a), axis=1))
    final_bound = np.sqrt(n) * dev
    final_ok = errors[:, -1] <= final_bound * (1.0 + 1e-10)
    return {
        "errors": errors,
        "envelope_ok": envelope_ok,
        "final_bound": final_bound,
        "all_hold": np.all(envelope_ok, axis=1) & final_ok,
    }


DENSITY_TOL = 1e-10
NEAR_ONE_GRID = (1e-3, 1e-4)
LARGE_T_GRID = (8.0, 16.0, 32.0, 64.0)
# (t, h) for t = 1 -+ h, h in NEAR_ONE_GRID
_NEAR_ONE = tuple((tshift, h) for h in NEAR_ONE_GRID for tshift in (1.0 - h, 1.0 + h))


def divergence_limit_check(A, B):
    """Limits of the sandwiched divergence for density matrices.

    Near t = 1 the divergence must sit within 10 |t-1| (1 + |RE|) of the
    Umegaki relative entropy. For large t both the Thompson metric and
    log lam_1(A^{-1/2} B A^{-1/2}) are recorded; a monotone approach to the
    latter is asserted, equality with neither. This is the batch kernel of
    the limits suite on a stack of one; every value is bit-identical to the
    matching ``entropy`` function (``umegaki_relative_entropy``,
    ``sandwiched_divergence``, ``thompson_metric``, ``max_relative_entropy``).
    """
    out = _divergence_limit_batch(*_stack_of_one(A, B))
    row = {key: value[0] for key, value in out.items()}
    return {
        "relative_entropy": float(row["relative_entropy"]),
        "near_one": [
            {"t": tshift, "divergence": float(d), "bound": float(bound), "ok": bool(ok)}
            for (tshift, _), d, bound, ok in zip(
                _NEAR_ONE, row["near_one"], row["near_one_bound"], row["near_one_each_ok"])
        ],
        "large_t": [{"t": t, "divergence": float(d)} for t, d in zip(LARGE_T_GRID, row["large_t"])],
        "thompson_metric": float(row["thompson_metric"]),
        "max_relative_form": float(row["max_relative_form"]),
        "gaps_to_max_relative": [float(g) for g in row["gaps"]],
        "monotone_ok": bool(row["monotone_ok"]),
        "near_one_ok": bool(row["near_one_ok"]),
        "all_hold": bool(row["all_hold"]),
    }


def _divergence_limit_batch(A, B):
    """divergence_limit_check on stacks of density matrices A, B (k, n, n)."""
    for M in (A, B):
        if np.any(np.abs(np.trace(M, axis1=1, axis2=2).real - 1.0) > DENSITY_TOL):
            raise DomainError("divergence limits are checked for density matrices (unit trace)")
    decA, decB = spectral_decompose(A), spectral_decompose(B)
    re_value = _relative_entropy(decB, decA, B)

    near_one = np.stack([_sandwiched_divergence(decA, B, t) for t, _ in _NEAR_ONE], axis=1)
    bound = 10.0 * np.array([h for _, h in _NEAR_ONE]) * (1.0 + np.abs(re_value))[:, None]
    near_each_ok = np.abs(near_one - re_value[:, None]) <= bound

    # one whitened spectrum: max_relative_entropy(B, A) and thompson_metric(A, B)
    w = _whitened_spectrum(decA, B)
    max_rel = np.log(w[:, -1])
    large_t = np.stack([_sandwiched_divergence(decA, B, t) for t in LARGE_T_GRID], axis=1)
    gaps = np.abs(large_t - max_rel[:, None])
    monotone_ok = np.all(gaps[:, 1:] <= gaps[:, :-1] * (1.0 + 1e-9) + 1e-12, axis=1)
    near_one_ok = np.all(near_each_ok, axis=1)
    return {
        "relative_entropy": re_value,
        "near_one": near_one,
        "near_one_bound": bound,
        "near_one_each_ok": near_each_ok,
        "large_t": large_t,
        "thompson_metric": _thompson(w),
        "max_relative_form": max_rel,
        "gaps": gaps,
        "monotone_ok": monotone_ok,
        "near_one_ok": near_one_ok,
        "all_hold": near_one_ok & monotone_ok,
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
    inequality must be strict. This is the batch kernel of the gauge suite
    on a panel of one: the pairs are drawn in trial order and checked in
    batches of ``SUITE_CHUNK``, one draw and one ``eigvalsh`` call per batch.
    """
    if not isinstance(fn, ScalarFunction) or not _is_convex_id(fn):
        raise InvalidInput(f"unsupported or non-convex scalar function id {fn!r}")
    if not (_is_number(p) and np.isfinite(p) and p >= 1):
        raise InvalidInput(f"Schatten order must be in [1, inf), got {p}")
    return _gauge_panel(((fn, p),), trials, [seed], n)[0]


def _gauge_panel(panel, trials, seeds, n):
    """gauge_convexity_check of every (fn, p) of ``panel``, check j seeded by seeds[j].

    Check j draws its pairs from ``_streams(seeds[j], "gauge", "pairs")``.
    Per batch, the pairs of every check are assembled together, and
    (A + B)/2, A and B of all of them take one ``eigvalsh``.
    """
    streams = [_streams(s, "gauge", "pairs")[0] for s in seeds]
    violations, strict_violations = [0] * len(panel), [0] * len(panel)
    worst = [np.inf] * len(panel)
    for chunk in _chunks(trials):
        u, G = (np.stack(d) for d in zip(*(_draws(s, len(chunk), 2, n) for s in streams)))
        pairs = _spd_from_draws(u, G, 0.5, 2.0)
        A, B = pairs[:, 0], pairs[:, 1]
        eigs = _eigenvalues(np.stack([(A + B) / 2.0, A, B], axis=1))
        for j, (fn, p) in enumerate(panel):
            margin, ok, strict_ok = _gauge_margins(fn, p, eigs[j], A[j], B[j])
            violations[j] += int(np.sum(~ok))
            strict_violations[j] += int(np.sum(~strict_ok))
            worst[j] = min(worst[j], float(np.min(margin)))
    return [{
        "function": {"kind": fn.kind, "exponent": fn.exponent},
        "p": float(p),
        "n": n,
        "trials": trials,
        "seed": s,
        "violations": violations[j],
        "strict_violations": strict_violations[j],
        "worst_margin": worst[j],
        "all_hold": bool(violations[j] == 0 and strict_violations[j] == 0),
    } for j, ((fn, p), s) in enumerate(zip(panel, seeds))]


def _gauge_margins(fn, p, eigs, A, B):
    """Per pair of the stacks A, B: (relative margin, holds, holds strictly where required).

    ``eigs`` (3, k, n) holds the ascending spectra of (A + B)/2, A and B.
    """
    vals = fn(eigs)
    norms = _libm_pow(np.sum(np.abs(vals) ** p, axis=-1), 1.0 / p)
    lhs, rhs = norms[0], (norms[1] + norms[2]) / 2.0
    scale = np.maximum(np.abs(lhs), np.abs(rhs))
    margin = rhs - lhs
    separated = np.linalg.norm(A - B, axis=(-2, -1)) >= 0.1
    strict_ok = ~(_is_strictly_convex_id(fn) & separated) | (margin > 1e-12 * scale)
    return margin / np.maximum(scale, 1e-300), margin >= -MAJORIZE_RTOL * scale, strict_ok


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

        Am, Bm = to_mp(A), to_mp(B)
        E, Q = herm_eig(Am)
        P = Q * mp.diag([mp.power(e, (1 - tm) / (2 * tm)) for e in E]) * Q.H
        x = sorted((mp.power(e, tm) for e in herm_eig(P * Bm * P)[0]), reverse=True)
        y = sorted(herm_eig((1 - tm) * Am + tm * Bm)[0], reverse=True)
        xs, ys = np.array(x, dtype=object), np.array(y, dtype=object)
        margins, scale = _relation_margins(xs, ys, relation)
        return min(margins), scale


def open_question_search(
    n, t_grid, trials, seed, alpha=0.5, beta=2.0, candidates_path=None
):
    """Empirical search on whether lam(sandwich)^t is dominated by lam((1-t)A + tB).

    For t <= 1/2 this domination is open; the search records weak
    majorization, weak log-majorization, and entrywise outcomes for seeded
    random pairs, re-verifies float-level violations in extended precision,
    and makes no claim either way. The pairs are drawn in trial order and
    checked in batches of ``SUITE_CHUNK``, A decomposed once per pair;
    candidates are listed by trial, then order, then relation. The
    extended-precision re-check reads the pairs of the first
    ``_MP_REVERIFY_CAP`` candidates as their batch drew them.
    """
    _check_integer(n, "search dimension", 1, 8)
    chunks = _chunks(trials, 10**6)
    t_grid = _order_grid(t_grid, _check_search_order)
    check_box(alpha, beta)
    (pairs,) = _streams(seed, "open-question", "pairs")

    checked = {rel: 0 for rel in OPEN_QUESTION_RELATIONS}
    worst = {rel: np.inf for rel in OPEN_QUESTION_RELATIONS}
    candidates, recheck = [], []
    for chunk in chunks:
        A, B = _spd_from_draws(*_draws(pairs, len(chunk), 2, n), alpha, beta)
        decA = spectral_decompose(A)
        per_order = [_open_question_margins(A, B, decA, t) for t in t_grid]
        margins = np.stack([m for m, _ in per_order], axis=1)  # (trial, order, relation)
        holds = np.stack([h for _, h in per_order], axis=1)
        for r, rel in enumerate(OPEN_QUESTION_RELATIONS):
            checked[rel] += margins[..., r].size
            worst[rel] = min(worst[rel], float(np.min(margins[..., r])))
        for i, j, r in np.argwhere(~holds):
            candidates.append({"trial": chunk[i], "t": t_grid[j], "relation": OPEN_QUESTION_RELATIONS[r],
                               "float_margin": float(margins[i, j, r])})
            if len(recheck) < _MP_REVERIFY_CAP:
                recheck.append((A[i], B[i]))

    truncated = len(candidates) > _MP_REVERIFY_CAP
    confirmed = 0
    for cand, (Ai, Bi) in zip(candidates, recheck):
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


def _check_search_order(t):
    if not (_is_number(t) and np.isfinite(t) and T_MIN < t <= 0.5):
        raise ParameterError(f"search order t = {t} outside ({T_MIN}, 0.5]")


def _open_question_margins(A, B, decA, t):
    """(worst margins, holds), (k, relations), of lam(sandwich)^t against lam((1-t)A + tB)."""
    x = _libm_pow(_sandwich_spectrum(decA, B, t)[..., ::-1], t)
    y = _sorted_eigs((1.0 - t) * A + t * B)
    worst, holds = zip(*(_verdicts(x, y, rel) for rel in OPEN_QUESTION_RELATIONS))
    return np.stack(worst, axis=-1), np.stack(holds, axis=-1)


def random_pair(n, seed, label, lo=0.5, hi=2.0):
    """Seeded SPD pair, each side drawn on its own seed split off a master seed."""
    return tuple(random_spd_stack(n, lo, hi, [derive_seed(seed, label, side) for side in ("a", "b")]))


def density_pair(n, seed, label, mix=0.005, lo=1.0, hi=2.0):
    """Seeded density-matrix pair; B is a gentle mixture around A.

    The mixing keeps the finite-order divergence close enough to its
    asymptote for the large-t limit checks to be meaningful at t = 64.
    """
    return _density(*random_pair(n, seed, label, lo, hi), mix)


def _density(A, R, mix=0.005):
    """A and (1 - mix) A + mix R, after scaling A and R (or each matrix of stacks) to unit trace."""
    A = A / _trace(A)[..., None, None]
    R = R / _trace(R)[..., None, None]
    return A, (1.0 - mix) * A + mix * R


def run_trace_chain_suite(n=4, trials=100, seed=0, t_values=(0.1, 0.3, 0.5, 0.7, 0.9)):
    t_values = _order_grid(t_values)
    (pairs,) = _streams(seed, "trace-chain", "pairs")
    violations = 0
    worst = np.inf
    for chunk in _chunks(trials):
        pair = _decomposed(*_spd_from_draws(*_draws(pairs, len(chunk), 2, n), 0.5, 2.0))
        for t in t_values:
            margins, holds = _chain_margins(_trace_chain_links(*pair, t))
            violations += int(np.sum(~np.all(holds, axis=-1)))
            worst = min(worst, float(np.min(margins)))
    return {
        "suite": "trace-chain",
        "n": n,
        "trials": trials,
        "seed": seed,
        "t": list(t_values),
        "checks": trials * len(t_values),
        "violations": violations,
        "worst_margin": worst,
        "all_hold": bool(violations == 0),
    }


def run_variational_suite(n=4, trials=100, seed=0, t_values=(0.3, 0.5, 0.7)):
    """Trial i checks order t_values[i % len(t_values)]; a batch runs each order once."""
    t_values = _order_grid(t_values)
    pairs, probes = _streams(seed, "variational", "pairs", "probes")
    lower_violations = tight_violations = 0
    for chunk in _chunks(trials):
        A, B = _spd_from_draws(*_draws(pairs, len(chunk), 2, n), 0.5, 2.0)
        (X,) = _spd_from_draws(*_draws(probes, len(chunk), 1, n), 0.25, 4.0)
        decA, decB = spectral_decompose(A), spectral_decompose(B)
        orders = np.array(chunk) % len(t_values)
        for j, t in enumerate(t_values):
            sel = np.flatnonzero(orders == j)
            if sel.size:
                lower_ok, tight_ok = _variational_checks(decA[sel], decB[sel], B[sel], X[sel], t)
                lower_violations += int(np.sum(~lower_ok))
                tight_violations += int(np.sum(~tight_ok))
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


def _variational_checks(decA, decB, B, X, t):
    """(lower bound holds at X, iii/iv tight at the minimizer) per pair of a stack."""
    F = _sandwich_trace(decA, B, t)
    at_probe = _variational_values(decA, decB, B, t, X, REPRESENTATIONS)
    lower_ok = np.all([at_probe[rep] >= F * (1.0 - 1e-9) for rep in REPRESENTATIONS], axis=0)
    at_min = _variational_values(decA, decB, B, t, _variational_minimizer(decA, decB, t), ("iii", "iv"))
    tight_ok = np.all([np.abs(at_min[rep] - F) <= 1e-9 * F for rep in ("iii", "iv")], axis=0)
    return lower_ok, tight_ok


def run_log_major_suite(n=4, trials=100, seed=0, t_values=(0.25, 0.5, 0.75)):
    t_values = _order_grid(t_values)
    (pairs,) = _streams(seed, "log-major", "pairs")
    violations = 0
    for chunk in _chunks(trials):
        pair = _decomposed(*_spd_from_draws(*_draws(pairs, len(chunk), 2, n), 0.5, 2.0))
        for t in t_values:
            links = _log_major_links(*pair, t)
            ok = np.ones(len(chunk), dtype=bool)
            for x, y, kind in _log_major_relations(t):
                ok &= _verdicts(links[x], links[y], kind)[1]
            violations += int(np.sum(~ok))
    return {
        "suite": "log-major",
        "n": n,
        "trials": trials,
        "seed": seed,
        "t": list(t_values),
        "checks": trials * len(t_values),
        "violations": violations,
        "all_hold": bool(violations == 0),
    }


def run_limits_suite(n=4, trials=100, seed=0):
    gamma, density = _streams(seed, "limits", "gamma", "density")
    gamma_violations = div_violations = 0
    for chunk in _chunks(trials):
        A, B = _spd_from_draws(*_draws(gamma, len(chunk), 2, n), 0.5, 2.0)
        Ad, Bd = _density(*_spd_from_draws(*_draws(density, len(chunk), 2, n), 1.0, 2.0))
        gamma_violations += int(np.sum(~_gamma_limit_batch(A, B, DEFAULT_GAMMA_GRID)["all_hold"]))
        div_violations += int(np.sum(~_divergence_limit_batch(Ad, Bd)["all_hold"]))
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
    """Check j is gauge_convexity_check of GAUGE_PANEL[j] on seed derive_seed(seed, "gauge-panel", j)."""
    seed = _check_integer(seed, "seed", 0, _SEED_MAX)
    reports = _gauge_panel(GAUGE_PANEL, trials,
                           [derive_seed(seed, "gauge-panel", idx) for idx in range(len(GAUGE_PANEL))], n)
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
    """Dispatch one named verification suite and return its report dict.

    ``t_values`` replaces the default order grid of a suite that has one; a
    grid for a suite without one raises InvalidInput, as do an empty grid, a
    dimension and a trial count that are not integers >= 1, and a seed that
    is not an integer in [0, 2**128) (each checked where the suite takes it).
    """
    # {suite: (runner, takes an order grid)}, built per call so that a runner
    # rebound on this module is the one run
    table = {
        "trace-chain": (run_trace_chain_suite, True),
        "variational": (run_variational_suite, True),
        "log-major": (run_log_major_suite, True),
        "limits": (run_limits_suite, False),
        "gauge": (run_gauge_suite, False),
        "open-question": (
            lambda n, trials, seed, t_values=(0.25,): open_question_search(n, t_values, trials, seed),
            True,
        ),
    }
    if suite not in table:
        raise InvalidInput(f"unknown suite {suite!r}; choose from {SUITES}")
    runner, takes_grid = table[suite]
    if t_values is None:
        return runner(n=n, trials=trials, seed=seed)
    if not takes_grid:
        raise InvalidInput(f"suite {suite!r} takes no order grid")
    return runner(n=n, trials=trials, seed=seed, t_values=tuple(t_values))
