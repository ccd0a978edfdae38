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
uniforms and Gaussians, seeded once per run. One driver, ``_suite_inputs``,
is the only place where families are drawn and chunked: a chunk takes its
trials' draws in trial-major order, one call per stream, and assembles all
families that share a spectral box with one ``linalg._spd_from_draws`` call.
A suite states only its order grid, its check kernel and its counters. It
decomposes each input once with ``linalg.spectral_decompose``. The trace
and log-majorization chains also whiten each pair once: one frame of
A^{-1/2} B A^{-1/2}, formed graded in A's eigenbasis, serves every order of
A #_t B. The variational suite reads its minimizer from the frame of the
sandwich itself, with no function of B. A check kernel takes its orders as an
array broadcast over the chunk's trials: a (G, 1) grid, so that every trial
is checked at every order, or, in the variational suite, one order per
trial. So a chunk takes one matrix-function evaluation, one product and one
batched ``eigh``, ``eigvalsh``, ``svd`` or matmul per kernel for its whole
grid, whatever the grid's length, and the gauge suite checks its whole panel
with one ``eigvalsh``. The limits suite takes one ``cholesky`` and one
``linalg._graded_svd`` of the column-graded factors for gamma(t) at every
order, and certifies the small-t envelope at every order with one more
``cholesky``; only if that certificate fails does one ``eigvalsh`` of the
envelope gaps decide. Its eight divergence orders take one ``eigvalsh``.
The per-pair checks ``trace_chain_check``, ``log_majorization_chain``,
``gamma_limit_check`` and ``divergence_limit_check`` run the same batch
kernels on a stack of one with a one-order grid, ``gauge_convexity_check``
runs the gauge kernel on a panel of one, and ``variational_value`` runs the
variational suite's formulas on one matrix. Neither the chunk size, nor the
position of a trial in its chunk, nor the grid an order comes in moves a bit
of any value, so a seed fixes the report byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import (
    _check_order,
    _finite_product,
    _frame,
    _frame_power,
    _graded_basis,
    _mean_at,
    _positive,
    _relative_entropy,
    _sandwich_spectrum,
    _sandwich_trace,
    _sandwiched_divergence,
    _thompson,
    _whiten,
    _whitened_spectrum,
    check_trace_order,
    check_unit_t,
)
from .errors import DomainError, InvalidInput, NumericalError
from .linalg import (
    _SEED_MAX,
    ScalarFunction,
    SpectralDecomp,
    _check_integer,
    _eigenvalues,
    _graded_svd,
    _is_finite_number,
    _positive_definite,
    _power,
    _spd_from_draws,
    _trace,
    check_matrices,
    derive_seed,
    power,
    random_spd_stack,
    spectral_decompose,
    symmetrize,
)
from .serialization import matrix_to_json

RELATIONS = ("weak_majorize", "majorize", "weak_log_majorize", "log_majorize", "entrywise_le")

# Verdict tolerances are relative to the largest aggregate in the comparison:
# chains mix quantities spanning orders of magnitude with condition number.
MAJORIZE_RTOL = 1e-10

DEFAULT_GAMMA_GRID = (0.2, 0.1, 0.05, 0.01, 0.005)

# Trials per batch of every suite: memory stays bounded for any trial count,
# and results do not depend on it.
SUITE_CHUNK = 256

# Spectral boxes [alpha, beta] of the seeded pairs: PAIR_BOX for
# ``random_pair`` and the pairs of every suite, DENSITY_BOX for the draws
# that ``density_pair`` and the limits suite scale to density matrices.
PAIR_BOX = (0.5, 2.0)
DENSITY_BOX = (1.0, 2.0)
# Weight of R in the density pair's B = (1 - mix) A + mix R.
DENSITY_MIX = 0.005


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


def _order_grid(t_values, check=check_unit_t):
    """(grid, orders): the orders as a tuple, each checked by ``check``, and as a float array (G, 1).

    The array broadcasts against a chunk's trials: every trial at every order.
    ``InvalidInput`` unless the grid is a non-empty sequence, not a string.
    """
    if isinstance(t_values, (str, bytes)) or not np.iterable(t_values):
        raise InvalidInput(f"the order grid {t_values!r} must be a sequence of numbers")
    t_values = tuple(t_values)
    if not t_values:
        raise InvalidInput("the order grid is empty")
    for t in t_values:
        check(t)
    return t_values, np.array(t_values, dtype=float)[:, None]


def _suite_inputs(suite, n, trials, families, cap=None):
    """(chunk, inputs) per chunk of at most ``SUITE_CHUNK`` trials, in trial order.

    The one place where a suite's inputs are drawn and chunked. A family is
    (seed, name, count, box): ``count`` SPD matrices per trial with spectra in
    the box, from a uniform and a Gaussian Generator seeded once per run from
    ``derive_seed(seed, suite, name, stream)``. A chunk takes its trials'
    draws in trial-major order, one call per stream (numpy draws consecutive
    calls as one, so no bit depends on the chunk size), and assembles all
    families on one box with one ``_spd_from_draws``. ``inputs[f]`` is the
    stack (count, k, n, n) of family f. The one seed, trial-count and
    dimension check of every suite: ``InvalidInput`` unless the seeds are
    integers (not bools) in [0, 2**128), trials one in [1, cap] and n one >= 1.
    """
    streams = [[np.random.default_rng(derive_seed(seed, suite, name, stream))
                for stream in ("uniform", "normal")] for seed, name, _, _ in families]
    trials = _check_integer(trials, "trial count", 1, cap)
    n = _check_integer(n, "dimension", 1)
    boxes = {}  # box -> [(family index, count)], in family order
    for f, (_, _, count, box) in enumerate(families):
        boxes.setdefault(box, []).append((f, count))
    for start in range(0, trials, SUITE_CHUNK):
        chunk = range(start, min(start + SUITE_CHUNK, trials))
        k, inputs = len(chunk), [None] * len(families)
        for box, members in boxes.items():
            u = np.concatenate([streams[f][0].random((k, c, n)).swapaxes(0, 1) for f, c in members])
            G = np.concatenate([streams[f][1].standard_normal((k, c, 2, n, n)).swapaxes(0, 1)
                                for f, c in members])
            ends = np.cumsum([c for _, c in members])
            for (f, _), stack in zip(members, np.split(_spd_from_draws(u, G, *box), ends[:-1])):
                inputs[f] = stack
        yield chunk, inputs


def _suite_report(suite, n, trials, seed, **fields):
    """A suite's report: the head suite, n, trials, seed, then ``fields`` in order."""
    return {"suite": suite, "n": n, "trials": trials, "seed": seed, **fields}


def _sorted_eigs(M):
    """Eigenvalues of the Hermitian part of M (or of each M of a stack), descending."""
    return _eigenvalues(M)[..., ::-1]


def _libm_pow(x, s):
    """x ** s elementwise, rounded as the C library's pow rounds a float raised to a float.

    numpy raises a contiguous float array with a SIMD kernel, which can differ
    from pow in the last bit, but a reversed 1-D view with pow itself. The
    per-pair formulas raise scalars, so their stacked forms go through one
    reversed view. The exponents 0.5, 2 and -1 are the exception: numpy
    raises this view, as any array, to one of them by its own sqrt, square
    and reciprocal kernels, so those entries round as ``np.sqrt(x)``,
    ``x * x`` and ``1 / x`` do, which can differ from pow in the last bit. An
    exponent array s, broadcast against x, is reversed with it and raised by
    ``linalg._power``, so each entry has the bits of its own exponent as one
    number.
    """
    shape = np.shape(x)
    flat = np.ascontiguousarray(x, dtype=float).ravel()[::-1]
    if isinstance(s, np.ndarray):
        s = np.ravel(np.broadcast_to(s, shape))[::-1]
        return np.ascontiguousarray(_power(flat, s)[::-1]).reshape(shape)
    return np.ascontiguousarray(np.power(flat, s)[::-1]).reshape(shape)


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
    x, y = np.asarray(x), np.asarray(y)
    if x.dtype.kind not in "iuf" or y.dtype.kind not in "iuf":
        raise InvalidInput(f"majorization needs real numbers, got dtypes {x.dtype} and {y.dtype}")
    x, y = x.astype(float).ravel(), y.astype(float).ravel()
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
    """The Hermitian parts of the validated A, B as stacks of one."""
    return [M[None] for M in check_matrices(A=A, B=B)]


TRACE_LINKS = ("tr_geometric_mean", "tr_power_product", "tr_sandwich", "tr_arithmetic_mean")


def trace_chain_check(A, B, t) -> ChainReport:
    """Four-link trace chain from the geometric to the arithmetic mean.

    tr A#_tB <= tr A^{1-t}B^t <= tr(A^{(1-t)/2t} B A^{(1-t)/2t})^t
    <= tr[(1-t)A + tB], with tolerance 1e-10 times the last link. This is the
    batch kernel of the trace-chain suite on a stack of one.
    """
    _, ts = _order_grid((t,))
    links = _trace_chain_links(*_decomposed(*_stack_of_one(A, B)), ts)[0, 0]
    margins, holds = _chain_margins(links)
    values = [float(v) for v in links]
    verdicts = [
        ComparisonVerdict(f"{la}<={lb}", va, vb, float(m), bool(ok))
        for la, lb, va, vb, m, ok in zip(
            TRACE_LINKS[:-1], TRACE_LINKS[1:], values[:-1], values[1:], margins, holds)
    ]
    return ChainReport(list(zip(TRACE_LINKS, values)), verdicts, all(v.holds for v in verdicts))


def _trace_chain_links(A, B, decA, decB, whitened, t):
    """The four trace-chain links (..., k, 4) of stacks A, B from ``_decomposed(A, B)``.

    At every order of the array t, broadcast against the k trials.
    """
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


def _powered_trace(P, X, s, what):
    """tr (P X P)^s for the congruence ``what`` of a representation objective (or of stacks).

    s is a number or an array, one exponent per matrix. X is positive
    definite, so ``NumericalError`` when P X P overflows or its computed
    spectrum is not positive.
    """
    w = _positive(_eigenvalues(_finite_product((P, X, P), what)), what)
    return np.sum(_libm_pow(w[..., ::-1], np.expand_dims(s, -1)), axis=-1)


def variational_value(A, B, t, X, rep):
    """Objective value of one extremal representation of the sandwiched trace.

    Each representation is minimized over SPD X with minimum value
    fidelity(A, B, t); "i"/"iii" are trace sums, "ii"/"iv" their
    scale-invariant product forms. The variational suite evaluates the same
    formulas on stacks. ``DomainError`` unless X is positive definite, and
    ``NumericalError`` when a congruence of X loses positivity in floating
    point, as at small t.
    """
    check_unit_t(t)
    if rep not in REPRESENTATIONS:
        raise InvalidInput(f"unknown representation {rep!r}")
    A, B, X = check_matrices(A=A, B=B, X=X)
    if not _positive_definite(X):
        raise DomainError("representation objectives need a positive definite X")
    decB = spectral_decompose(B) if rep in ("iii", "iv") else None
    return float(_variational_values(spectral_decompose(A), decB, B, t, X, (rep,))[rep])


def _variational_values(decA, decB, B, t, X, reps, X0=None):
    """{rep: objective value at X} for the representations ``reps``.

    From the decompositions of A and B; works alike on one matrix and on
    stacks, with t a number or one order per matrix. Representations i/ii
    share one ``eigvalsh`` and iii/iv another; ``decB`` is read only for iii/iv.
    Given a second point X0, iii/iv are also evaluated there, in the same
    ``eigvalsh``: each of their values is then stacked (2, ...), at X and at X0.
    """
    s = t / (t - 1.0)
    values = {}
    if "i" in reps or "ii" in reps:
        Q = decA.map(power((t - 1.0) / (2.0 * t)))
        u = _powered_trace(Q, X, s, "A^{(t-1)/2t} X A^{(t-1)/2t}")
        v = _trace(X @ B)
        values["i"] = (1.0 - t) * u + t * v
        values["ii"] = _libm_pow(u, 1.0 - t) * _libm_pow(v, t)
    if "iii" in reps or "iv" in reps:
        X = X if X0 is None else np.stack([X, X0])
        Bri = decB.map(power(-0.5))
        u = _trace(decA.map(power((1.0 - t) / t)) @ X)
        w = _powered_trace(Bri, X, s, "B^{-1/2} X B^{-1/2}")
        values["iii"] = t * u + (1.0 - t) * w
        values["iv"] = _libm_pow(u, t) * _libm_pow(w, 1.0 - t)
    return values


def variational_minimizer(A, B, t, rep):
    """Closed-form minimizer of representation ``rep`` over positive definite X.

    Every representation has minimum value fidelity(A, B, t). For "iii" and
    "iv" the minimizer is B #_{1-t} A^{(t-1)/t}. For "i" it is
    X_i = A^{(1-t)/t} #_{1-t} B^{-1}, where the gradient of representation i,
    t (B - A^{(t-1)/t} #_{1/(1-t)} X^{-1}), vanishes. Representation "ii" is
    scale invariant, so every positive multiple of X_i minimizes it; this
    function returns X_i. Both are read from F_t's own sandwich
    M = A^m B A^m, m = (1-t)/2t: X_i = A^m M^{t-1} A^m = grad f(B) / t and
    X_iii = A^{-m} M^t A^{-m}, from the one frame of M
    (``entropy._frame``). So A is decomposed once, and so is M, and B is
    not decomposed; ``InvalidInput`` for an unknown ``rep``.
    """
    check_unit_t(t)
    if rep not in REPRESENTATIONS:
        raise InvalidInput(f"unknown representation {rep!r}")
    A, B = check_matrices(A=A, B=B)
    decA = spectral_decompose(A)
    if rep in ("iii", "iv"):
        return _variational_minimizer(decA, B, t)
    return _frame_power(*_frame(_graded_basis(decA, t), B, t), t - 1.0)


def _variational_minimizer(decA, B, t):
    """The iii/iv minimizer A^{-m} M^t A^{-m} = B #_{1-t} A^{(t-1)/t} from the decomposition of A.

    Or of a stack, with B a stack and t a number or one order per matrix.
    """
    return _frame_power(*_frame(_graded_basis(decA, t), B, t, inverse=True), t)


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
    _, ts = _order_grid((t,))
    links = {label: value[0, 0] for label, value in
             _log_major_links(*_decomposed(*_stack_of_one(A, B)), ts).items()}
    verdicts = []
    for x, y, kind, lo, hi in _LOG_MAJOR_RELATIONS:
        if lo <= t <= hi:
            worst, holds = _verdicts(links[x], links[y], kind)
            verdicts.append(MajorizationVerdict(kind, bool(holds), float(worst)))
    return ChainReport([(label, links[label].tolist()) for label in LOG_MAJOR_LINKS],
                       verdicts, all(v.holds for v in verdicts))


def _log_major_links(A, B, decA, decB, whitened, t):
    """{link: descending spectra (..., k, n)} of the log-majorization chains, from ``_decomposed(A, B)``.

    At every order of the array t, broadcast against the k trials.
    """
    A_half = decA.map(power((1.0 - t) / 2.0))
    Bt = decB.map(power(t))
    tm = t[..., None, None]
    return {
        "geometric_mean": _sorted_eigs(_mean_at(whitened, t)),
        "power_product": _sorted_eigs(A_half @ Bt @ A_half),
        "sandwich_power": _libm_pow(_sandwich_spectrum(decA, B, t)[..., ::-1], t[..., None]),
        "power_product_singular": np.linalg.svd(decA.map(power(1.0 - t)) @ Bt, compute_uv=False),
        "arithmetic_mean": _sorted_eigs((1.0 - tm) * A + tm * B),
    }


# (x link, y link, relation, lo, hi) of every verdict of the chains, in
# report order: it is checked at the orders lo <= t <= hi. At t = 1/2 both
# chains apply, and their middle links must be the same vector
_LOG_MAJOR_RELATIONS = (
    ("geometric_mean", "power_product", "log_majorize", 0.0, 1.0),
    ("power_product", "sandwich_power", "log_majorize", 0.5, 1.0),
    ("sandwich_power", "power_product_singular", "log_majorize", 0.5, 1.0),
    ("power_product_singular", "arithmetic_mean", "entrywise_le", 0.5, 1.0),
    ("power_product", "power_product_singular", "log_majorize", 0.0, 0.5),
    ("power_product_singular", "sandwich_power", "log_majorize", 0.0, 0.5),
    ("sandwich_power", "power_product_singular", "entrywise_le", 0.5, 0.5),
    ("power_product_singular", "sandwich_power", "entrywise_le", 0.5, 0.5),
)


def gamma_limit_check(A, B, t_grid=DEFAULT_GAMMA_GRID):
    """Small-t limit of the sandwiched power: gamma(t) -> A with envelope.

    Verifies lam_min(B)^t A^{1-t} <= gamma(t) <= lam_max(B)^t A^{1-t} at
    each grid point and that the final error sits below the envelope-implied
    bound sqrt(n) max_i |c^t a_i^{1-t} - a_i| over both envelope constants.
    gamma(t)^{1/t} = A^{(1-t)/2t} B A^{(1-t)/2t} is graded like
    cond(A)^{(1-t)/t}. In the eigenbasis of A it is C*C for the column-graded
    factor C = L* diag(a^{(1-t)/2t}), with L the Cholesky factor of U*BU, so
    gamma(t) comes from the SVD of C (``linalg._graded_svd``) and the graded
    matrix is never formed; the errors and the envelope are checked in that
    basis too. ``DomainError`` unless B is positive definite.
    The envelope holds where both gaps G - lo and hi - G have lam_min >=
    -slack, slack = ``MAJORIZE_RTOL`` lam_max(B)^t lam_max(A)^{1-t}. One
    Cholesky factorization of every gap + slack I certifies the whole stack;
    if it fails, one ``eigvalsh`` of the gaps decides each entry, so a
    violation gets the verdict of the eigenvalue test. The two tests can
    disagree only where lam_min lies within rounding of -slack. This is the
    batch kernel of the limits suite on a stack of one, so the suite and
    this report agree for the same pair.
    """
    t_grid, _ = _order_grid(t_grid)
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

    # In the eigenbasis of A, gamma(t)^{1/t} is C*C for the column-graded
    # factor C = L* diag(a^m), with U*BU = L L* and m = (1-t)/2t; its columns
    # come in decreasing scale (a descending, m > 0), and all (trial, order)
    # pairs go through one _graded_svd, C = Y diag(sigma) Z*
    Bt = symmetrize(U.conj().swapaxes(-1, -2) @ B @ U)
    try:
        L = np.linalg.cholesky(Bt)
    except np.linalg.LinAlgError:
        raise DomainError("the small-t limit needs B positive definite "
                          "(Cholesky factorization failed)") from None
    with np.errstate(over="ignore", invalid="ignore"):
        d = a[:, None, :] ** ((1.0 - ts) / (2.0 * ts))[:, None]
        C = L.conj().swapaxes(-1, -2)[:, None] * d[..., None, :]
    bad = ~np.all(np.isfinite(C), axis=(-2, -1))
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise NumericalError(f"graded sandwich A^{{(1-t)/2t}} B A^{{(1-t)/2t}} overflows "
                             f"at stack index {i} at t = {ts[j]}")
    sigma, Z = _graded_svd(C.reshape(-1, n, n))
    # a unitary change of basis moves neither a Frobenius norm nor the
    # definiteness of a gap, so the check stays in the eigenbasis of A: there
    # gamma(t) is G = Z diag(sigma^{2t}) Z*, sigma^{2t} taken directly
    # because sigma^2 overflows first, A is diag(a), and the envelope bounds
    # c^t A^{1-t} are diagonal
    gamma = SpectralDecomp(sigma.reshape(k, len(ts), n) ** (2.0 * ts)[:, None],
                           Z.reshape(k, len(ts), n, n))
    G = symmetrize(gamma.reconstruct())
    eye = np.eye(n)
    errors = np.linalg.norm(G - a[:, None, :, None] * eye, axis=(-2, -1))

    a1mt = a[:, None] ** (1.0 - ts)[:, None]
    lo = ((alpha**ts)[..., None] * a1mt)[..., None] * eye
    hi = ((beta**ts)[..., None] * a1mt)[..., None] * eye
    scale = beta**ts * a[:, :1] ** (1.0 - ts)  # operator norm of hi
    # one Cholesky of every gap + slack I certifies every envelope (see
    # gamma_limit_check); the gaps are finite, as C is, so only a violation
    # or a lam_min within rounding of -slack fails it
    gaps = np.stack([G - lo, hi - G])
    slack = MAJORIZE_RTOL * scale
    if _positive_definite(symmetrize(gaps) + slack[..., None, None] * eye):
        envelope_ok = np.ones((k, len(ts)), dtype=bool)
    else:
        envelope_ok = np.all(_eigenvalues(gaps)[..., 0] >= -slack, axis=0)

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
# every divergence order of the limits, near one first, as a (G, 1) grid
_, _LIMIT_ORDERS = _order_grid([t for t, _ in _NEAR_ONE] + list(LARGE_T_GRID), check_trace_order)


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
        if np.any(np.abs(_trace(M) - 1.0) > DENSITY_TOL):
            raise DomainError("divergence limits are checked for density matrices (unit trace)")
    decA, decB = spectral_decompose(A), spectral_decompose(B)
    re_value = _relative_entropy(decB, decA, B)

    # every order in one pass: (trial, order)
    divergences = _sandwiched_divergence(decA, B, _LIMIT_ORDERS).T
    near_one, large_t = divergences[:, :len(_NEAR_ONE)], divergences[:, len(_NEAR_ONE):]
    bound = 10.0 * np.array([h for _, h in _NEAR_ONE]) * (1.0 + np.abs(re_value))[:, None]
    near_each_ok = np.abs(near_one - re_value[:, None]) <= bound

    # one whitened spectrum: max_relative_entropy(B, A) and thompson_metric(A, B)
    w = _whitened_spectrum(decA, B)
    max_rel = np.log(w[:, -1])
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
    s = fn.exponent
    return fn.kind == "power" and _is_finite_number(s) and not (0.0 < s < 1.0)


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
    if not (_is_finite_number(p) and p >= 1):
        raise InvalidInput(f"Schatten order must be in [1, inf), got {p!r}")
    return _gauge_panel(((fn, p),), trials, [seed], n)[0]


def _gauge_panel(panel, trials, seeds, n):
    """gauge_convexity_check of every (fn, p) of ``panel``, check j seeded by seeds[j].

    Check j draws its pairs as the family "pairs" on seeds[j]. Per batch,
    the pairs of every check share one box, so they are assembled together,
    and (A + B)/2, A and B of all of them take one ``eigvalsh``.
    """
    violations, strict_violations = [0] * len(panel), [0] * len(panel)
    worst = [np.inf] * len(panel)
    for _, pairs in _suite_inputs("gauge", n, trials, [(s, "pairs", 2, PAIR_BOX) for s in seeds]):
        A, B = np.stack(pairs, axis=1)
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


def _mp_relation_margin(A, B, t, relation):
    """Recompute a relation margin in extended precision; returns (margin, scale).

    The sandwich is D (Q*BQ) D in A's eigenbasis, D = diag(a^m), m = (1-t)/2t,
    at 50 + ceil(m log10(a_max/a_min)) digits, since the eigensolver loses
    about the grading's digits; ``NumericalError`` unless it is positive definite.
    """
    import mpmath as mp

    a = _eigenvalues(A)
    m = (1.0 - t) / (2.0 * t)
    with mp.workdps(50 + math.ceil(m * math.log10(a[-1] / a[0]))):
        tm = mp.mpf(t)

        def to_mp(M):
            return mp.matrix([[mp.mpc(M[i, j]) for j in range(M.shape[1])] for i in range(M.shape[0])])

        def herm_eig(Mm):
            E, Q = mp.eighe((Mm + Mm.H) / 2)
            return [E[i] for i in range(Mm.rows)], Q

        Am, Bm = to_mp(A), to_mp(B)
        E, Q = herm_eig(Am)
        D = mp.diag([mp.power(e, (1 - tm) / (2 * tm)) for e in E])
        w = herm_eig(D * (Q.H * Bm * Q) * D)[0]
        if not min(w) > 0:
            raise NumericalError(f"the {relation} re-check's sandwich lost positivity at t = {t} "
                                 f"(min eigenvalue {mp.nstr(min(w), 3)})")
        x = sorted((mp.power(e, tm) for e in w), reverse=True)
        y = sorted(herm_eig((1 - tm) * Am + tm * Bm)[0], reverse=True)
        xs, ys = np.array(x, dtype=object), np.array(y, dtype=object)
        margins, scale = _relation_margins(xs, ys, relation)
        return min(margins), scale


def open_question_search(n, t_grid, trials, seed):
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
    t_grid, ts = _order_grid(t_grid, lambda t: _check_order(t, 0.5, True, "search order"))
    checked = {rel: 0 for rel in OPEN_QUESTION_RELATIONS}
    worst = {rel: np.inf for rel in OPEN_QUESTION_RELATIONS}
    candidates, recheck = [], []
    families = [(seed, "pairs", 2, PAIR_BOX)]
    for chunk, ((A, B),) in _suite_inputs("open-question", n, trials, families, cap=10**6):
        # (order, trial, relation) -> (trial, order, relation)
        margins, holds = _open_question_margins(A, B, spectral_decompose(A), ts)
        margins, holds = margins.swapaxes(0, 1), holds.swapaxes(0, 1)
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

    return {
        "suite": "open-question",
        "n": n,
        "t_grid": list(t_grid),
        "trials": trials,
        "seed": seed,
        "alpha": PAIR_BOX[0],
        "beta": PAIR_BOX[1],
        "checked": checked,
        "worst_margins": {rel: float(worst[rel]) for rel in OPEN_QUESTION_RELATIONS},
        "float_violations": len(candidates),
        "confirmed_violations": confirmed,
        "candidates_truncated": truncated,
        "candidates": candidates,
        # exploratory search: no property is asserted either way
        "all_hold": True,
    }


def _open_question_margins(A, B, decA, t):
    """(worst margins, holds), (..., k, relations), of lam(sandwich)^t against lam((1-t)A + tB).

    At every order of the array t, broadcast against the k trials.
    """
    x = _libm_pow(_sandwich_spectrum(decA, B, t)[..., ::-1], t[..., None])
    tm = t[..., None, None]
    y = _sorted_eigs((1.0 - tm) * A + tm * B)
    worst, holds = zip(*(_verdicts(x, y, rel) for rel in OPEN_QUESTION_RELATIONS))
    return np.stack(worst, axis=-1), np.stack(holds, axis=-1)


def random_pair(n, seed, label):
    """Seeded SPD pair on PAIR_BOX, each side drawn on its own seed split off a master seed."""
    return _seeded_pair(n, seed, label, PAIR_BOX)


def _seeded_pair(n, seed, label, box):
    return tuple(random_spd_stack(n, *box, [derive_seed(seed, label, side) for side in ("a", "b")]))


def density_pair(n, seed, label):
    """Seeded density-matrix pair, drawn on DENSITY_BOX; B is a gentle mixture around A.

    The mixing keeps the finite-order divergence close enough to its
    asymptote for the large-t limit checks to be meaningful at t = 64.
    """
    return _density(*_seeded_pair(n, seed, label, DENSITY_BOX))


def _density(A, R):
    """A and (1 - DENSITY_MIX) A + DENSITY_MIX R, after scaling A and R (or stacks) to unit trace."""
    A = A / _trace(A)[..., None, None]
    R = R / _trace(R)[..., None, None]
    return A, (1.0 - DENSITY_MIX) * A + DENSITY_MIX * R


def run_trace_chain_suite(n=4, trials=100, seed=0, t_values=(0.1, 0.3, 0.5, 0.7, 0.9)):
    t_values, ts = _order_grid(t_values)
    violations = 0
    worst = np.inf
    for _, (pairs,) in _suite_inputs("trace-chain", n, trials, [(seed, "pairs", 2, PAIR_BOX)]):
        margins, holds = _chain_margins(_trace_chain_links(*_decomposed(*pairs), ts))
        violations += int(np.sum(~np.all(holds, axis=-1)))
        worst = min(worst, float(np.min(margins)))
    return _suite_report("trace-chain", n, trials, seed, t=list(t_values), checks=trials * len(t_values),
                         violations=violations, worst_margin=worst, all_hold=bool(violations == 0))


def run_variational_suite(n=4, trials=100, seed=0, t_values=(0.3, 0.5, 0.7)):
    """Trial i checks order t_values[i % len(t_values)]; a chunk checks its trials in one pass."""
    t_values, ts = _order_grid(t_values)
    lower_violations = tight_violations = 0
    families = [(seed, "pairs", 2, PAIR_BOX), (seed, "probes", 1, (0.25, 4.0))]
    for chunk, ((A, B), (X,)) in _suite_inputs("variational", n, trials, families):
        t = ts[np.array(chunk) % len(ts), 0]
        lower_ok, tight_ok = _variational_checks(spectral_decompose(A), spectral_decompose(B), B, X, t)
        lower_violations += int(np.sum(~lower_ok))
        tight_violations += int(np.sum(~tight_ok))
    return _suite_report("variational", n, trials, seed, t=list(t_values),
                         lower_bound_violations=lower_violations, tightness_violations=tight_violations,
                         all_hold=bool(lower_violations == 0 and tight_violations == 0))


def _variational_checks(decA, decB, B, X, t):
    """(lower bound holds at X, iii/iv tight at the minimizer) per pair of a stack, pair i at order t[i].

    The probe X and the minimizer go through one ``_variational_values`` call,
    which stacks them (2, k, n, n) for iii/iv, so every function of A and B
    is mapped once and each pair of representations takes one ``eigvalsh``.
    """
    F = _sandwich_trace(decA, B, t)
    values = _variational_values(decA, decB, B, t, X, REPRESENTATIONS, _variational_minimizer(decA, B, t))
    at_probe = (values["i"], values["ii"], values["iii"][0], values["iv"][0])
    lower_ok = np.all([v >= F * (1.0 - 1e-9) for v in at_probe], axis=0)
    tight_ok = np.all([np.abs(values[rep][1] - F) <= 1e-9 * F for rep in ("iii", "iv")], axis=0)
    return lower_ok, tight_ok


def run_log_major_suite(n=4, trials=100, seed=0, t_values=(0.25, 0.5, 0.75)):
    t_values, ts = _order_grid(t_values)
    violations = 0
    for chunk, (pairs,) in _suite_inputs("log-major", n, trials, [(seed, "pairs", 2, PAIR_BOX)]):
        links = _log_major_links(*_decomposed(*pairs), ts)
        ok = np.ones((len(ts), len(chunk)), dtype=bool)
        for x, y, kind, lo, hi in _LOG_MAJOR_RELATIONS:
            on = ((lo <= ts) & (ts <= hi))[:, 0]  # the orders this relation is checked at
            if on.any():
                ok[on] &= _verdicts(links[x][on], links[y][on], kind)[1]
        violations += int(np.sum(~ok))
    return _suite_report("log-major", n, trials, seed, t=list(t_values), checks=trials * len(t_values),
                         violations=violations, all_hold=bool(violations == 0))


def run_limits_suite(n=4, trials=100, seed=0):
    gamma_violations = div_violations = 0
    families = [(seed, "gamma", 2, PAIR_BOX), (seed, "density", 2, DENSITY_BOX)]
    for _, ((A, B), density) in _suite_inputs("limits", n, trials, families):
        Ad, Bd = _density(*density)
        gamma_violations += int(np.sum(~_gamma_limit_batch(A, B, DEFAULT_GAMMA_GRID)["all_hold"]))
        div_violations += int(np.sum(~_divergence_limit_batch(Ad, Bd)["all_hold"]))
    return _suite_report("limits", n, trials, seed, gamma_violations=gamma_violations,
                         divergence_violations=div_violations,
                         all_hold=bool(gamma_violations == 0 and div_violations == 0))


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
    return _suite_report("gauge", n, trials, seed, checks=reports,
                         all_hold=bool(all(r["all_hold"] for r in reports)))


SUITES = ("trace-chain", "variational", "log-major", "limits", "gauge", "open-question")


def run_suite(suite, n=4, trials=100, seed=0, t_values=None):
    """Dispatch one named verification suite and return its report dict.

    ``t_values`` replaces the default order grid of a suite that has one; a
    grid for a suite without one raises InvalidInput, as do a grid that is
    not a non-empty sequence, a dimension and a trial count that are not integers >= 1, and a seed that
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
    if not isinstance(suite, str) or suite not in table:
        raise InvalidInput(f"unknown suite {suite!r}; choose from {SUITES}")
    runner, takes_grid = table[suite]
    if t_values is None:
        return runner(n=n, trials=trials, seed=seed)
    if not takes_grid:
        raise InvalidInput(f"suite {suite!r} takes no order grid")
    return runner(n=n, trials=trials, seed=seed, t_values=t_values)
