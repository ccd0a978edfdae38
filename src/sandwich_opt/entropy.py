"""Divergences and distances between positive definite matrices.

The central object is the sandwiched trace functional
``tr (A^{(1-t)/2t} B A^{(1-t)/2t})^t``; the classical fidelity and the
Bures-Wasserstein distance are its t = 1/2 specialization. Everything is
evaluated through spectral decompositions (n is small, exactness of the
eigen-route dominates). The private helpers that start from a
``SpectralDecomp`` work alike on one matrix and on a stack (k, n, n) from
``linalg.spectral_decompose``, which is how the batched verification suites
evaluate these same formulas. Their order t is a number or an array broadcast
over the stack's leading axes, so one call evaluates a whole order grid: a
(G, 1) grid against a stack (k, n, n) gives results stacked (G, k). On a
stack, a ``NumericalError`` names the first failing stack index, the trial's
position on the last axis, and the order it failed at. Every sandwich
A^{(1-t)/2t} B A^{(1-t)/2t}, and the whitened product A^{-1/2} B A^{-1/2},
the sandwich at m = -1/2, is formed in A's eigenbasis by ``_graded_sandwich``:
one rotation U*BU per pair, then one diagonal scaling per order. Every matrix
function of a pair, the gradient, the geometric mean and the variational
minimizers, is then A^{+-m} M^s A^{+-m} for the sandwich M = A^m B A^m, read
from the one frame of M (``_frame``, ``_frame_power``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NumericalError, ParameterError
from .linalg import (
    LOG,
    _eigenvalues,
    _eigh,
    _is_number,
    _trace,
    check_matrices,
    matrix_power,
    power,
    spectral_decompose,
)

# Order parameters closer than T_MIN to the degenerate endpoints are
# rejected: conditioning of the exponent (1-t)/2t blows up as t -> 0+.
T_MIN = 1e-3
T_MAX = 64.0

# Divergence orders this close to 1 are rejected and redirected to the
# Umegaki entropy; the limit checks evaluate down to |t-1| = 1e-4.
NEAR_ONE_TOL = 1e-9


def _check_order(t, hi, closed, what="order parameter"):
    """The one order check: ``ParameterError``, naming ``what`` and repr(t), unless t is in (T_MIN, hi].

    Or in (T_MIN, hi) unless ``closed``; t is a number (a bool is not), and the finite bounds reject NaN and inf.
    """
    if not (_is_number(t) and T_MIN < t and (t <= hi if closed else t < hi)):
        raise ParameterError(f"{what} t = {t!r} must be a number in ({T_MIN}, {hi}{']' if closed else ')'}")


def check_unit_t(t):
    """Require a number t (not a bool) in (T_MIN, 1 - T_MIN)."""
    _check_order(t, 1.0 - T_MIN, False)


def check_trace_order(t):
    """Require a number t (not a bool) in (T_MIN, T_MAX], the order range of the trace functional."""
    _check_order(t, T_MAX, True)


def check_order_t(t):
    """Require a divergence order t in the trace functional's range, away from 1."""
    check_trace_order(t)
    if abs(t - 1.0) <= NEAR_ONE_TOL:
        raise ParameterError(
            "divergence order t = 1 is the Umegaki limit; "
            "call umegaki_relative_entropy instead"
        )


def sandwich_spectrum(A, B, t):
    """Ascending eigenvalues of A^{(1-t)/2t} B A^{(1-t)/2t}, all positive; t in (T_MIN, T_MAX]."""
    check_trace_order(t)
    A, B = check_matrices(A=A, B=B)
    return _sandwich_spectrum(spectral_decompose(A), B, t)


def _sandwich_spectrum(decA, B, t):
    """sandwich_spectrum from the decomposition of A (or of a stack, with B a stack), at every order of t."""
    return _positive(_eigenvalues(_graded_sandwich(_graded_basis(decA, t), B, t)), t=t)


def _graded_basis(decA, t):
    """(d, U): A's eigenvectors U and the sandwich's scaling d = a^{(1-t)/2t}, at every order of t.

    From the decomposition A = U diag(a) U* of A (or of a stack), a
    descending; this is the input of ``_graded_sandwich``, which a caller
    that sandwiches many B at one order forms once. ``DomainError`` unless A
    is positive definite; ``NumericalError`` if d overflows.
    """
    fn = power((1.0 - t) / (2.0 * t))
    decA.require_domain(fn)
    return fn.finite_on(decA.eigenvalues), decA.eigenvectors


def _graded_sandwich(basis, B, t, what="sandwiched product"):
    """M = D (U*BU) D, the sandwich A^{(1-t)/2t} B A^{(1-t)/2t} in A's eigenbasis, at every order of t.

    (d, U) = ``basis`` comes from ``_graded_basis`` and D = diag(d). The
    sandwich is U M U*, so M has its spectrum. The rotation U*BU is formed
    once, whatever the number of orders, and each order only scales it:
    M = S + S* with S = (D/2) (U*BU) D, so M is exactly Hermitian and needs
    no further symmetrization. Precondition: a descending, as
    ``SpectralDecomp`` holds it, so for t < 1 D decreases down the diagonal
    and M is graded downward, with exact row and column scales; ``eigh`` then
    keeps its small eigenvalues, which the product of the full A^{(1-t)/2t}
    with B loses (Demmel & Veselic, SIAM J. Matrix Anal. Appl. 13, 1992).
    On ``_whitening_basis`` it is the whitened product A^{-1/2} B A^{-1/2},
    graded upward, by a^{-1/2} only (mpmath-tested through A #_t B).
    ``NumericalError`` naming ``what`` if M overflows (see ``_finite``).
    """
    d, U = basis
    with np.errstate(over="ignore", invalid="ignore"):
        R = U.conj().swapaxes(-1, -2) @ B @ U
        S = (0.5 * d)[..., :, None] * R * d[..., None, :]
        M = S + S.conj().swapaxes(-1, -2)
    return _finite(M, what, t)


def _sandwich(basis, X, t, what="sandwiched product"):
    """(w, V), w ascending, with ``_graded_sandwich(basis, X, t)`` = V diag(w) V*.

    X is Hermitian, so A^{(1-t)/2t} X A^{(1-t)/2t} = (U V) diag(w) (U V)*;
    ``NumericalError`` unless w > 0.
    """
    w, V = _eigh(_graded_sandwich(basis, X, t, what))
    return _positive(w, what, t), V


def _frame(basis, X, t, inverse=False, what="sandwiched product"):
    """(F, w), F = U (E V), from ``_sandwich(basis, X, t)`` = (w, V); the one kernel of every function of a pair.

    With (d, U) = ``basis``, E = D = diag(d), or D^{-1} if ``inverse``. U D
    is A^m U, so F = A^{+-m} (U V) and A^{+-m} g(M) A^{+-m} = F diag(g(w)) F*
    for the sandwich M = A^m X A^m and any function g. F is not checked.
    """
    w, V = _sandwich(basis, X, t, what)
    d, U = basis
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        e = 1.0 / d if inverse else d
        return U @ (e[..., :, None] * V), w


def _frame_power(F, w, s, c=1.0, what="frame product", t=None):
    """c F diag(w^s) F* from a frame (F, w) of ``_frame``, exactly Hermitian, at every exponent of s.

    Formed as H + H* with H = F diag(c w^s / 2) F*: the one scaling of F's
    columns also takes c and the half of the Hermitian part. ``NumericalError``,
    and no numpy warning, if w^s or the product overflows (see ``_finite``).
    """
    scale = 0.5 * c * power(s).finite_on(w)
    with np.errstate(over="ignore", invalid="ignore"):
        H = (F * scale[..., None, :]) @ F.conj().swapaxes(-1, -2)
        return _finite(H + H.conj().swapaxes(-1, -2), what, t)


def _finite_product(factors, what, t=None):
    """The product of ``factors`` (matrices or stacks), left to right, checked by ``_finite``.

    The product is formed with numpy's overflow warnings off, so an overflow
    surfaces only as the ``NumericalError``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(functools.reduce(np.matmul, factors), what, t)


def _finite(M, what, t=None):
    """M (a matrix or a stack), if finite.

    Else ``NumericalError`` naming ``what``, the first bad stack index and its
    order t, if one is given (see ``_where``).
    """
    if not np.isfinite(M).all():
        bad = ~np.all(np.isfinite(M), axis=(-2, -1))
        raise NumericalError(f"{what} overflows{_where(bad)}{_at_order(bad, t)}")
    return M


def _positive(w, what="sandwiched product", t=None):
    """w, the spectrum (or stack of spectra) of ``what`` at order t, after checking it is positive."""
    if not np.min(w) > 0:
        bad = ~(np.min(w, axis=-1) > 0)
        raise NumericalError(f"{what} lost positivity{_where(bad)} "
                             f"(min eigenvalue {np.min(w[bad]):.3e}){_at_order(bad, t)}")
    return w


def _first(bad):
    """Index of the first True entry of a stack's mask."""
    return tuple(int(i) for i in np.argwhere(bad)[0])


def _where(bad):
    """Error-message suffix naming the trial of a stack's mask that fails first; empty for one matrix.

    The trial is the entry's position on the last axis: leading axes stack
    the orders of a grid, which ``_at_order`` names.
    """
    return "" if bad.ndim == 0 else f" at stack index {_first(bad)[-1]}"


def _at_order(bad, t):
    """Error-message suffix naming the order of a mask's first failing entry; empty without t.

    t is a number, or an array broadcast against the mask.
    """
    return "" if t is None else f" at t = {np.broadcast_to(t, bad.shape)[_first(bad)]}"


def sandwich_trace(A, B, t):
    """tr (A^{(1-t)/2t} B A^{(1-t)/2t})^t for t in (T_MIN, T_MAX]."""
    check_trace_order(t)
    A, B = check_matrices(A=A, B=B)
    return float(_sandwich_trace(spectral_decompose(A), B, t))


def _sandwich_trace(decA, B, t):
    """sandwich_trace from the decomposition of A, at every order of t; ``NumericalError`` if a t-th power overflows."""
    return np.sum(power(t).finite_on(_sandwich_spectrum(decA, B, t)), axis=-1)


def fidelity(A, B, t):
    """Parameterized fidelity tr (A^{(1-t)/2t} B A^{(1-t)/2t})^t, t in (0, 1)."""
    check_unit_t(t)
    A, B = check_matrices(A=A, B=B)
    return float(_sandwich_trace(spectral_decompose(A), B, t))


def bures_distance(A, B):
    """Bures-Wasserstein distance [tr(A+B)/2 - tr(A^{1/2} B A^{1/2})^{1/2}]^{1/2}."""
    A, B = check_matrices(A=A, B=B)
    half_sum = float(_trace(A) + _trace(B)) / 2.0
    radicand = half_sum - float(_sandwich_trace(spectral_decompose(A), B, 0.5))
    # rounding leaves a radicand of about -1e-15 (tr A + tr B)/2 at any scale
    if radicand < -1e-12 * half_sum:
        raise NumericalError(f"negative Bures radicand {radicand:.3e}")
    return float(np.sqrt(max(radicand, 0.0)))


def sandwiched_divergence(A, B, t):
    """Sandwiched Rényi relative entropy of B with respect to A.

    Returns ``log(tr (A^{(1-t)/2t} B A^{(1-t)/2t})^t) / (t - 1)`` for
    t in (T_MIN, T_MAX] away from 1.
    """
    check_order_t(t)
    A, B = check_matrices(A=A, B=B)
    return float(_sandwiched_divergence(spectral_decompose(A), B, t))


def _sandwiched_divergence(decA, B, t):
    """sandwiched_divergence from the decomposition of A, without the order guard."""
    return np.log(_sandwich_trace(decA, B, t)) / (t - 1.0)


def renyi_classic(A, B, t):
    """Traditional Rényi relative entropy log(tr A^{1-t} B^t) / (t - 1)."""
    check_order_t(t)
    A, B = check_matrices(A=A, B=B)
    product = (matrix_power(A, 1.0 - t), matrix_power(B, t))
    val = float(_trace(_finite_product(product, "product A^{1-t} B^t", t)))
    if val <= 0:
        raise NumericalError(f"trace of A^(1-t) B^t is not positive ({val:.3e})")
    return float(np.log(val) / (t - 1.0))


def umegaki_relative_entropy(B, A):
    """Umegaki relative entropy tr[B (log B - log A)] / tr B; ``NumericalError`` if the product overflows."""
    B, A = check_matrices(B=B, A=A)
    return float(_relative_entropy(spectral_decompose(B), spectral_decompose(A), B))


def _relative_entropy(decB, decA, B):
    """umegaki_relative_entropy(B, A) from the decompositions of B and A."""
    diff = decB.map(LOG) - decA.map(LOG)
    return _trace(_finite_product((B, diff), "product B (log B - log A)")) / _trace(B)


_WHITENED = "whitened product A^{-1/2} B A^{-1/2}"
_MEAN = "geometric mean A^{1/2} (A^{-1/2} B A^{-1/2})^t A^{1/2}"


def _whitening_basis(decA):
    """(a^{-1/2}, U): the basis of the sandwich A^{-1/2} B A^{-1/2} (m = -1/2); ``DomainError`` unless A > 0."""
    decA.require_domain(power(-0.5))
    return 1.0 / np.sqrt(decA.eigenvalues), decA.eigenvectors


def _whitened_spectrum(decA, B):
    """Ascending eigenvalues of A^{-1/2} B A^{-1/2}, all positive, from the decomposition of A."""
    return _positive(_eigenvalues(_graded_sandwich(_whitening_basis(decA), B, None, _WHITENED)), _WHITENED)


def thompson_metric(A, B):
    """Thompson metric max{log lam_1(A B^{-1}), log lam_1(B A^{-1})}."""
    A, B = check_matrices(A=A, B=B)
    return float(_thompson(_whitened_spectrum(spectral_decompose(A), B)))


def _thompson(w):
    """thompson_metric from the whitened spectrum w."""
    return np.maximum(np.log(w[..., -1]), -np.log(w[..., 0]))


def max_relative_entropy(A, B):
    """Max-relative entropy log lam_1(A B^{-1})."""
    A, B = check_matrices(A=A, B=B)
    return float(np.log(_whitened_spectrum(spectral_decompose(B), A)[-1]))


def geometric_mean(A, B, t):
    """Weighted geometric mean A^{1/2} (A^{-1/2} B A^{-1/2})^t A^{1/2}.

    Meaningful for every real t; for t in [0, 1] it is the geodesic from A
    to B of the affine-invariant metric. Raises ``DomainError`` unless A is
    positive definite (the rule of ``matrix_power(A, -0.5)``) and
    ``NumericalError`` unless A^{-1/2} B A^{-1/2} is positive definite.
    """
    A, B = check_matrices(A=A, B=B)
    return _mean_at(_whiten(spectral_decompose(A), B), t)


def _whiten(decA, B):
    """The ``_frame`` (F, w) of A^{-1/2} B A^{-1/2}, F = A^{1/2} (U V), from the decomposition of A (or of a stack).

    It does not depend on t, so a pair whitened once serves every order of
    ``_mean_at``. ``NumericalError`` unless A^{-1/2} B A^{-1/2} is positive definite.
    """
    return _frame(_whitening_basis(decA), B, None, True, _WHITENED)


def _mean_at(whitened, t):
    """A #_t B = F diag(w^t) F* from ``_whiten(decA, B)`` = (F, w), at every order of t; see ``_frame_power``."""
    return _frame_power(*whitened, t, what=_MEAN, t=t)


def riemannian_distance(A, B):
    """Affine-invariant distance ||log A^{-1/2} B A^{-1/2}||_2."""
    A, B = check_matrices(A=A, B=B)
    return float(np.linalg.norm(np.log(_whitened_spectrum(spectral_decompose(A), B))))


# kind -> (function, takes an order t, called as fn(B, A) rather than fn(A, B))
_DIVERGENCES = {
    "fidelity": (fidelity, True, False),
    "bures": (bures_distance, False, False),
    "sandwiched": (sandwiched_divergence, True, False),
    "renyi_classic": (renyi_classic, True, False),
    "umegaki": (umegaki_relative_entropy, False, True),
    "thompson": (thompson_metric, False, False),
    "max_relative": (max_relative_entropy, False, False),
    "riemannian": (riemannian_distance, False, False),
}


@dataclass(frozen=True)
class DivergenceValue:
    """A computed divergence together with its kind and order parameter."""

    value: float
    kind: str
    t: float | None = None


def compute_divergence(kind, A, B, t=None) -> DivergenceValue:
    """Dispatch a divergence computation by kind.

    ``sandwiched``, ``renyi_classic``, ``fidelity`` require t and the other
    kinds reject one (``ParameterError``). The relative entropies are
    directed: the value is D(B || A) with A the reference.
    """
    if not isinstance(kind, str) or kind not in _DIVERGENCES:
        raise InvalidInput(f"unknown divergence kind {kind!r}")
    fn, takes_t, reversed_args = _DIVERGENCES[kind]
    if takes_t != (t is not None):
        need = "requires an order t" if takes_t else "takes no order t"
        raise ParameterError(f"divergence kind {kind!r} {need}, got t = {t!r}")
    args = (B, A) if reversed_args else (A, B)
    if takes_t:
        return DivergenceValue(fn(*args, t), kind, float(t))
    return DivergenceValue(fn(*args), kind)
