"""Divergences and distances between positive definite matrices.

The central object is the sandwiched trace functional
``tr (A^{(1-t)/2t} B A^{(1-t)/2t})^t``; the classical fidelity and the
Bures-Wasserstein distance are its t = 1/2 specialization. Everything is
evaluated through spectral decompositions (n is small, exactness of the
eigen-route dominates). The private helpers that start from a
``SpectralDecomp`` work alike on one matrix and on a stack (k, n, n) from
``linalg.spectral_decompose``, which is how the batched verification suites
evaluate these same formulas. On a stack, a ``NumericalError`` names the first
failing stack index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NumericalError, ParameterError
from .linalg import (
    LOG,
    _eigenvalues,
    _is_number,
    check_matrices,
    matrix_power,
    power,
    spectral_decompose,
    symmetrize,
)

# Order parameters closer than T_MIN to the degenerate endpoints are
# rejected: conditioning of the exponent (1-t)/2t blows up as t -> 0+.
T_MIN = 1e-3
T_MAX = 64.0

# Divergence orders this close to 1 are rejected and redirected to the
# Umegaki entropy; the limit checks evaluate down to |t-1| = 1e-4.
NEAR_ONE_TOL = 1e-9


def check_unit_t(t):
    """Require a number t (not a bool) in (T_MIN, 1 - T_MIN)."""
    if not (_is_number(t) and np.isfinite(t) and T_MIN < t < 1.0 - T_MIN):
        raise ParameterError(f"order parameter t = {t} outside ({T_MIN}, {1 - T_MIN})")


def check_order_t(t):
    """Require a number t (not a bool) in (T_MIN, T_MAX] away from 1."""
    if not (_is_number(t) and np.isfinite(t) and T_MIN < t <= T_MAX):
        raise ParameterError(f"divergence order t = {t} outside ({T_MIN}, {T_MAX}]")
    if abs(t - 1.0) <= NEAR_ONE_TOL:
        raise ParameterError(
            "divergence order t = 1 is the Umegaki limit; "
            "call umegaki_relative_entropy instead"
        )


def sandwich_spectrum(A, B, t):
    """Ascending eigenvalues of A^{(1-t)/2t} B A^{(1-t)/2t}, all positive."""
    check_matrices(A=A, B=B)
    return _sandwich_spectrum(spectral_decompose(A), B, t)


def _sandwich_spectrum(decA, B, t):
    """sandwich_spectrum from the decomposition of A (or of a stack, with B a stack)."""
    return _factor_spectrum(_sandwich_factor(decA, t), B, t)


def _factor_spectrum(P, B, t):
    """Ascending eigenvalues of P B P, all positive, from the sandwich factor P."""
    return _positive(_eigenvalues(_sandwiched(P, B, f" at t = {t}")))


def _sandwich_factor(decA, t):
    """P = A^{(1-t)/2t} from the decomposition of A (or a stack); ``NumericalError`` if it overflows.

    Every sandwich P B P of this module is formed from this one factor, so a
    caller that sandwiches many B with one A forms P once.
    """
    return decA.map(power((1.0 - t) / (2.0 * t)))


def _sandwich(P, X, t):
    """Decomposition of P X P from the sandwich factor P, X validated; NumericalError unless P X P > 0."""
    dec = spectral_decompose(_sandwiched(P, symmetrize(X), f" at t = {t}"))
    _positive(dec.eigenvalues)
    return dec


def _sandwiched(P, B, context="", what="sandwiched product"):
    """P B P (matrices or stacks) if finite; else ``NumericalError`` naming ``what`` and the first bad index.

    The product is formed with numpy's overflow warnings off, so an overflow
    surfaces only as the ``NumericalError``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        M = P @ B @ P
    if not np.isfinite(M).all():
        bad = ~np.all(np.isfinite(M), axis=(-2, -1))
        raise NumericalError(f"{what} overflows{_where(bad)}{context}")
    return M


def _positive(w, what="sandwiched product"):
    """w, the spectrum (or stack of spectra) of the product ``what``, after checking it is positive."""
    if not np.min(w) > 0:
        bad = ~(np.min(w, axis=-1) > 0)
        raise NumericalError(f"{what} lost positivity{_where(bad)} "
                             f"(min eigenvalue {np.min(w[bad]):.3e})")
    return w


def _where(bad):
    """Error-message suffix naming the first failing entry of a stack's mask; empty for one matrix."""
    if bad.ndim == 0:
        return ""
    index = tuple(int(i) for i in np.argwhere(bad)[0])
    return f" at stack index {index[0] if len(index) == 1 else index}"


def sandwich_trace(A, B, t):
    """tr (A^{(1-t)/2t} B A^{(1-t)/2t})^t, without order-parameter guards."""
    check_matrices(A=A, B=B)
    return float(_sandwich_trace(spectral_decompose(A), B, t))


def _sandwich_trace(decA, B, t):
    """sandwich_trace from the decomposition of A."""
    return _factor_trace(_sandwich_factor(decA, t), B, t)


def _factor_trace(P, B, t):
    """tr (P B P)^t from the sandwich factor P; ``NumericalError`` if a t-th power overflows."""
    return np.sum(power(t).finite_on(_factor_spectrum(P, B, t)), axis=-1)


def fidelity(A, B, t):
    """Parameterized fidelity tr (A^{(1-t)/2t} B A^{(1-t)/2t})^t, t in (0, 1)."""
    check_unit_t(t)
    return sandwich_trace(A, B, t)


def bures_distance(A, B):
    """Bures-Wasserstein distance [tr(A+B)/2 - tr(A^{1/2} B A^{1/2})^{1/2}]^{1/2}."""
    fid = sandwich_trace(A, B, 0.5)  # validates A and B first
    radicand = float(np.trace(A).real + np.trace(B).real) / 2.0 - fid
    if radicand < -1e-10:
        raise NumericalError(f"negative Bures radicand {radicand:.3e}")
    return float(np.sqrt(max(radicand, 0.0)))


def sandwiched_divergence(A, B, t):
    """Sandwiched Rényi relative entropy of B with respect to A.

    Returns ``log(tr (A^{(1-t)/2t} B A^{(1-t)/2t})^t) / (t - 1)`` for
    t in (T_MIN, T_MAX] away from 1.
    """
    check_order_t(t)
    check_matrices(A=A, B=B)
    return float(_sandwiched_divergence(spectral_decompose(A), B, t))


def _sandwiched_divergence(decA, B, t):
    """sandwiched_divergence from the decomposition of A, without the order guard."""
    return np.log(_sandwich_trace(decA, B, t)) / (t - 1.0)


def renyi_classic(A, B, t):
    """Traditional Rényi relative entropy log(tr A^{1-t} B^t) / (t - 1)."""
    check_order_t(t)
    check_matrices(A=A, B=B)
    val = float(np.trace(matrix_power(A, 1.0 - t) @ matrix_power(B, t)).real)
    if val <= 0:
        raise NumericalError(f"trace of A^(1-t) B^t is not positive ({val:.3e})")
    return float(np.log(val) / (t - 1.0))


def umegaki_relative_entropy(B, A):
    """Umegaki relative entropy tr[B (log B - log A)] / tr B."""
    check_matrices(B=B, A=A)
    return float(_relative_entropy(spectral_decompose(B), spectral_decompose(A), B))


def _relative_entropy(decB, decA, B):
    """umegaki_relative_entropy(B, A) from the decompositions of B and A."""
    diff = decB.map(LOG) - decA.map(LOG)
    return np.trace(B @ diff, axis1=-2, axis2=-1).real / np.trace(B, axis1=-2, axis2=-1).real


_WHITENED = "whitened product A^{-1/2} B A^{-1/2}"


def _whitened(decA, B):
    """A^{-1/2} B A^{-1/2} from the decomposition of A.

    ``DomainError`` unless A is positive definite, ``NumericalError`` if the
    product overflows.
    """
    decA.require_domain(power(-0.5))
    return _sandwiched(decA.apply(1.0 / np.sqrt(decA.eigenvalues)), B, what=_WHITENED)


def _whitened_spectrum(decA, B):
    """Ascending eigenvalues of A^{-1/2} B A^{-1/2}, all positive, from the decomposition of A."""
    return _positive(_eigenvalues(_whitened(decA, B)), _WHITENED)


def thompson_metric(A, B):
    """Thompson metric max{log lam_1(A B^{-1}), log lam_1(B A^{-1})}."""
    check_matrices(A=A, B=B)
    return float(_thompson(_whitened_spectrum(spectral_decompose(A), B)))


def _thompson(w):
    """thompson_metric from the whitened spectrum w."""
    return np.maximum(np.log(w[..., -1]), -np.log(w[..., 0]))


def max_relative_entropy(A, B):
    """Max-relative entropy log lam_1(A B^{-1})."""
    check_matrices(A=A, B=B)
    return float(np.log(_whitened_spectrum(spectral_decompose(B), A)[-1]))


def geometric_mean(A, B, t):
    """Weighted geometric mean A^{1/2} (A^{-1/2} B A^{-1/2})^t A^{1/2}.

    Meaningful for every real t; for t in [0, 1] it is the geodesic from A
    to B of the affine-invariant metric. Raises ``DomainError`` unless A is
    positive definite (the rule of ``matrix_power(A, -0.5)``) and
    ``NumericalError`` unless A^{-1/2} B A^{-1/2} is positive definite.
    """
    check_matrices(A=A, B=B)
    return _geometric_mean(spectral_decompose(A), B, t)


def _geometric_mean(decA, B, t):
    """geometric_mean from the decomposition of A (or of a stack, with B a stack).

    The one formula of A #_t B, in two steps: ``_whiten`` decomposes
    A^{-1/2} B A^{-1/2}, which does not depend on t, and ``_mean_at`` takes
    A #_t B from that decomposition. A caller that needs several orders of
    one pair whitens once and calls ``_mean_at`` per order.
    """
    return _mean_at(_whiten(decA, B), t)


def _whiten(decA, B):
    """(A^{1/2}, decomposition of A^{-1/2} B A^{-1/2}) for ``_mean_at``.

    ``DomainError`` unless A is positive definite, ``NumericalError`` unless
    A^{-1/2} B A^{-1/2} is.
    """
    decM = spectral_decompose(_whitened(decA, B))
    _positive(decM.eigenvalues, _WHITENED)
    return decA.apply(np.sqrt(decA.eigenvalues)), decM


def _mean_at(whitened, t):
    """A #_t B = A^{1/2} (A^{-1/2} B A^{-1/2})^t A^{1/2} from ``_whiten(decA, B)``.

    ``NumericalError`` if the t-th power overflows.
    """
    root, decM = whitened
    return symmetrize(root @ decM.map(power(t)) @ root)


def riemannian_distance(A, B):
    """Affine-invariant distance ||log A^{-1/2} B A^{-1/2}||_2."""
    check_matrices(A=A, B=B)
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
DIVERGENCE_KINDS = tuple(_DIVERGENCES)


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
    if kind not in _DIVERGENCES:
        raise InvalidInput(f"unknown divergence kind {kind!r}")
    fn, takes_t, reversed_args = _DIVERGENCES[kind]
    if takes_t != (t is not None):
        need = "requires an order t" if takes_t else "takes no order t"
        raise ParameterError(f"divergence kind {kind!r} {need}")
    args = (B, A) if reversed_args else (A, B)
    if takes_t:
        return DivergenceValue(fn(*args, t), kind, float(t))
    return DivergenceValue(fn(*args), kind)
