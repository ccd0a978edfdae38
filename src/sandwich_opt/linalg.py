"""Dense Hermitian/SPD primitives.

Spectral decomposition, matrix functions, Fréchet derivatives, spectral-box
projection, norms, and seeded random generation. Everything downstream is
built on these kernels; matrices are plain complex ndarrays and all
operations are pure functions of their inputs. The package's Hermitian
eigensolver calls go through ``_eigh`` (eigenvectors; ``spectral_decompose``
checks and orders them) and ``_eigenvalues`` (spectra); they, ``symmetrize``,
``SpectralDecomp`` and ``_graded_svd`` also take stacks, one LAPACK call each.
"""

from __future__ import annotations

import hashlib
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidBox, InvalidInput, NumericalError

# Reject SPD construction when lambda_min <= SPD_TOL * max(1, lambda_max):
# fractional negative powers amplify near-null eigenvalues.
SPD_TOL = 1e-12

# Switch divided differences to the analytic limit when eigenvalues are
# closer than this, relative to their magnitude (cancellation control).
EQUAL_EIG_RTOL = 1e-8


def symmetrize(H):
    """Hermitian part (H + H*)/2 of a matrix or of each matrix in a stack.

    Guards against I/O round-trip asymmetry. Formed as H/2 + H*/2, which has
    the bits of (H + H*)/2 outside the subnormal range and does not overflow
    for finite entries near the largest float.
    """
    H = np.asarray(H, dtype=complex)
    return 0.5 * H + 0.5 * H.conj().swapaxes(-1, -2)


def check_matrices(n=None, error=InvalidInput, **matrices):
    """The one check of a public function's named matrix arguments: their Hermitian parts.

    Each must be a finite square matrix, all of one size, n x n if n is given;
    ``error`` names the first that is not, with both shapes on a size mismatch.
    The function then reads each argument through its Hermitian part, the
    list returned in argument order, and no kernel re-checks or re-symmetrizes it.
    """
    first, parts = None, []
    for name, H in matrices.items():
        H = np.asarray(H, dtype=complex)
        if n is not None and H.shape != (n, n):
            raise error(f"{name} must have shape ({n}, {n}), got {H.shape}")
        if H.ndim != 2 or H.shape[0] != H.shape[1] or H.shape[0] == 0:
            raise error(f"{name} must be a square matrix, got shape {H.shape}")
        if first is not None and H.shape != first[1]:
            raise error(f"{name} has shape {H.shape}, but {first[0]} has shape {first[1]}")
        if not np.isfinite(H).all():
            raise error(f"{name} has non-finite entries")
        first = first or (name, H.shape)
        parts.append(symmetrize(H))
    return parts


def _trace(M):
    """Real trace of a matrix or of each matrix of a stack."""
    return np.trace(M, axis1=-2, axis2=-1).real


def _is_number(v) -> bool:
    """A real number, not a bool (which Python counts as an int)."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _check_integer(value, what, lo, hi=None):
    """value as an int; ``InvalidInput`` naming ``what`` unless an integer (not a bool) in [lo, hi]."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        value = int(value)
        if lo <= value and (hi is None or value <= hi):
            return value
    span = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
    raise InvalidInput(f"{what} must be an integer {span}, got {value!r}")


def as_hermitian(H):
    """Validate a square finite matrix and return its Hermitian part."""
    return check_matrices(matrix=H)[0]


def _eigenvalues(H):
    """Ascending eigenvalues of symmetrize(H), a matrix or a stack, by one eigvalsh; unvalidated."""
    return np.linalg.eigvalsh(symmetrize(H))


def as_spd(A):
    """Validate that A is Hermitian positive definite and return it symmetrized.

    Rejects matrices whose smallest eigenvalue is below
    ``SPD_TOL * max(1, lambda_max)``.
    """
    return _spd_and_spectrum(A)[0]


def _spd_and_spectrum(A):
    """``as_spd`` and the ascending eigenvalues it checked A by."""
    A = as_hermitian(A)
    w = _eigenvalues(A)
    if w[0] <= SPD_TOL * max(1.0, float(w[-1])):
        raise InvalidInput(
            f"matrix is not positive definite within tolerance "
            f"(min eigenvalue {w[0]:.3e}, max {w[-1]:.3e})"
        )
    return A, w


@dataclass(frozen=True)
class SpectralDecomp:
    """Eigendecomposition U diag(lam) U* of one matrix or of a stack; eigenvalues (..., n) descending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __getitem__(self, index):
        """The decompositions of the stack entries selected by ``index``."""
        return SpectralDecomp(self.eigenvalues[index], self.eigenvectors[index])

    def apply(self, values):
        """Recombine U diag(values) U* for per-eigenvalue scalars ``values``."""
        U = self.eigenvectors
        return (U * np.asarray(values)[..., None, :]) @ U.conj().swapaxes(-1, -2)

    def reconstruct(self):
        return self.apply(self.eigenvalues)

    def require_domain(self, fn):
        """Raise ``DomainError`` unless ``fn`` is defined on the spectrum."""
        lam = self.eigenvalues
        lam_min = lam[-1] if lam.ndim == 1 else lam[..., -1].min()
        if not fn.defined_on(lam_min):
            raise DomainError(f"{fn.kind} is not defined on the spectrum (min eigenvalue {lam_min:.3e})")

    def map(self, fn):
        """U diag(fn(lam)) U*; several functions of one matrix share one decomposition.

        A power with an exponent array (see ``power``) maps every exponent in
        this one call, the result stacked over the exponent array's shape.
        ``NumericalError``, and no numpy overflow warning, if fn overflows on
        the spectrum.
        """
        self.require_domain(fn)
        return self.apply(fn.finite_on(self.eigenvalues))


def spectral_decompose(H) -> SpectralDecomp:
    """Eigendecomposition of a Hermitian matrix (n, n) or stack (k, n, n), eigenvalues descending.

    The input is symmetrized first, and ties keep the solver's order, so
    results are deterministic. A stack takes one batched eigh; LAPACK
    decomposes each matrix on its own, so entry i is ``spectral_decompose(H[i])``.
    """
    return _descending(*_eigh(_finite_hermitian(H)))


def _eigh(H):
    """(w, V), w ascending, of an exactly Hermitian H (n, n) or stack (k, n, n) by one eigh; unchecked."""
    return np.linalg.eigh(H)


def _finite_hermitian(H):
    """symmetrize(H); ``InvalidInput`` unless H is a finite square matrix (n, n) or stack (k, n, n)."""
    H = np.asarray(H, dtype=complex)
    if H.ndim not in (2, 3) or H.shape[-1] != H.shape[-2] or H.shape[-1] == 0:
        raise InvalidInput(f"expected a square matrix or a stack (k, n, n) of them, got shape {H.shape}")
    if not np.isfinite(H).all():
        raise InvalidInput("matrix has non-finite entries")
    return symmetrize(H)


def _descending(w, U):
    # fresh copies, also for n = 1: numpy raises a one-entry array with
    # negative stride with the C library's pow and a stack of them with a
    # SIMD kernel, so a function of the spectrum would round differently for
    # one matrix than for a stack
    return SpectralDecomp(w[..., ::-1].copy(), U[..., ::-1].copy())


def _graded_svd(C):
    """(sigma, Z) with C = Y diag(sigma) Z*, sigma descending, for a stack C (k, n, n) of graded factors.

    So C*C = Z diag(sigma^2) Z*. Precondition: each C is R diag(d) with R
    well conditioned and d descending, its columns in decreasing scale. Then
    every singular value, the small ones too, comes out with high relative
    accuracy, where ``eigh`` of a graded C*C may keep only absolute accuracy
    (Demmel & Veselic, SIAM J. Matrix Anal. Appl. 13, 1992; Demmel, Gu,
    Eisenstat, Slapnicar, Veselic & Drmac, Linear Algebra Appl. 299, 1999).
    Those theorems assume QR with column pivoting, and numpy's factorizations
    do not pivot, so the claim rests on the mpmath test of this kernel, which
    also shows that columns in increasing scale lose it. One batched LAPACK
    ``svd``: entry i is the decomposition of C[i] alone.
    """
    _, sigma, Zh = np.linalg.svd(C)
    return sigma, Zh.conj().swapaxes(-1, -2)


@dataclass(frozen=True)
class ScalarFunction:
    """Scalar function id for matrix-function machinery: power(s), log, exp.

    A power's exponent is a float, or an array of them from ``power``: then
    spectra x (..., n) are raised to exponent[..., None], one exponent per
    spectrum, broadcast over the leading axes.
    """

    kind: str
    exponent: float = 1.0

    def __call__(self, x):
        if self.kind == "power":
            s = self.exponent
            return _power(x, s[..., None]) if isinstance(s, np.ndarray) else np.power(x, s)
        if self.kind == "log":
            return np.log(x)
        if self.kind == "exp":
            return np.exp(x)
        raise InvalidInput(f"unknown scalar function kind {self.kind!r}")

    def deriv(self, x):
        if self.kind == "power":
            return self.exponent * np.power(x, self.exponent - 1.0)
        if self.kind == "log":
            return 1.0 / np.asarray(x, dtype=float)
        if self.kind == "exp":
            return np.exp(x)
        raise InvalidInput(f"unknown scalar function kind {self.kind!r}")

    def finite_on(self, lam):
        """self(lam) for a spectrum lam; ``NumericalError``, and no numpy overflow warning, unless finite."""
        with np.errstate(over="ignore"):
            values = self(lam)
        if not np.isfinite(values).all():
            fn = self
            if isinstance(self.exponent, np.ndarray):
                # name the exponent of the first spectrum that overflows
                bad = ~np.all(np.isfinite(values), axis=-1)
                first = tuple(np.argwhere(bad)[0])
                fn = power(float(np.broadcast_to(self.exponent, bad.shape)[first]))
            raise NumericalError(f"{fn} is not finite on the spectrum "
                                 f"(eigenvalues {np.min(lam):.3e} to {np.max(lam):.3e})")
        return values

    def defined_on(self, lam_min) -> bool:
        """Whether the function is defined on a spectrum with smallest eigenvalue lam_min.

        A power is, whatever lam_min, if its exponent (each one of an array)
        is a non-negative integer.
        """
        if self.kind == "exp" or lam_min > 0:
            return True
        exponents = np.ravel(self.exponent)
        return self.kind == "power" and all(float(s).is_integer() and s >= 0 for s in exponents)


# Exponents that numpy raises an array to, when it is given one number, by a
# kernel of its own (reciprocal, ones, sqrt, copy, square) instead of pow.
_ONE_NUMBER_EXPONENTS = frozenset((-1.0, 0.0, 0.5, 1.0, 2.0))


def _power(x, s):
    """np.power(x, s) for an exponent array s, each entry rounded as np.power(x, e) rounds its e alone.

    An exponent array takes numpy's pow kernel, which can round differently
    from the kernel numpy takes for one number in ``_ONE_NUMBER_EXPONENTS``,
    so the entries with those exponents are raised again, each value as one
    number. Then an order grid evaluated in one call has the bits of one
    call per order.
    """
    out = np.power(x, s)
    for e in _ONE_NUMBER_EXPONENTS.intersection(s.ravel().tolist()):
        np.copyto(out, np.power(x, e), where=s == e)
    return out


def power(s) -> ScalarFunction:
    """x -> x^s; ``InvalidInput`` unless the exponent s is a number (a bool is not) or an array of them.

    An array s holds one exponent per matrix of a stack: ``SpectralDecomp.map``
    raises the stack's matrices to every exponent in one evaluation, the
    result of shape broadcast(s.shape, stack shape) + (n, n).
    """
    if isinstance(s, np.ndarray) and s.ndim and s.dtype.kind in "iuf":
        return ScalarFunction("power", s.astype(float))
    if not _is_number(s):
        raise InvalidInput(f"exponent {s!r} must be a number")
    return ScalarFunction("power", float(s))


LOG = ScalarFunction("log")
EXP = ScalarFunction("exp")


def matrix_power(A, s):
    """U diag(lam**s) U* for positive definite A; defined for any real s."""
    return spectral_decompose(A).map(power(s))


def matrix_log(A):
    """U diag(log lam) U* for positive definite A."""
    return spectral_decompose(A).map(LOG)


def matrix_exp(H):
    """U diag(exp lam) U* for Hermitian H."""
    return spectral_decompose(H).map(EXP)


def loewner_matrix(fn: ScalarFunction, eigenvalues):
    """First divided differences of ``fn`` at the given points.

    Entry (i, j) is (f(x_i) - f(x_j)) / (x_i - x_j); the diagonal and
    near-coincident pairs use the derivative at the midpoint.
    """
    x = np.asarray(eigenvalues, dtype=float)
    xi = x[:, None]
    xj = x[None, :]
    with np.errstate(all="ignore"):
        L = (fn(xi) - fn(xj)) / (xi - xj)
        near = np.abs(xi - xj) <= EQUAL_EIG_RTOL * np.maximum(np.abs(xi), np.abs(xj))
        L = np.where(near, fn.deriv((xi + xj) / 2), L)
    return L


def frechet_derivative(fn: ScalarFunction, X, Y):
    """Derivative of the matrix function ``fn`` at X in direction Y.

    Computed by the divided-difference (Loewner) Hadamard product in the
    eigenbasis of X; for commuting X, Y this reduces to f'(X) Y.
    """
    X, Y = check_matrices(X=X, Y=Y)
    dec = spectral_decompose(X)
    dec.require_domain(fn)
    U = dec.eigenvectors
    Yt = U.conj().T @ Y @ U
    L = loewner_matrix(fn, dec.eigenvalues)
    return U @ (L * Yt) @ U.conj().T


def check_box(alpha, beta):
    """Validate a spectral box 0 < alpha <= beta of numbers (a bool is not one)."""
    if not (_is_number(alpha) and _is_number(beta) and np.isfinite(alpha) and np.isfinite(beta)
            and 0 < alpha <= beta):
        raise InvalidBox(f"invalid spectral box [{alpha}, {beta}]")


def project_box(H, alpha, beta):
    """Frobenius-nearest point of {X : alpha I <= X <= beta I}, exactly Hermitian.

    Two Cholesky factorizations, of H - alpha I and of beta I - H, first
    certify that the Hermitian part of H lies in the box (up to rounding);
    then it is returned as it is, with no eigendecomposition, so the
    projection is exactly idempotent on such input. Otherwise the
    eigenvalues of H are clipped into [alpha, beta], keeping its
    eigenvectors, and the rebuilt matrix is symmetrized. Nonexpansive.
    """
    check_box(alpha, beta)
    return _project_box(_finite_hermitian(H), alpha, beta)


def _project_box(H, alpha, beta):
    """``project_box`` of a finite, exactly Hermitian H on a checked box: unchecked, no eigh in the box."""
    eye = np.eye(H.shape[-1])
    if _positive_definite(H - alpha * eye) and _positive_definite(beta * eye - H):
        return H
    dec = spectral_decompose(H)
    return symmetrize(dec.apply(np.clip(dec.eigenvalues, alpha, beta)))


def _positive_definite(H):
    """Whether a Cholesky factorization of the Hermitian H (or of each matrix of a stack) succeeds."""
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        return False
    return True


# The seed domain of every seeded draw: an integer in [0, 2**128).
_SEED_MAX = 2**128 - 1


def _rng(seed):
    """numpy's default generator of seed; ``InvalidInput`` unless seed is an integer in [0, 2**128)."""
    return np.random.default_rng(_check_integer(seed, "seed", 0, _SEED_MAX))


def random_spd(n, alpha, beta, seed):
    """Seeded random SPD matrix with eigenvalues uniform in [alpha, beta].

    Eigenvectors come from the QR factor of a complex Gaussian matrix with a
    sign-fixed R diagonal; identical seeds give identical matrices. The
    dimension n is an integer >= 1 and the seed an integer in [0, 2**128)
    (``InvalidInput`` otherwise, also for booleans and a ``None`` seed); it
    draws as numpy's default generator of that seed. This is
    ``random_spd_stack`` on a stack of one seed.
    """
    return random_spd_stack(n, alpha, beta, [seed])[0]


def random_spd_stack(n, alpha, beta, seeds):
    """``random_spd`` for every seed of a sequence, stacked (k, n, n).

    Only the uniform and Gaussian draws run per seed; the QR factorization,
    the gauge fix and the recombination run once on the stack
    (``_spd_from_draws``). Entry i equals ``random_spd(n, alpha, beta,
    seeds[i])``, and an empty sequence gives an empty (0, n, n) stack.
    """
    n = _check_integer(n, "dimension", 1)
    check_box(alpha, beta)
    rngs = [_rng(seed) for seed in seeds]
    u = np.empty((len(rngs), n))
    G = np.empty((len(rngs), 2, n, n))
    for rng, u_i, G_i in zip(rngs, u, G):
        rng.random(out=u_i)
        rng.standard_normal(out=G_i)
    return _spd_from_draws(u, G, alpha, beta)


def _spd_from_draws(u, G, alpha, beta):
    """SPD matrices (..., n, n) from uniforms u (..., n) and Gaussians G (..., 2, n, n).

    Eigenvalues alpha + (beta - alpha) u, as Generator.uniform computes them;
    eigenvectors from the QR factor of the complex Gaussian matrix (real,
    then imaginary parts). One QR runs on the whole stack, and entry i
    depends on its own draws alone.
    """
    n = u.shape[-1]
    lam = float(alpha) + (float(beta) - float(alpha)) * u.reshape(-1, n)
    G = G.reshape(-1, 2, n, n)
    Q, R = np.linalg.qr(G[:, 0] + 1j * G[:, 1])
    # Fix the gauge by forcing the R diagonal positive; keeps draws seed-stable.
    d = np.diagonal(R, axis1=-2, axis2=-1)
    U = Q * (d / np.abs(d))[..., None, :]
    return symmetrize(SpectralDecomp(lam, U).apply(lam)).reshape(u.shape + (n,))


def random_hermitian(n, seed, scale=1.0):
    """Seeded random Hermitian matrix with Gaussian entries.

    n and seed are checked as by ``random_spd``; identical seeds give
    identical matrices, drawn as numpy's default generator of that seed draws them.
    """
    n = _check_integer(n, "dimension", 1)
    rng = _rng(seed)
    H = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return symmetrize(scale * H)


def norm(H, kind="frobenius"):
    """Frobenius, operator (Schatten-inf), or trace (Schatten-1) norm of a Hermitian matrix."""
    H = check_matrices(H=H)[0]
    if kind == "frobenius":
        return float(np.linalg.norm(H))
    if kind not in ("operator", "trace"):
        raise InvalidInput(f"unknown norm kind {kind!r}")
    return schatten_norm(H, np.inf if kind == "operator" else 1)


def schatten_norm(H, p):
    """Schatten-p norm of a Hermitian matrix (p a number >= 1, inf for operator norm)."""
    if not (_is_number(p) and p >= 1):
        raise InvalidInput(f"Schatten order must be >= 1, got {p}")
    s = np.abs(_eigenvalues(as_hermitian(H)))
    if np.isinf(p):
        return float(np.max(s))
    return float(np.sum(s**p) ** (1.0 / p))


def inner(X, Y):
    """Real trace inner product tr(XY) for Hermitian X, Y."""
    X, Y = check_matrices(X=X, Y=Y)
    return float(np.vdot(Y, X).real)


def derive_seed(master, *parts) -> int:
    """Stable sub-seed from a master seed and string/int labels.

    ``InvalidInput`` unless the master seed is an integer in [0, 2^128 - 1],
    the seed rule of every seeded routine.
    """
    master = _check_integer(master, "seed", 0, _SEED_MAX)
    msg = ":".join([str(master)] + [str(p) for p in parts])
    return int.from_bytes(hashlib.sha256(msg.encode()).digest()[:8], "big")
