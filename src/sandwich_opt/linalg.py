"""Dense Hermitian/SPD primitives.

Spectral decomposition, matrix functions, Fréchet derivatives, spectral-box
projection, norms, and seeded random generation. Everything downstream is
built on these kernels; matrices are plain complex ndarrays and all
operations are pure functions of their inputs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidBox, InvalidInput

# Reject SPD construction when lambda_min <= SPD_TOL * max(1, lambda_max):
# fractional negative powers amplify near-null eigenvalues.
SPD_TOL = 1e-12

# Switch divided differences to the analytic limit when eigenvalues are
# closer than this, relative to their magnitude (cancellation control).
EQUAL_EIG_RTOL = 1e-8


def symmetrize(H):
    """Hermitian part (H + H*)/2; guards against I/O round-trip asymmetry."""
    H = np.asarray(H, dtype=complex)
    return (H + H.conj().T) / 2


def as_hermitian(H):
    """Validate a square finite matrix and return its Hermitian part."""
    H = np.asarray(H, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1] or H.shape[0] == 0:
        raise InvalidInput(f"expected a square matrix, got shape {H.shape}")
    if not np.all(np.isfinite(H)):
        raise InvalidInput("matrix has non-finite entries")
    return symmetrize(H)


def as_spd(A):
    """Validate that A is Hermitian positive definite and return it symmetrized.

    Rejects matrices whose smallest eigenvalue is below
    ``SPD_TOL * max(1, lambda_max)``.
    """
    A = as_hermitian(A)
    w = np.linalg.eigvalsh(A)
    if w[0] <= SPD_TOL * max(1.0, float(w[-1])):
        raise InvalidInput(
            f"matrix is not positive definite within tolerance "
            f"(min eigenvalue {w[0]:.3e}, max {w[-1]:.3e})"
        )
    return A


@dataclass(frozen=True)
class SpectralDecomp:
    """Eigendecomposition U diag(lam) U* with eigenvalues sorted descending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def apply(self, values):
        """Recombine U diag(values) U* for per-eigenvalue scalars ``values``."""
        U = self.eigenvectors
        return (U * np.asarray(values)) @ U.conj().T

    def reconstruct(self):
        return self.apply(self.eigenvalues)

    def require_domain(self, fn):
        """Raise ``DomainError`` unless ``fn`` is defined on the spectrum."""
        lam_min = self.eigenvalues[-1]
        if not fn.defined_on(lam_min):
            raise DomainError(f"{fn.kind} is not defined on the spectrum (min eigenvalue {lam_min:.3e})")

    def map(self, fn):
        """U diag(fn(lam)) U*; several functions of one matrix share one decomposition."""
        self.require_domain(fn)
        return self.apply(fn(self.eigenvalues))


def spectral_decompose(H) -> SpectralDecomp:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    The input is symmetrized before decomposition. Ties keep the order
    produced by the underlying solver, so results are deterministic.
    """
    H = as_hermitian(H)
    w, U = np.linalg.eigh(H)
    return SpectralDecomp(np.ascontiguousarray(w[::-1]), np.ascontiguousarray(U[:, ::-1]))


@dataclass(frozen=True)
class ScalarFunction:
    """Scalar function id for matrix-function machinery: power(s), log, exp."""

    kind: str
    exponent: float = 1.0

    def __call__(self, x):
        if self.kind == "power":
            return np.power(x, self.exponent)
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

    def defined_on(self, lam_min) -> bool:
        """Whether the function is defined on a spectrum with smallest eigenvalue lam_min."""
        if self.kind == "exp":
            return True
        if self.kind == "power" and float(self.exponent).is_integer() and self.exponent >= 0:
            return True
        return bool(lam_min > 0)


def power(s) -> ScalarFunction:
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
    dec = spectral_decompose(X)
    dec.require_domain(fn)
    U = dec.eigenvectors
    Yt = U.conj().T @ as_hermitian(Y) @ U
    L = loewner_matrix(fn, dec.eigenvalues)
    return U @ (L * Yt) @ U.conj().T


def check_box(alpha, beta):
    """Validate a spectral box 0 < alpha <= beta."""
    if not (np.isfinite(alpha) and np.isfinite(beta)) or not 0 < alpha <= beta:
        raise InvalidBox(f"invalid spectral box [{alpha}, {beta}]")


def project_box(H, alpha, beta):
    """Frobenius-nearest point of {X : alpha I <= X <= beta I}.

    Realized by clipping the eigenvalues of H into [alpha, beta] while
    keeping its eigenvectors; idempotent and nonexpansive.
    """
    check_box(alpha, beta)
    dec = spectral_decompose(H)
    return dec.apply(np.clip(dec.eigenvalues, alpha, beta))


def _random_unitary(n, rng):
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    # Fix the gauge by forcing the R diagonal positive; keeps draws seed-stable.
    d = np.diagonal(R)
    return Q * (d / np.abs(d))


def random_spd(n, alpha, beta, seed):
    """Seeded random SPD matrix with eigenvalues uniform in [alpha, beta].

    Eigenvectors come from the QR factor of a complex Gaussian matrix with a
    sign-fixed R diagonal; identical seeds give identical matrices.
    """
    if n < 1:
        raise InvalidInput(f"dimension must be >= 1, got {n}")
    check_box(alpha, beta)
    rng = np.random.default_rng(seed)
    lam = rng.uniform(alpha, beta, size=n)
    U = _random_unitary(n, rng)
    return symmetrize((U * lam) @ U.conj().T)


def random_hermitian(n, seed, scale=1.0):
    """Seeded random Hermitian matrix with Gaussian entries."""
    if n < 1:
        raise InvalidInput(f"dimension must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    H = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return symmetrize(scale * H)


def norm(H, kind="frobenius"):
    """Frobenius, operator, or trace norm of a Hermitian matrix."""
    H = np.asarray(H, dtype=complex)
    if kind == "frobenius":
        return float(np.linalg.norm(H))
    w = np.abs(np.linalg.eigvalsh(symmetrize(H)))
    if kind == "operator":
        return float(np.max(w))
    if kind == "trace":
        return float(np.sum(w))
    raise InvalidInput(f"unknown norm kind {kind!r}")


def schatten_norm(H, p):
    """Schatten-p norm of a Hermitian matrix (p >= 1, inf for operator norm)."""
    if not p >= 1:
        raise InvalidInput(f"Schatten order must be >= 1, got {p}")
    s = np.abs(np.linalg.eigvalsh(as_hermitian(H)))
    if np.isinf(p):
        return float(np.max(s))
    return float(np.sum(s**p) ** (1.0 / p))


def inner(X, Y):
    """Real trace inner product tr(XY) for Hermitian X, Y."""
    return float(np.vdot(np.asarray(Y), np.asarray(X)).real)


def derive_seed(master, *parts) -> int:
    """Stable sub-seed from a master seed and string/int labels."""
    msg = ":".join([str(int(master))] + [str(p) for p in parts])
    return int.from_bytes(hashlib.sha256(msg.encode()).digest()[:8], "big")
