"""Dense Hermitian/SPD primitives.

Spectral decomposition, matrix functions, Fréchet derivatives, spectral-box
projection, norms, and seeded random generation. Everything downstream is
built on these kernels; matrices are plain complex ndarrays and all
operations are pure functions of their inputs. The package's Hermitian
eigensolver calls go through ``spectral_decompose`` (eigenvectors) and
``_eigenvalues`` (spectra); they, ``symmetrize``, ``SpectralDecomp`` and
``graded_eigh`` also take stacks (k, n, n), one LAPACK call per stack.
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

    Guards against I/O round-trip asymmetry.
    """
    H = np.asarray(H, dtype=complex)
    return (H + H.conj().swapaxes(-1, -2)) / 2


def _hermitian_part(H):
    H = np.asarray(H, dtype=complex)
    if H.ndim not in (2, 3) or H.shape[-1] != H.shape[-2] or H.shape[-1] == 0:
        raise InvalidInput(f"expected a square matrix or a stack (k, n, n) of them, got shape {H.shape}")
    if not np.isfinite(H).all():
        raise InvalidInput("matrix has non-finite entries")
    return symmetrize(H)


def check_matrices(**matrices):
    """Validate the named matrix arguments of a public function at entry.

    Each must be a finite square matrix, all of one size n; ``InvalidInput``
    names the first that is not, with both shapes on a size mismatch. The
    matrices are passed on unchanged.
    """
    first = None
    for name, H in matrices.items():
        H = np.asarray(H, dtype=complex)
        if H.ndim != 2 or H.shape[0] != H.shape[1] or H.shape[0] == 0:
            raise InvalidInput(f"{name} must be a square matrix, got shape {H.shape}")
        if first is not None and H.shape != first[1]:
            raise InvalidInput(f"{name} has shape {H.shape}, but {first[0]} has shape {first[1]}")
        if not np.isfinite(H).all():
            raise InvalidInput(f"{name} has non-finite entries")
        first = first or (name, H.shape)


def _hermitian_of_size(name, H, n, error=InvalidInput):
    """The Hermitian part of H; ``error`` naming ``name`` and n unless H is a finite n x n matrix."""
    H = np.asarray(H, dtype=complex)
    if H.shape != (n, n):
        raise error(f"{name} must have shape ({n}, {n}), got {H.shape}")
    if not np.isfinite(H).all():
        raise error(f"{name} has non-finite entries")
    return symmetrize(H)


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
    check_matrices(matrix=H)
    return symmetrize(H)


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
    return _descending(*np.linalg.eigh(_hermitian_part(H)))


def _descending(w, U):
    # fresh copies, also for n = 1: numpy raises a one-entry array with
    # negative stride with the C library's pow and a stack of them with a
    # SIMD kernel, so a function of the spectrum would round differently for
    # one matrix than for a stack
    return SpectralDecomp(w[..., ::-1].copy(), U[..., ::-1].copy())


# graded_eigh stops once every pair meets |H_pq| <= GRADED_TOL sqrt(H_pp H_qq).
GRADED_TOL = 1e-15


def _round_robin(n):
    """Rounds of disjoint index pairs (p < q), every pair once per sweep.

    The circle method on n slots, plus a bye slot for odd n whose pairs are
    dropped: n/2 disjoint rotations per round, n - 1 (n odd: n) rounds.
    """
    m = n + n % 2
    slots = list(range(m))
    rounds = []
    for _ in range(m - 1):
        pairs = [sorted((slots[i], slots[m - 1 - i])) for i in range(m // 2)]
        pairs = [pq for pq in pairs if pq[1] < n]
        if pairs:
            rounds.append(tuple(np.array(idx) for idx in zip(*pairs)))
        slots = [slots[0], slots[-1]] + slots[1:-1]
    return rounds


def _rotate(H, V, p, q, tol):
    """One round of Jacobi rotations on the stacks H, V; which matrices rotated.

    A pair (p, q) of a matrix already within the relative test keeps its
    entries exactly, so no matrix's result depends on its stack neighbours.
    """
    hpp, hqq, z = H[:, p, p].real, H[:, q, q].real, H[:, p, q]
    r = np.abs(z)
    rot = r > tol * np.sqrt(np.abs(hpp) * np.abs(hqq))
    rotated = rot.any(axis=1)
    if not rotated.any():
        return rotated
    r = np.where(rot, r, 1.0)
    u = z / r
    tau = (hqq - hpp) / (2.0 * r)
    tt = np.where(tau != 0, np.sign(tau) / (np.abs(tau) + np.hypot(1.0, tau)), 1.0)
    c = 1.0 / np.hypot(1.0, tt)
    s = tt * c
    # columns of H and V by J, then rows of H by J*, with
    # J = [[u c, u s], [-s, c]] on the coordinates (p, q)
    cols = rot[:, None, :]
    for M in (H, V):
        cp, cq = M[:, :, p], M[:, :, q]
        M[:, :, p] = np.where(cols, (u * c)[:, None, :] * cp - s[:, None, :] * cq, cp)
        M[:, :, q] = np.where(cols, (u * s)[:, None, :] * cp + c[:, None, :] * cq, cq)
    rows = rot[:, :, None]
    rp, rq = H[:, p, :], H[:, q, :]
    H[:, p, :] = np.where(rows, (u.conj() * c)[..., None] * rp - s[..., None] * rq, rp)
    H[:, q, :] = np.where(rows, (u.conj() * s)[..., None] * rp + c[..., None] * rq, rq)
    H[:, p, q] = np.where(rot, 0.0, H[:, p, q])
    H[:, q, p] = np.where(rot, 0.0, H[:, q, p])
    H[:, p, p] = np.where(rot, H[:, p, p].real, H[:, p, p])
    H[:, q, q] = np.where(rot, H[:, q, q].real, H[:, q, q])
    return rotated


def graded_eigh(H, max_sweeps=60, tol=GRADED_TOL):
    """Eigendecomposition of a stack (k, n, n) of Hermitian positive definite matrices.

    Cyclic Jacobi in round-robin order (Brent & Luk, 1985): each step applies
    n/2 disjoint rotations to every matrix of the stack. A pair is rotated
    only while |H_pq| > tol sqrt(H_pp H_qq); this relative test keeps every
    eigenvalue of a strongly graded D M D (diagonal D, well-conditioned M)
    accurate in the relative sense, where a tridiagonalizing solver such as
    ``eigh`` loses the small ones (Demmel & Veselic, SIAM J. Matrix Anal.
    Appl. 13, 1992). Returns eigenvalues (k, n), descending, and eigenvectors
    (k, n, n); entry i does not depend on the other matrices of the stack.
    Raises ``NumericalError``, naming the stack index and its largest
    relative off-diagonal, if a matrix still fails the test after
    ``max_sweeps`` sweeps.
    """
    if np.ndim(H) != 3:
        raise InvalidInput(f"expected a stack (k, n, n) of square matrices, got shape {np.shape(H)}")
    H = _hermitian_part(H)
    k, n, _ = H.shape
    V = np.broadcast_to(np.eye(n, dtype=complex), H.shape).copy()
    rounds = _round_robin(n)
    for _ in range(max_sweeps):
        rotated = np.zeros(k, dtype=bool)
        for p, q in rounds:
            rotated |= _rotate(H, V, p, q, tol)
        if not rotated.any():
            break
    else:
        d = np.sqrt(np.abs(np.diagonal(H, axis1=1, axis2=2).real))
        off = np.max(np.abs(np.triu(H, 1)) / (d[:, :, None] * d[:, None, :]), axis=(1, 2))
        worst = int(np.argmax(off))
        if off[worst] > tol:
            raise NumericalError(
                f"Jacobi unconverged after {max_sweeps} sweeps at stack index {worst} "
                f"(largest relative off-diagonal {off[worst]:.3e})"
            )
    w = np.diagonal(H, axis1=1, axis2=2).real
    order = np.argsort(w, axis=1)[:, ::-1]
    return np.take_along_axis(w, order, axis=1), np.take_along_axis(V, order[:, None, :], axis=2)


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

    def finite_on(self, lam):
        """self(lam) for a spectrum lam; ``NumericalError``, and no numpy overflow warning, unless finite."""
        with np.errstate(over="ignore"):
            values = self(lam)
        if not np.isfinite(values).all():
            raise NumericalError(f"{self} is not finite on the spectrum "
                                 f"(eigenvalues {np.min(lam):.3e} to {np.max(lam):.3e})")
        return values

    def defined_on(self, lam_min) -> bool:
        """Whether the function is defined on a spectrum with smallest eigenvalue lam_min."""
        if self.kind == "exp":
            return True
        if self.kind == "power" and float(self.exponent).is_integer() and self.exponent >= 0:
            return True
        return bool(lam_min > 0)


def power(s) -> ScalarFunction:
    """x -> x^s; ``InvalidInput`` unless the exponent s is a number (a bool is not)."""
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
    check_matrices(X=X, Y=Y)
    dec = spectral_decompose(X)
    dec.require_domain(fn)
    U = dec.eigenvectors
    Yt = U.conj().T @ symmetrize(Y) @ U
    L = loewner_matrix(fn, dec.eigenvalues)
    return U @ (L * Yt) @ U.conj().T


def check_box(alpha, beta):
    """Validate a spectral box 0 < alpha <= beta of numbers (a bool is not one)."""
    if not (_is_number(alpha) and _is_number(beta) and np.isfinite(alpha) and np.isfinite(beta)
            and 0 < alpha <= beta):
        raise InvalidBox(f"invalid spectral box [{alpha}, {beta}]")


def project_box(H, alpha, beta):
    """Frobenius-nearest point of {X : alpha I <= X <= beta I}.

    Realized by clipping the eigenvalues of H into [alpha, beta] while
    keeping its eigenvectors; idempotent and nonexpansive.
    """
    check_box(alpha, beta)
    dec = spectral_decompose(H)
    return dec.apply(np.clip(dec.eigenvalues, alpha, beta))


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
    return symmetrize((U * lam[..., None, :]) @ U.conj().swapaxes(-1, -2)).reshape(u.shape + (n,))


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
    check_matrices(H=H)
    if kind == "frobenius":
        return float(np.linalg.norm(np.asarray(H, dtype=complex)))
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
    check_matrices(X=X, Y=Y)
    return float(np.vdot(np.asarray(Y), np.asarray(X)).real)


def derive_seed(master, *parts) -> int:
    """Stable sub-seed from a master seed and string/int labels.

    ``InvalidInput`` unless the master seed is an integer in [0, 2^128 - 1],
    the seed rule of every seeded routine.
    """
    master = _check_integer(master, "seed", 0, _SEED_MAX)
    msg = ":".join([str(master)] + [str(p) for p in parts])
    return int.from_bytes(hashlib.sha256(msg.encode()).digest()[:8], "big")
