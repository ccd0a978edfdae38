"""Dense Hermitian/SPD primitives.

Spectral decomposition, matrix functions, Fréchet derivatives, spectral-box
projection, norms, and seeded random generation. Everything downstream is
built on these kernels; matrices are plain complex ndarrays and all
operations are pure functions of their inputs. ``symmetrize``,
``SpectralDecomp``, ``stack_decompose`` and ``graded_eigh`` also take stacks
(k, n, n) of matrices, one LAPACK or numpy call for the whole stack.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

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


def _hermitian_part(H, ndim):
    H = np.asarray(H, dtype=complex)
    if H.ndim != ndim or H.shape[-1] != H.shape[-2] or H.shape[-1] == 0:
        kind = "a square matrix" if ndim == 2 else "a stack (k, n, n) of square matrices"
        raise InvalidInput(f"expected {kind}, got shape {H.shape}")
    if not np.all(np.isfinite(H)):
        raise InvalidInput("matrix has non-finite entries")
    return symmetrize(H)


def as_hermitian(H):
    """Validate a square finite matrix and return its Hermitian part."""
    return _hermitian_part(H, 2)


def as_spd(A):
    """Validate that A is Hermitian positive definite and return it symmetrized.

    Rejects matrices whose smallest eigenvalue is below
    ``SPD_TOL * max(1, lambda_max)``.
    """
    return _spd_and_spectrum(A)[0]


def _spd_and_spectrum(A):
    """``as_spd`` and the ascending eigenvalues it checked A by."""
    A = as_hermitian(A)
    w = np.linalg.eigvalsh(A)
    if w[0] <= SPD_TOL * max(1.0, float(w[-1])):
        raise InvalidInput(
            f"matrix is not positive definite within tolerance "
            f"(min eigenvalue {w[0]:.3e}, max {w[-1]:.3e})"
        )
    return A, w


@dataclass(frozen=True)
class SpectralDecomp:
    """Eigendecomposition U diag(lam) U* with eigenvalues sorted descending.

    Eigenvalues (..., n) and eigenvectors (..., n, n): one matrix, or a stack
    of them from ``stack_decompose``.
    """

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
        """U diag(fn(lam)) U*; several functions of one matrix share one decomposition."""
        self.require_domain(fn)
        return self.apply(fn(self.eigenvalues))


def spectral_decompose(H) -> SpectralDecomp:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    The input is symmetrized before decomposition. Ties keep the order
    produced by the underlying solver, so results are deterministic.
    """
    return _descending(*np.linalg.eigh(as_hermitian(H)))


def stack_decompose(H) -> SpectralDecomp:
    """``spectral_decompose`` of every matrix of a stack (k, n, n), by one batched eigh.

    LAPACK decomposes each matrix on its own, so entry i equals
    ``spectral_decompose(H[i])``.
    """
    return _descending(*np.linalg.eigh(_hermitian_part(H, 3)))


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
    H = _hermitian_part(H, 3)
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


def _hash_constants(init, mult, count):
    """The hash constant before each of ``count`` hashmix calls, and after the last."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    return np.array(consts, dtype=np.uint32)


# The constants of numpy's SeedSequence (bit_generator.pyx; its streams are
# stable across numpy versions, NEP 19). With at most four entropy words a
# seed takes a fixed sequence of hashmix calls: 4 to fill the pool of four
# uint32 words and 12 to mix it (INIT_A, MULT_A), then 8 to draw 4 uint64
# state words from it (INIT_B, MULT_B).
_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)


def _hashmix(v, calls, consts):
    """SeedSequence's hashmix of v, call ``calls.start`` onward along the last axis."""
    v = (v ^ consts[calls]) * consts[calls.start + 1:calls.stop + 1]
    return v ^ (v >> np.uint32(16))


def _mix(x, y):
    r = x * np.uint32(0xCA01F9DD) - y * np.uint32(0x4973F715)  # MIX_MULT_L, MIX_MULT_R
    return r ^ (r >> np.uint32(16))


def _check_seed(seed):
    """The seed as an int; ``InvalidInput`` unless an integer (not a bool) in [0, 2**128)."""
    if isinstance(seed, (int, np.integer)) and not isinstance(seed, bool) and 0 <= int(seed) < 2**128:
        return int(seed)
    raise InvalidInput(f"seed must be an integer in [0, 2**128), got {seed!r}")


def _check_dimension(n):
    """The dimension as an int; ``InvalidInput`` unless an integer (not a bool) >= 1."""
    if isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= 1:
        return int(n)
    raise InvalidInput(f"dimension must be an integer >= 1, got {n!r}")


def _seed_words(seeds):
    """(k, 4) uint64: row i is ``generate_state(4, np.uint64)`` of the SeedSequence of seeds[i].

    SeedSequence's hashmix and mix steps run on a (k, 4) uint32 pool holding
    every seed, a whole row of words per step. Each seed is split into four
    little-endian 32-bit words; a zero word hashes like SeedSequence's padding
    of a shorter entropy, so all of [0, 2**128) takes this one path.
    """
    seeds = [_check_seed(s) for s in seeds]
    halves = np.array([(s & 0xFFFFFFFFFFFFFFFF, s >> 64) for s in seeds], dtype="<u8").reshape(-1, 2)
    pool = _hashmix(halves.view("<u4").astype(np.uint32), slice(0, 4), _HASH_A)
    for src in range(4):
        # word src does not change while it mixes into the other three, so
        # its three hashes are taken at once
        dst = [d for d in range(4) if d != src]
        calls = slice(4 + 3 * src, 7 + 3 * src)
        pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, src, None], calls, _HASH_A))
    state = _hashmix(np.concatenate([pool, pool], axis=1), slice(0, 8), _HASH_B)
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _SeedWords(ISeedSequence):
    """Seed sequence that hands PCG64 its precomputed state words."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _generators(seeds):
    """One PCG64 ``Generator`` per seed, each drawing as numpy's default generator of that seed."""
    return [np.random.Generator(np.random.PCG64(_SeedWords(w))) for w in _seed_words(seeds)]


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

    The PCG64 state words of all seeds come from one vectorized SeedSequence
    pass, and only the uniform and Gaussian draws run per seed; the QR
    factorization, the gauge fix and the recombination run once on the
    stack. Entry i equals ``random_spd(n, alpha, beta, seeds[i])``, and an
    empty sequence gives an empty (0, n, n) stack.
    """
    n = _check_dimension(n)
    check_box(alpha, beta)
    rngs = _generators(seeds)
    u = np.empty((len(rngs), n))
    G = np.empty((len(rngs), 2, n, n))  # real, then imaginary parts of the Gaussian matrix
    for rng, u_i, G_i in zip(rngs, u, G):
        rng.random(out=u_i)
        rng.standard_normal(out=G_i)
    # Generator.uniform's arithmetic, without its per-call overhead
    lam = float(alpha) + (float(beta) - float(alpha)) * u
    Q, R = np.linalg.qr(G[:, 0] + 1j * G[:, 1])
    # Fix the gauge by forcing the R diagonal positive; keeps draws seed-stable.
    d = np.diagonal(R, axis1=-2, axis2=-1)
    U = Q * (d / np.abs(d))[..., None, :]
    return symmetrize((U * lam[..., None, :]) @ U.conj().swapaxes(-1, -2))


def random_hermitian(n, seed, scale=1.0):
    """Seeded random Hermitian matrix with Gaussian entries.

    The dimension n is an integer >= 1 and the seed an integer in
    [0, 2**128) (``InvalidInput`` otherwise, also for booleans and a ``None``
    seed); identical seeds give identical matrices, drawn as numpy's default
    generator of that seed draws them.
    """
    n = _check_dimension(n)
    (rng,) = _generators([seed])
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
