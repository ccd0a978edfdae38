import ast
import dataclasses
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sandwich_opt
from sandwich_opt import (
    EXP,
    LOG,
    DomainError,
    InvalidBox,
    InvalidInput,
    NumericalError,
    as_spd,
    derive_seed,
    frechet_derivative,
    loewner_matrix,
    matrix_exp,
    matrix_log,
    matrix_power,
    norm,
    power,
    project_box,
    random_hermitian,
    random_spd,
    random_spd_stack,
    schatten_norm,
    spectral_decompose,
    symmetrize,
)
from sandwich_opt.barycenter import BOX_RTOL
from sandwich_opt.linalg import EQUAL_EIG_RTOL, _graded_svd

from oracles import count_lapack, jacobi_eigh, random_hermitian_oracle, random_spd_oracle


def test_spectral_decompose_identity():
    dec = spectral_decompose(np.eye(3))
    assert np.allclose(dec.eigenvalues, [1.0, 1.0, 1.0])
    assert np.allclose(dec.eigenvectors @ dec.eigenvectors.conj().T, np.eye(3))


def test_spectral_decompose_diagonal_sorted_descending():
    dec = spectral_decompose(np.diag([2.0, 5.0]))
    assert np.allclose(dec.eigenvalues, [5.0, 2.0])


def test_spectral_decompose_hand_characteristic_polynomial():
    # eigenvalues of [[2,1],[1,2]] solve lam^2 - 4 lam + 3 = 0
    dec = spectral_decompose(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(dec.eigenvalues, [3.0, 1.0], atol=1e-14)


def test_spectral_decompose_rejects_bad_input():
    with pytest.raises(InvalidInput):
        spectral_decompose(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(InvalidInput):
        spectral_decompose(np.ones((2, 3)))


def test_spectral_decompose_invariants_seeded():
    # reconstruction and orthonormality across 1000 seeded draws, n <= 16
    rng = np.random.default_rng(20240601)
    for trial in range(1000):
        n = int(rng.integers(1, 17))
        H = random_hermitian(n, derive_seed(1, "dec", trial))
        dec = spectral_decompose(H)
        opn = max(np.abs(dec.eigenvalues).max(), 1e-300)
        assert np.linalg.norm(dec.reconstruct() - symmetrize(H)) <= 1e-12 * opn * np.sqrt(n)
        gram = dec.eigenvectors.conj().T @ dec.eigenvectors
        assert np.max(np.abs(gram - np.eye(n))) <= 1e-12


def test_matrix_power_examples():
    assert np.allclose(matrix_power(np.diag([4.0, 9.0]), 0.5), np.diag([2.0, 3.0]))
    A = random_spd(5, 0.5, 3.0, 11)
    assert np.allclose(matrix_power(A, 0.0), np.eye(5), atol=1e-12)
    inv = matrix_power(np.array([[2.0, 1.0], [1.0, 2.0]]), -1.0)
    assert np.allclose(inv, np.array([[2, -1], [-1, 2]]) / 3.0, atol=1e-14)


def test_matrix_power_composition_property():
    for seed, (s, r) in enumerate([(0.5, 0.5), (-0.7, 2.0), (2.0, -1.0), (0.3, 1.7)]):
        A = random_spd(6, 0.5, 4.0, 300 + seed)
        lhs = matrix_power(matrix_power(A, s), r)
        rhs = matrix_power(A, s * r)
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_spectral_decomp_map_is_the_matrix_function_path():
    # matrix_power/log/exp are map over one decomposition, bit for bit, and
    # map keeps the bits of the per-eigenvalue formulas lam**s, log, exp
    A = random_spd(5, 0.5, 3.0, 12)
    dec = spectral_decompose(A)
    lam = dec.eigenvalues
    for s in (0.5, -1.0, 2.0, -0.5, 1.0, 0.0, 0.3, -0.7):
        assert np.array_equal(dec.map(power(s)), matrix_power(A, s))
        assert np.array_equal(dec.map(power(s)), dec.apply(lam**s))
    assert np.array_equal(dec.map(LOG), matrix_log(A))
    assert np.array_equal(dec.map(LOG), dec.apply(np.log(lam)))
    assert np.array_equal(dec.map(EXP), matrix_exp(A))
    assert np.array_equal(dec.map(EXP), dec.apply(np.exp(lam)))
    indefinite = spectral_decompose(np.diag([1.0, -1.0]))
    with pytest.raises(DomainError):
        indefinite.map(LOG)
    assert np.array_equal(indefinite.map(power(2.0)), np.diag([1.0, 1.0]).astype(complex))


def test_matrix_power_rejects_indefinite():
    with pytest.raises(DomainError):
        matrix_power(np.diag([1.0, -1.0]), 0.5)


def test_matrix_log_examples():
    assert np.allclose(matrix_log(np.eye(3)), np.zeros((3, 3)), atol=1e-14)
    assert np.allclose(
        matrix_log(np.diag([np.e, np.e**2])), np.diag([1.0, 2.0]), atol=1e-14
    )
    # [[2,1],[1,2]] has eigenpairs (3, [1,1]/sqrt2) and (1, [1,-1]/sqrt2)
    expected = np.log(3.0) / 2.0 * np.ones((2, 2))
    assert np.allclose(matrix_log(np.array([[2.0, 1.0], [1.0, 2.0]])), expected, atol=1e-14)


def test_matrix_log_exp_round_trip():
    A = random_spd(6, 0.2, 5.0, 99)
    assert np.linalg.norm(matrix_exp(matrix_log(A)) - A) <= 1e-12 * np.linalg.norm(A)


def test_loewner_matrix_values():
    assert np.allclose(loewner_matrix(power(2), [1.0, 3.0]), [[2.0, 4.0], [4.0, 6.0]])
    assert np.allclose(loewner_matrix(LOG, [1.0, 1.0]), np.ones((2, 2)))
    L = loewner_matrix(power(-0.5), [1.0, 4.0])
    assert np.isclose(L[0, 1], -1.0 / 6.0)
    assert np.isclose(L[1, 0], -1.0 / 6.0)
    assert np.isclose(L[0, 0], -0.5)
    assert np.isclose(L[1, 1], -0.5 * 4.0 ** (-1.5))
    # x^{t-1} across the switch to the analytic limit stays continuous
    for t in (0.3, 0.5, 0.7):
        near, far = (
            loewner_matrix(power(t - 1.0), [1.0, 1.0 + s * EQUAL_EIG_RTOL])[0, 1]
            for s in (0.5, 2.0)
        )
        assert abs(near - far) <= 1e-6 * abs(far)


def test_frechet_derivative_examples():
    Y = random_hermitian(3, 5)
    assert np.allclose(frechet_derivative(power(2), np.eye(3), Y), 2.0 * Y)
    Y2 = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(frechet_derivative(LOG, np.eye(2), Y2), Y2)
    out = frechet_derivative(power(0.5), np.diag([1.0, 4.0]), Y2)
    assert np.allclose(out, np.array([[0.0, 1 / 3], [1 / 3, 0.0]]), atol=1e-14)


@pytest.mark.parametrize("fn", [power(0.5), power(-1.0), LOG, EXP])
def test_frechet_derivative_matches_finite_difference(fn):
    for seed in range(5):
        X = random_spd(5, 0.5, 3.0, 400 + seed)
        Y = random_hermitian(5, 500 + seed)
        h = 1e-5 * norm(X, "operator") / norm(Y, "operator")
        Fp = spectral_decompose(X + h * Y)
        Fm = spectral_decompose(X - h * Y)
        fd = (Fp.apply(fn(Fp.eigenvalues)) - Fm.apply(fn(Fm.eigenvalues))) / (2 * h)
        out = frechet_derivative(fn, X, Y)
        assert np.linalg.norm(out - fd) <= 1e-6 * np.linalg.norm(out)


def test_frechet_derivative_domain_error():
    with pytest.raises(DomainError):
        frechet_derivative(LOG, np.diag([1.0, -2.0]), np.eye(2))


def test_project_box_examples():
    assert np.allclose(project_box(np.diag([0.5, 5.0]), 1.0, 4.0), np.diag([1.0, 4.0]))
    A = random_spd(4, 1.5, 3.5, 21)
    assert np.allclose(project_box(A, 1.0, 4.0), A, atol=1e-12)
    out = project_box(np.array([[2.0, 1.0], [1.0, 2.0]]), 1.5, 4.0)
    assert np.allclose(out, np.array([[2.25, 0.75], [0.75, 2.25]]), atol=1e-14)


def test_project_box_rejects_bad_box():
    with pytest.raises(InvalidBox):
        project_box(np.eye(2), 4.0, 1.0)
    with pytest.raises(InvalidBox):
        project_box(np.eye(2), -1.0, 1.0)


def test_project_box_idempotent_and_nonexpansive():
    for seed in range(25):
        H1 = random_hermitian(5, 600 + seed, scale=3.0)
        H2 = random_hermitian(5, 700 + seed, scale=3.0)
        P1 = project_box(H1, 0.5, 2.0)
        P2 = project_box(H2, 0.5, 2.0)
        assert np.linalg.norm(project_box(P1, 0.5, 2.0) - P1) <= 1e-12
        assert np.linalg.norm(P1 - P2) <= np.linalg.norm(H1 - H2) + 1e-12


def _assert_in_box(X, alpha, beta):
    w = np.linalg.eigvalsh(X)
    assert alpha - BOX_RTOL * beta <= w[0] and w[-1] <= beta + BOX_RTOL * beta


def test_project_box_returns_an_in_box_matrix_without_decomposing_it(monkeypatch):
    # two Cholesky factorizations certify the Hermitian part in the box, and it
    # comes back bit for bit, so a second projection moves nothing
    for seed in range(5):
        H = random_spd(5, 1.5, 3.5, 800 + seed) + 1j * random_hermitian(5, 900 + seed, scale=0.1)
        calls = count_lapack(monkeypatch, "eigh", "cholesky")
        once = project_box(H, 1.0, 4.0)
        assert calls == {"eigh": 0, "cholesky": 2}
        assert np.array_equal(once, symmetrize(H))
        assert np.array_equal(project_box(once, 1.0, 4.0), once)
        monkeypatch.undo()


@pytest.mark.parametrize("spectrum", [[0.2, 1.5, 2.0, 3.0, 3.5], [1.5, 2.0, 3.0, 4.5, 6.0],
                                      [0.2, 2.0, 3.0, 4.5, 6.0]], ids=["below", "above", "both"])
def test_project_box_clips_a_spectrum_outside_the_box_with_one_eigh(monkeypatch, spectrum):
    alpha, beta = 1.0, 4.0
    for seed in range(5):
        frame = spectral_decompose(random_hermitian(5, 810 + seed))
        H = frame.apply(spectrum)
        calls = count_lapack(monkeypatch, "eigh", "cholesky")
        out = project_box(H, alpha, beta)
        assert calls["eigh"] == 1
        monkeypatch.undo()
        assert np.array_equal(out, symmetrize(out))
        assert np.allclose(out, frame.apply(np.clip(spectrum, alpha, beta)), rtol=0, atol=1e-12)
        _assert_in_box(out, alpha, beta)


@pytest.mark.parametrize("H", [np.diag([1.0, 4.0]), np.array([[1.0]]), np.array([[4.0]])],
                         ids=["diag-alpha-beta", "n1-alpha", "n1-beta"])
def test_project_box_on_the_boundary_returns_a_point_in_the_box(H):
    # a Cholesky factorization of the singular H - alpha I or beta I - H fails
    # without a warning, and the spectrum is clipped instead
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = project_box(H, 1.0, 4.0)
    assert np.allclose(out, H, rtol=0, atol=1e-14)
    _assert_in_box(out, 1.0, 4.0)


def test_random_spd_scalar_and_determinism():
    M = random_spd(1, 2.0, 3.0, 5)
    assert 2.0 <= M[0, 0].real <= 3.0
    assert np.array_equal(random_spd(3, 1.0, 2.0, 42), random_spd(3, 1.0, 2.0, 42))
    assert not np.array_equal(random_spd(3, 1.0, 2.0, 42), random_spd(3, 1.0, 2.0, 43))


def test_random_spd_spectrum_in_box():
    dec = spectral_decompose(random_spd(4, 1.0, 4.0, 7))
    assert dec.eigenvalues[-1] >= 1.0 - 1e-12
    assert dec.eigenvalues[0] <= 4.0 + 1e-12


def test_random_spd_rejects_bad_box():
    with pytest.raises(InvalidBox):
        random_spd(3, 0.0, 1.0, 1)
    with pytest.raises(InvalidInput):
        random_spd(0, 1.0, 2.0, 1)


def test_norm_examples():
    assert np.isclose(norm(np.eye(3)), np.sqrt(3.0))
    assert np.isclose(norm(np.eye(3), "operator"), 1.0)
    assert np.isclose(norm(np.eye(3), "trace"), 3.0)
    D = np.diag([3.0, -4.0])
    assert np.isclose(norm(D), 5.0)
    assert np.isclose(norm(D, "operator"), 4.0)
    assert np.isclose(norm(D, "trace"), 7.0)
    assert np.isclose(norm(np.array([[2.0, 1.0], [1.0, 2.0]]), "operator"), 3.0)
    with pytest.raises(InvalidInput):
        norm(np.eye(2), "nuclear")


@pytest.mark.parametrize("kind", ["frobenius", "operator", "trace"])
def test_norm_checks_its_matrix_at_entry(kind):
    # a NaN entry gave an operator norm of 0.0, and a 2 x 3 input a bare numpy ValueError
    with pytest.raises(InvalidInput, match="H has non-finite entries"):
        norm([[np.nan, 0.0], [0.0, 1.0]], kind)
    with pytest.raises(InvalidInput, match="H must be a square matrix"):
        norm(np.ones((2, 3)), kind)


def test_schatten_norm_agrees_with_named_norms():
    H = random_hermitian(4, 9)
    assert np.isclose(schatten_norm(H, 2), norm(H, "frobenius"))
    assert np.isclose(schatten_norm(H, 1), norm(H, "trace"))
    assert np.isclose(schatten_norm(H, np.inf), norm(H, "operator"))
    with pytest.raises(InvalidInput):
        schatten_norm(H, 0.5)


def test_as_spd_tolerance_policy():
    as_spd(random_spd(3, 0.5, 2.0, 3))
    with pytest.raises(InvalidInput):
        as_spd(np.diag([1.0, -0.1]))
    with pytest.raises(InvalidInput):
        as_spd(np.diag([1.0, 1e-13]))


def test_symmetrize_exact_hermiticity():
    M = np.array([[1.0 + 1e-3j, 2.0], [2.5, 4.0 - 2e-3j]])
    S = symmetrize(M)
    assert np.array_equal(S, S.conj().T)
    assert np.all(S.diagonal().imag == 0.0)


def test_symmetrize_does_not_overflow_near_the_largest_float():
    # (H + H*)/2 overflowed for finite entries above about 9e307: the square
    # root of 1e308 I raised DomainError "min eigenvalue nan" after
    # RuntimeWarnings
    H = np.array([[1e308, 1.7e308 + 1e308j], [1.7e308 - 1e308j, 1.5e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(symmetrize(H), H)
        assert np.array_equal(matrix_power(1e308 * np.eye(2), 0.5), 1e154 * np.eye(2))


def test_symmetrize_has_the_bits_of_the_half_sum_away_from_subnormals():
    rng = np.random.default_rng(41)
    for shape in ((4, 4), (3, 5, 5), (64, 64)):
        H = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for M in (H, H.real, np.zeros(shape)):
            M = np.asarray(M, dtype=complex)
            half_sum = (M + M.conj().swapaxes(-1, -2)) / 2
            assert np.array_equal(symmetrize(M).view(float), half_sum.view(float))


def test_derive_seed_stable_and_label_sensitive():
    assert derive_seed(7, "x", 1) == derive_seed(7, "x", 1)
    assert derive_seed(7, "x", 1) != derive_seed(7, "x", 2)
    assert derive_seed(7, "x") != derive_seed(8, "x")


# ------------------------------------------------------- stacks, graded Jacobi


def test_spectral_decompose_of_a_stack_equals_per_matrix_calls():
    H = np.stack([random_spd(4, 0.5, 2.0, 60 + i) for i in range(5)])
    dec = spectral_decompose(H)
    for i in range(len(H)):
        one = spectral_decompose(H[i])
        assert np.array_equal(dec.eigenvalues[i], one.eigenvalues)
        assert np.array_equal(dec.eigenvectors[i], one.eigenvectors)
        assert np.array_equal(dec.map(power(0.3))[i], one.map(power(0.3)))
    assert np.array_equal(symmetrize(H)[2], symmetrize(H[2]))
    for bad in (H[:, :, :3], H[None], H[0, 0], np.zeros((2, 0, 0))):
        with pytest.raises(InvalidInput):
            spectral_decompose(bad)


def _graded(n, grading, seed):
    """D M D with M = random_spd(n, 1, 4) and H_{n-1,n-1} / H_00 about grading.

    The diagonal grows down the matrix, the order that a tridiagonalizing
    solver resolves worst.
    """
    D = np.diag(grading ** (-0.5 * np.arange(n)[::-1] / max(n - 1, 1)))
    return D @ random_spd(n, 1.0, 4.0, seed) @ D


def _mp_eigenvalues(H, grading):
    """Descending eigenvalues of H from mpmath, with 60 digits beyond the grading."""
    import mpmath as mp

    with mp.workdps(60 + int(np.log10(grading))):
        Hm = mp.matrix([[mp.mpc(complex(z)) for z in row] for row in H])
        E, _ = mp.eighe((Hm + Hm.H) / 2)
        return sorted((E[i] for i in range(len(H))), reverse=True)


def _column_graded(H):
    """The column-graded factor C = L* of H = L L*, its columns in H's order of scale."""
    return np.linalg.cholesky(H).conj().swapaxes(-1, -2)


def _graded_svd_errors(H, gradings):
    """Largest relative error of sigma^2 from ``_graded_svd`` of each H's factor against mpmath."""
    import mpmath as mp

    sigma, _ = _graded_svd(_column_graded(H))
    return [max(float(abs((mp.mpf(float(x)) ** 2 - r) / r))
                for x, r in zip(sigma[i], _mp_eigenvalues(H[i], g)))
            for i, g in enumerate(gradings)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
def test_graded_svd_matches_mpmath_on_graded_matrices(n):
    # the _graded matrices reversed, so that the columns of the factor come
    # in decreasing scale, the kernel's precondition
    gradings = (1.0, 1e10, 1e30, 1e60)
    H = np.stack([_graded(n, g, 70 + i)[::-1, ::-1] for i, g in enumerate(gradings)])
    for g, rel in zip(gradings, _graded_svd_errors(H, gradings)):
        assert rel <= 1e-14, (n, g, rel)
    sigma, Z = _graded_svd(_column_graded(H))
    for i in range(len(gradings)):
        assert np.all(np.diff(sigma[i]) <= 0)
        assert np.linalg.norm(Z[i].conj().T @ Z[i] - np.eye(n)) <= 1e-13
    # eigh keeps only absolute accuracy: at 1e60 on _graded's own order its
    # smallest eigenvalue is noise
    if n >= 3:
        eigh_min = np.linalg.eigvalsh(H[-1][::-1, ::-1])[0]
        assert abs(eigh_min - sigma[-1, -1] ** 2) > 1e-3 * sigma[-1, -1] ** 2


@pytest.mark.parametrize("n", [3, 4, 5, 8])
def test_graded_svd_loses_accuracy_on_columns_in_increasing_scale(n):
    # the 1e30 matrices of the mpmath test in _graded's own order, the
    # factor's scales increasing: the precondition in the docstring of
    # _graded_svd is a real one (a 2 x 2 triangular factor is accurate in
    # either order)
    gradings = (1e30,)
    H = _graded(n, gradings[0], 72)[None]
    assert _graded_svd_errors(H, gradings)[0] > 1e-13
    assert _graded_svd_errors(H[:, ::-1, ::-1], gradings)[0] <= 1e-14


def test_graded_svd_result_does_not_depend_on_its_stack():
    mats = [_graded(4, g, 80 + i)[::-1, ::-1] for i, g in enumerate((1.0, 1e40, 1e5, 1e20, 1.0))]
    mats[4] = np.diag([3.0, 2.0, 1.0, 0.5]).astype(complex)
    C = _column_graded(np.stack(mats))
    sigma, Z = _graded_svd(C)
    for i in range(len(mats)):
        sigma_i, Z_i = _graded_svd(C[i][None])
        assert np.array_equal(sigma_i[0], sigma[i]) and np.array_equal(Z_i[0], Z[i])


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(
    n=st.integers(1, 6),
    decades=st.floats(0.0, 40.0),
    seed=st.integers(0, 2**31),
    real=st.booleans(),
)
def test_graded_svd_property_against_scalar_jacobi(n, decades, seed, real):
    # the SVD of the factor with its columns in decreasing scale and the
    # relative Jacobi on C*C reach the same relatively accurate eigenvalues,
    # and Z diag(sigma^2) Z* reconstructs C*C
    H = _graded(n, 10.0**decades, seed)[::-1, ::-1]
    if real:
        H = H.real.astype(complex)
    sigma, Z = _graded_svd(_column_graded(H)[None])
    w_ref, _ = jacobi_eigh(H)
    assert np.all(np.diff(sigma[0]) <= 0)
    assert np.max(np.abs(sigma[0] ** 2 - w_ref) / w_ref) <= 1e-12
    assert np.linalg.norm(Z[0].conj().T @ Z[0] - np.eye(n)) <= 1e-13
    assert np.linalg.norm((Z[0] * sigma[0] ** 2) @ Z[0].conj().T - H) <= 1e-13 * np.linalg.norm(H)


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_random_spd_stack_equals_per_seed_draws(n):
    # QR, gauge fix and recombination on the stack move no bit of any draw
    seeds = [derive_seed(45, n, i) for i in range(40)] + [0, 2**64 - 1]
    stack = random_spd_stack(n, 0.25, 4.0, seeds)
    assert stack.shape == (len(seeds), n, n)
    for M, seed in zip(stack, seeds):
        assert np.array_equal(M, random_spd_oracle(n, 0.25, 4.0, seed))
        assert np.array_equal(M, random_spd(n, 0.25, 4.0, seed))


# ------------------------------------------------------------- seeded draws

SEED_EDGES = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1, 2**64, 2**128 - 1]


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    n=st.integers(1, 6),
    box=st.sampled_from([(1.0, 1.0), (0.25, 4.0)]),
    seeds=st.lists(st.integers(0, 2**128 - 1), min_size=0, max_size=12),
)
def test_random_spd_stack_property_against_per_seed_oracle(n, box, seeds):
    stack = random_spd_stack(n, *box, seeds)
    assert stack.shape == (len(seeds), n, n)
    for M, seed in zip(stack, seeds):
        assert np.array_equal(M, random_spd_oracle(n, *box, seed))


@pytest.mark.parametrize("n", [1, 3, 16])
def test_random_hermitian_equals_per_seed_oracle(n):
    for seed in SEED_EDGES + [derive_seed(47, n, i) for i in range(20)]:
        assert np.array_equal(random_hermitian(n, seed, scale=2.5),
                              random_hermitian_oracle(n, seed, scale=2.5))


@pytest.mark.parametrize("seed", [None, True, False, -1, 2**128, 1.0, 3.5, "7", np.float64(2.0)])
def test_seed_outside_domain_is_invalid_input(seed):
    for draw in (lambda: random_spd(3, 1.0, 2.0, seed),
                 lambda: random_spd_stack(3, 1.0, 2.0, [5, seed]),
                 lambda: random_hermitian(3, seed),
                 lambda: derive_seed(seed, "x")):
        with pytest.raises(InvalidInput, match="seed"):
            draw()


@pytest.mark.parametrize("n", [2.5, True, False, 0, -1, None, "3", np.float64(2.0), np.bool_(True)])
def test_dimension_outside_domain_is_invalid_input(n):
    for draw in (lambda: random_spd(n, 1.0, 2.0, 3),
                 lambda: random_spd_stack(n, 1.0, 2.0, [3, 4]),
                 lambda: random_hermitian(n, 3)):
        with pytest.raises(InvalidInput, match="dimension"):
            draw()


_A3, _B3 = random_spd(3, 1.0, 4.0, 5), random_spd(3, 1.0, 4.0, 6)


@pytest.mark.parametrize("call,error", [
    (lambda: sandwich_opt.fidelity(_A3, _B3, None), sandwich_opt.ParameterError),
    (lambda: sandwich_opt.sandwiched_divergence(_A3, _B3, None), sandwich_opt.ParameterError),
    (lambda: sandwich_opt.fidelity_t_derivative(_A3, _B3, None), sandwich_opt.ParameterError),
    (lambda: sandwich_opt.geometric_mean(_A3, _B3, None), InvalidInput),
    (lambda: matrix_power(_A3, "2"), InvalidInput),
    (lambda: sandwich_opt.convexity_constants(0.5, None, 2), InvalidBox),
    (lambda: sandwich_opt.convexity_constants(0.5, True, 2), InvalidBox),
    (lambda: project_box(_A3, "1", 2), InvalidBox),
    (lambda: sandwich_opt.barycenter_problem([_A3], [1.0], 0.5, alpha=True), InvalidBox),
    (lambda: schatten_norm(_A3, None), InvalidInput),
    (lambda: sandwich_opt.gauge_convexity_check(power(2.0), None, 4, 1), InvalidInput),
    (lambda: sandwich_opt.run_suite("trace-chain", t_values=[None]), sandwich_opt.ParameterError),
    (lambda: sandwich_opt.open_question_search(2, [None], 1, 0), sandwich_opt.ParameterError),
    (lambda: sandwich_opt.barycenter_problem([_A3], [True], 0.5), InvalidInput),
    (lambda: sandwich_opt.barycenter_problem([_A3], ["1"], 0.5), InvalidInput),
], ids=["fidelity", "divergence", "t-derivative", "gmean", "matrix-power", "alpha-none",
        "alpha-bool", "box-string", "problem-box", "schatten", "gauge", "suite-grid", "search-grid",
        "weight-bool", "weight-string"])
def test_a_non_number_is_rejected_with_the_out_of_range_error(call, error):
    # each raised a bare TypeError, alpha = True was accepted as 1, and the
    # weights True and "1" as the weight 1.0
    with pytest.raises(error):
        call()


_X3 = random_spd(3, 1.0, 4.0, 7)
_so = sandwich_opt

# name -> (call of the value, the class it raises, the ids of the values it
# accepts), for every public entry that takes an order, an exponent, a grid
# or a scale; each class is the one the table above pins for its kind. An
# exponent may be an array (one per matrix of a stack), a grid may be one,
# schatten_norm reads p = inf as the operator norm, and run_suite reads no
# grid as the suite's default.
_VALUE_ENTRIES = {
    "fidelity": (lambda v: _so.fidelity(_A3, _B3, v), _so.ParameterError, ()),
    "sandwich-trace": (lambda v: _so.sandwich_trace(_A3, _B3, v), _so.ParameterError, ()),
    "divergence": (lambda v: _so.sandwiched_divergence(_A3, _B3, v), _so.ParameterError, ()),
    "renyi": (lambda v: _so.renyi_classic(_A3, _B3, v), _so.ParameterError, ()),
    "compute-divergence": (lambda v: _so.compute_divergence("sandwiched", _A3, _B3, v), _so.ParameterError, ()),
    "t-derivative": (lambda v: _so.fidelity_t_derivative(_A3, _B3, v), _so.ParameterError, ()),
    "gradient": (lambda v: _so.gradient_f(_A3, _X3, v), _so.ParameterError, ()),
    "hessian": (lambda v: _so.hessian_operator(_A3, _X3, v), _so.ParameterError, ()),
    "bregman": (lambda v: _so.bregman(_A3, v, _B3, _X3), _so.ParameterError, ()),
    "constants": (lambda v: _so.convexity_constants(v, 1.0, 2.0), _so.ParameterError, ()),
    "sharper-bound": (lambda v: _so.sharper_lower_bound(v, 2.0, 1.0), _so.ParameterError, ()),
    "third-derivative": (lambda v: _so.third_derivative_bound(v, 1.0, 2.0), _so.ParameterError, ()),
    "problem": (lambda v: _so.barycenter_problem([_A3], [1.0], v), _so.ParameterError, ()),
    "trace-chain": (lambda v: _so.trace_chain_check(_A3, _B3, v), _so.ParameterError, ()),
    "log-major": (lambda v: _so.log_majorization_chain(_A3, _B3, v), _so.ParameterError, ()),
    "variational-value": (lambda v: _so.variational_value(_A3, _B3, v, _X3, "i"), _so.ParameterError, ()),
    "variational-minimizer": (lambda v: _so.variational_minimizer(_A3, _B3, v, "iii"), _so.ParameterError, ()),
    "power": (power, InvalidInput, ("array",)),
    "matrix-power": (lambda v: matrix_power(_A3, v), InvalidInput, ("array",)),
    "gmean": (lambda v: _so.geometric_mean(_A3, _B3, v), InvalidInput, ("array",)),
    "schatten": (lambda v: schatten_norm(_A3, v), InvalidInput, ("inf",)),
    "gauge": (lambda v: _so.gauge_convexity_check(power(2.0), v, 4, 1), InvalidInput, ()),
    "suite-grid": (lambda v: _so.run_suite("trace-chain", trials=1, t_values=v), InvalidInput, ("none", "array")),
    "suite-grid-entry": (lambda v: _so.run_suite("trace-chain", trials=1, t_values=[v]), _so.ParameterError, ()),
    "search-grid": (lambda v: _so.open_question_search(2, v, 1, 0), InvalidInput, ("array",)),
    "search-grid-entry": (lambda v: _so.open_question_search(2, [v], 1, 0), _so.ParameterError, ()),
    "gamma-grid": (lambda v: _so.gamma_limit_check(_A3, _B3, v), InvalidInput, ("array",)),
    "gamma-grid-entry": (lambda v: _so.gamma_limit_check(_A3, _B3, [v]), _so.ParameterError, ()),
    "scale": (lambda v: random_hermitian(3, 1, scale=v), InvalidInput, ()),
}
_BAD_VALUES = {"str": "0.5", "none": None, "bool": True, "nan": np.nan, "inf": np.inf, "array": np.array([0.5])}


@pytest.mark.parametrize("entry,value", [
    pytest.param(entry, value, id=f"{entry}-{vid}")
    for entry, (_, _, accepts) in _VALUE_ENTRIES.items()
    for vid, value in _BAD_VALUES.items() if vid not in accepts
])
def test_a_bad_order_exponent_grid_or_scale_raises_the_package_error_naming_it(entry, value):
    # fidelity(A, B, "0.5") said "t = 0.5 outside (0.001, 0.999)", a string
    # grid was split into characters, and NaN exponents, a string matrix
    # entry or scale raised NumericalError, ValueError or UFuncTypeError
    call, error, _ = _VALUE_ENTRIES[entry]
    with pytest.raises(error) as info:
        call(value)
    assert repr(value) in str(info.value)


@pytest.mark.parametrize("s", [-np.inf, np.array([0.5, np.nan]), np.array([[np.inf]])],
                         ids=["-inf", "array-nan", "array-inf"])
def test_a_non_finite_exponent_is_invalid_input(s):
    # matrix_power and geometric_mean raised NumericalError "... is not finite
    # on the spectrum" after a decomposition (NaN and inf: see the test above)
    for call in (lambda: power(s), lambda: matrix_power(_A3, s), lambda: _so.geometric_mean(_A3, _B3, s)):
        with pytest.raises(InvalidInput, match="exponent"):
            call()


@pytest.mark.parametrize("entries", [[["a"]], [[1.0, 2.0], [3.0]], [[object()]]],
                         ids=["string", "ragged", "object"])
def test_a_matrix_argument_numpy_cannot_read_names_the_argument(entries):
    # each raised numpy's ValueError or TypeError
    with pytest.raises(InvalidInput, match="X must be an array of numbers"):
        _so.gradient_f(_A3, entries, 0.5)
    p = _so.barycenter_problem([_A3], [1.0], 0.5)
    with pytest.raises(_so.InvalidStart, match="x0 must be an array of numbers"):
        _so.solve_fixed_point(p, x0=entries)
    for call in (spectral_decompose, symmetrize, _so.matrix_to_json):
        with pytest.raises(InvalidInput, match="matrix must be an array of numbers"):
            call(entries)


def test_an_int_beyond_the_float_range_is_not_a_finite_number():
    # each raised a bare OverflowError or TypeError: the int compares below
    # inf but has no float
    big = 10**400
    p = _so.barycenter_problem([_A3], [1.0], 0.5)
    for call, error in [(lambda: power(big), InvalidInput),
                        (lambda: random_hermitian(3, 1, scale=big), InvalidInput),
                        (lambda: project_box(_A3, 1.0, big), InvalidBox),
                        (lambda: schatten_norm(_A3, big), InvalidInput),
                        (lambda: _so.gauge_convexity_check(power(2.0), big, 4, 1), InvalidInput),
                        (lambda: _so.solve_gradient_projection(p, grad_tol=big), InvalidInput),
                        (lambda: _so.barycenter_problem([_A3], [big], 0.5), InvalidInput),
                        (lambda: _so.certified_rate(p, big), _so.InvalidStepSize)]:
        with pytest.raises(error, match="10000"):
            call()


@pytest.mark.parametrize("scale", ["x", -np.inf, [1.0]])
def test_random_hermitian_rejects_a_scale_that_is_not_a_finite_number(scale):
    # "x" raised numpy's UFuncTypeError and -inf drew a matrix of NaNs (the
    # six values of the test above are rejected too)
    with pytest.raises(InvalidInput, match="scale"):
        random_hermitian(3, 1, scale=scale)


@pytest.mark.parametrize("fn", [None, "log", np.log, 2.0], ids=["none", "name", "callable", "number"])
def test_a_matrix_function_must_be_a_scalar_function_id(fn):
    # None raised TypeError and "log" AttributeError
    with pytest.raises(InvalidInput, match="ScalarFunction"):
        loewner_matrix(fn, [1.0, 2.0])
    with pytest.raises(InvalidInput, match="ScalarFunction"):
        frechet_derivative(fn, _A3, _B3)


def test_numpy_integer_dimension_draws_as_int():
    assert np.array_equal(random_spd(np.int64(3), 1.0, 2.0, 5), random_spd(3, 1.0, 2.0, 5))
    assert np.array_equal(random_spd_stack(np.uint8(2), 1.0, 2.0, [5, 6]), random_spd_stack(2, 1.0, 2.0, [5, 6]))
    assert np.array_equal(random_hermitian(np.int32(4), 9), random_hermitian(4, 9))


def test_numpy_integer_seed_draws_as_int():
    assert np.array_equal(random_spd(3, 1.0, 2.0, np.uint64(2**64 - 1)), random_spd(3, 1.0, 2.0, 2**64 - 1))
    assert np.array_equal(random_hermitian(3, np.int32(9)), random_hermitian(3, 9))


# The only Hermitian eigensolver calls outside linalg: real matrices read from
# one triangle, which linalg's symmetrize would cast to complex.
DIRECT_EIGENSOLVER_SITES = {("calculus.py", "_lanczos_extreme"), ("calculus.py", "hessian_extreme_eigs")}


def _eigensolver_sites(path):
    """(file name, enclosing function) of every numpy eigh/eigvalsh reference in a source file."""
    sites = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        names = []
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg":
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            names = [alias.name for alias in node.names]
        sites.extend((path.name, func) for name in names if name in ("eigh", "eigvalsh"))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return sites


def test_hermitian_eigensolvers_go_through_linalg():
    package = pathlib.Path(sandwich_opt.__file__).parent
    sites = [site for path in sorted(package.glob("*.py")) if path.name != "linalg.py"
             for site in _eigensolver_sites(path)]
    assert sorted(sites) == sorted(DIRECT_EIGENSOLVER_SITES)
    assert len(_eigensolver_sites(package / "linalg.py")) == 2  # spectral_decompose, _eigenvalues


# The private functions allowed to check a matrix argument: where x0 enters a
# barycenter solve, and where the per-pair checks make stacks of one.
MATRIX_CHECK_ENTRIES = {"_start", "_stack_of_one"}


def _matrix_check_sites(path):
    """The enclosing functions, outermost first, of every check_matrices call in a source file."""
    sites = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            scope = scope + (getattr(node, "name", "<lambda>"),)
        if isinstance(node, ast.Call) and "check_matrices" in (getattr(node.func, "id", None),
                                                               getattr(node.func, "attr", None)):
            sites.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), ())
    return sites


def test_matrix_arguments_are_checked_only_where_they_enter():
    # check_matrices runs in public functions and the two entries above, never
    # in a kernel, a nested function or a solver step
    package = pathlib.Path(sandwich_opt.__file__).parent
    sites = [site for path in sorted(package.glob("*.py")) for site in _matrix_check_sites(path)]
    assert len(sites) > 20
    bad = [site for site in sites
           if len(site) != 1 or (site[0].startswith("_") and site[0] not in MATRIX_CHECK_ENTRIES)]
    assert bad == []


# ------------------------------------------------ public boundary validation

_T = 0.4
_HESSIAN_OP = sandwich_opt.hessian_operator(random_spd(4, 1.0, 2.0, 11), random_spd(4, 1.0, 2.0, 12), _T)
# public function -> (call on its matrix arguments by name, their names)
MATRIX_ARGUMENTS = {
    "sandwich_spectrum": (lambda A, B: sandwich_opt.entropy.sandwich_spectrum(A, B, _T), "A B"),
    "sandwich_trace": (lambda A, B: sandwich_opt.sandwich_trace(A, B, _T), "A B"),
    "fidelity": (lambda A, B: sandwich_opt.fidelity(A, B, _T), "A B"),
    "bures_distance": (sandwich_opt.bures_distance, "A B"),
    "sandwiched_divergence": (lambda A, B: sandwich_opt.sandwiched_divergence(A, B, _T), "A B"),
    "renyi_classic": (lambda A, B: sandwich_opt.renyi_classic(A, B, _T), "A B"),
    "umegaki_relative_entropy": (sandwich_opt.umegaki_relative_entropy, "B A"),
    "thompson_metric": (sandwich_opt.thompson_metric, "A B"),
    "max_relative_entropy": (sandwich_opt.max_relative_entropy, "A B"),
    "geometric_mean": (lambda A, B: sandwich_opt.geometric_mean(A, B, _T), "A B"),
    "riemannian_distance": (sandwich_opt.riemannian_distance, "A B"),
    "gradient_f": (lambda A, X: sandwich_opt.gradient_f(A, X, _T), "A X"),
    "hessian_operator": (lambda A, X: sandwich_opt.hessian_operator(A, X, _T), "A X"),
    "bregman": (lambda A, Y, X: sandwich_opt.bregman(A, _T, Y, X), "A Y X"),
    "fidelity_t_derivative": (lambda A, B: sandwich_opt.fidelity_t_derivative(A, B, _T), "A B"),
    "trace_chain_check": (lambda A, B: sandwich_opt.trace_chain_check(A, B, _T), "A B"),
    "log_majorization_chain": (lambda A, B: sandwich_opt.log_majorization_chain(A, B, _T), "A B"),
    "gamma_limit_check": (sandwich_opt.gamma_limit_check, "A B"),
    "divergence_limit_check": (sandwich_opt.divergence_limit_check, "A B"),
    "variational_value": (lambda A, B, X: sandwich_opt.variational_value(A, B, _T, X, "i"), "A B X"),
    "variational_minimizer": (lambda A, B: sandwich_opt.variational_minimizer(A, B, _T, "iii"), "A B"),
    "frechet_derivative": (lambda X, Y: frechet_derivative(LOG, X, Y), "X Y"),
    "inner": (sandwich_opt.inner, "X Y"),
    # a direction of another size than the operator's n = 4
    "hessian_apply": (lambda Y: sandwich_opt.hessian_apply(_HESSIAN_OP, Y), "Y"),
}


@pytest.mark.parametrize("case", ["nan", "size"])
@pytest.mark.parametrize("name,arg", [(name, arg) for name, (_, args) in MATRIX_ARGUMENTS.items()
                                      for arg in args.split()])
def test_public_functions_validate_every_matrix_argument(name, arg, case):
    # a NaN in any argument, or one argument of another size, raises
    # InvalidInput naming that argument before any numpy call can fail
    fn, args = MATRIX_ARGUMENTS[name]
    matrices = {a: random_spd(4, 1.0, 2.0, i) for i, a in enumerate(args.split())}
    if case == "nan":
        matrices[arg][1, 2] = np.nan
        with pytest.raises(InvalidInput, match=f"^{arg} has non-finite entries$"):
            fn(**matrices)
    else:
        matrices[arg] = random_spd(3, 1.0, 2.0, 9)
        with pytest.raises(InvalidInput, match=rf"\b{arg}\b") as info:
            fn(**matrices)
        assert "(3, 3)" in str(info.value) and "(4, 4)" in str(info.value)


def _same_bits(a, b):
    """Whether two results are equal entry for entry: arrays, numbers, strings and containers of them."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and _same_bits(vars(a), vars(b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_bits(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same_bits(x, y) for x, y in zip(a, b))
    return np.array_equal(a, b)


@pytest.mark.parametrize("name,arg", [(name, arg) for name, (_, args) in MATRIX_ARGUMENTS.items()
                                      for arg in args.split()])
def test_public_functions_read_the_hermitian_part_of_every_matrix_argument(name, arg):
    # M = H + 1e-3 (G1 + i G2) is not Hermitian; a function gives the same
    # bits for M as for symmetrize(M). The perturbation's real trace is
    # removed, so that the density matrices of divergence_limit_check stay
    # density matrices.
    fn, args = MATRIX_ARGUMENTS[name]
    matrices = {a: random_spd(4, 1.0, 2.0, i) for i, a in enumerate(args.split())}
    if name == "divergence_limit_check":
        matrices = {a: H / np.trace(H).real for a, H in matrices.items()}
    G1, G2 = np.random.default_rng(31).standard_normal((2, 4, 4))
    E = 1e-3 * (G1 + 1j * G2)
    M = matrices[arg] + E - np.trace(E).real / 4 * np.eye(4)
    assert not np.array_equal(M, symmetrize(M))
    assert _same_bits(fn(**{**matrices, arg: M}), fn(**{**matrices, arg: symmetrize(M)}))
