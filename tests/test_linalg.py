import numpy as np
import pytest

from sandwich_opt import (
    EXP,
    LOG,
    DomainError,
    InvalidBox,
    InvalidInput,
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
    schatten_norm,
    spectral_decompose,
    symmetrize,
)
from sandwich_opt.linalg import EQUAL_EIG_RTOL


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


def test_derive_seed_stable_and_label_sensitive():
    assert derive_seed(7, "x", 1) == derive_seed(7, "x", 1)
    assert derive_seed(7, "x", 1) != derive_seed(7, "x", 2)
    assert derive_seed(7, "x") != derive_seed(8, "x")
