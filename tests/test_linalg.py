import ast
import pathlib

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
    graded_eigh,
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
from sandwich_opt.linalg import EQUAL_EIG_RTOL

from oracles import jacobi_eigh, random_hermitian_oracle, random_spd_oracle


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


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
def test_graded_eigh_matches_mpmath_on_graded_matrices(n):
    import mpmath as mp

    gradings = (1.0, 1e10, 1e30, 1e60)
    H = np.stack([_graded(n, g, 70 + i) for i, g in enumerate(gradings)])
    w, V = graded_eigh(H)
    for i, g in enumerate(gradings):
        ref = _mp_eigenvalues(H[i], g)
        rel = max(float(abs((mp.mpf(float(x)) - r) / r)) for x, r in zip(w[i], ref))
        assert rel <= 1e-13, (n, g, rel)
        assert np.linalg.norm(V[i].conj().T @ V[i] - np.eye(n)) <= 1e-13
    # eigh keeps only absolute accuracy: at 1e60 its smallest eigenvalue is noise
    if n >= 3:
        assert abs(np.linalg.eigvalsh(H[-1])[0] - w[-1, -1]) > 1e-3 * w[-1, -1]


def test_graded_eigh_result_does_not_depend_on_its_stack():
    mats = [_graded(4, g, 80 + i) for i, g in enumerate((1.0, 1e40, 1e5, 1e20, 1.0))]
    mats[4] = np.diag([3.0, 2.0, 1.0, 0.5]).astype(complex)  # converged on entry
    w, V = graded_eigh(np.stack(mats))
    for i, M in enumerate(mats):
        wi, Vi = graded_eigh(M[None])
        assert np.array_equal(wi[0], w[i]) and np.array_equal(Vi[0], V[i])
    assert np.array_equal(w[4], [3.0, 2.0, 1.0, 0.5]) and np.array_equal(V[4], np.eye(4))


def test_graded_eigh_raises_when_unconverged_at_sweep_cap():
    D = np.diag(0.1 ** np.arange(4.0))
    H = D @ random_spd(4, 1.0, 4.0, 3) @ D
    stack = np.stack([np.eye(4, dtype=complex), H])
    with pytest.raises(NumericalError, match="stack index 1 .largest relative off-diagonal"):
        graded_eigh(stack, max_sweeps=1)
    w, V = graded_eigh(H[None])
    assert np.allclose(w[0], np.linalg.eigvalsh(H)[::-1], rtol=1e-12, atol=0.0)
    assert np.allclose((V[0] * w[0]) @ V[0].conj().T, H, rtol=0.0, atol=1e-14)
    with pytest.raises(InvalidInput):
        graded_eigh(H)


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(
    n=st.integers(1, 6),
    decades=st.floats(0.0, 40.0),
    seed=st.integers(0, 2**31),
    real=st.booleans(),
    data=st.data(),
)
def test_graded_eigh_property_against_scalar_jacobi(n, decades, seed, real, data):
    # round-robin and row-cyclic orders reach the same relatively accurate
    # eigenvalues in any order of the grading, and the decomposition
    # reconstructs H
    perm = data.draw(st.permutations(range(n)))
    H = _graded(n, 10.0**decades, seed)[np.ix_(perm, perm)]
    if real:
        H = H.real.astype(complex)
    w, V = graded_eigh(H[None])
    w_ref, _ = jacobi_eigh(H)
    assert np.all(np.diff(w[0]) <= 0)
    assert np.max(np.abs(w[0] - w_ref) / w_ref) <= 1e-12
    assert np.linalg.norm(V[0].conj().T @ V[0] - np.eye(n)) <= 1e-13
    assert np.linalg.norm((V[0] * w[0]) @ V[0].conj().T - H) <= 1e-13 * np.linalg.norm(H)


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
], ids=["fidelity", "divergence", "t-derivative", "gmean", "matrix-power", "alpha-none",
        "alpha-bool", "box-string", "problem-box", "schatten", "gauge", "suite-grid", "search-grid"])
def test_a_non_number_is_rejected_with_the_out_of_range_error(call, error):
    # each raised a bare TypeError, and alpha = True was accepted as 1
    with pytest.raises(error):
        call()


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
    "variational_minimizer": (lambda A, B: sandwich_opt.variational_minimizer(A, B, _T), "A B"),
    "minimize_representation": (lambda A, B, x0: sandwich_opt.minimize_representation(A, B, _T, "i", x0), "A B x0"),
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
