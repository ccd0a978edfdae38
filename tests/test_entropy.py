import warnings

import numpy as np
import pytest

from sandwich_opt import (
    DomainError,
    InvalidInput,
    NumericalError,
    ParameterError,
    bures_distance,
    compute_divergence,
    derive_seed,
    fidelity,
    fidelity_t_derivative,
    geometric_mean,
    matrix_power,
    max_relative_entropy,
    random_spd,
    renyi_classic,
    riemannian_distance,
    sandwich_trace,
    sandwiched_divergence,
    spectral_decompose,
    symmetrize,
    thompson_metric,
    umegaki_relative_entropy,
)

from sandwich_opt import entropy
from sandwich_opt.entropy import sandwich_spectrum

from oracles import mp_sandwich_trace

A22 = np.array([[2.0, 1.0], [1.0, 2.0]])
B22 = np.diag([1.0, 4.0])

# extended-precision value of tr (A22^{1/2} B22 A22^{1/2})^{1/2},
# frozen from a 40-digit evaluation: 4.11438977617282988189...
FIDELITY_ORACLE = 4.11438977617283


def commuting_pair(n, seed, lo=0.25, hi=4.0):
    rng = np.random.default_rng(seed)
    base = random_spd(n, 1.0, 2.0, seed)
    U = spectral_decompose(base).eigenvectors
    a = rng.uniform(lo, hi, n)
    b = rng.uniform(lo, hi, n)
    return (U * a) @ U.conj().T, (U * b) @ U.conj().T, a, b


def test_fidelity_of_matrix_with_itself_is_trace():
    A = np.diag([1.0, 2.0])
    assert np.isclose(fidelity(A, A, 0.3), 3.0, atol=1e-12)


def test_fidelity_scalar_case():
    assert np.isclose(fidelity(np.array([[4.0]]), np.array([[9.0]]), 0.5), 6.0)


def test_fidelity_extended_precision_oracle():
    mp_value = float(mp_sandwich_trace(A22, B22, 0.5))
    assert mp_value == FIDELITY_ORACLE
    assert abs(fidelity(A22, B22, 0.5) - FIDELITY_ORACLE) <= 1e-12 * FIDELITY_ORACLE


@pytest.mark.parametrize("t", [1e-4, 0.9995, 1.5, -0.3])
def test_fidelity_rejects_out_of_range_order(t):
    with pytest.raises(ParameterError):
        fidelity(A22, B22, t)


@pytest.mark.parametrize("t", [0.0, None, np.inf])
@pytest.mark.parametrize("fn", [sandwich_trace, sandwich_spectrum])
def test_trace_functional_rejects_an_order_outside_its_range(fn, t):
    # t = 0 raised a bare ZeroDivisionError, None a bare TypeError, and
    # sandwich_trace(I, I, inf) returned 3.0
    with pytest.raises(ParameterError):
        fn(np.eye(3), np.eye(3), t)


def test_congruence_to_power_identity():
    # tr(A^{(1-t)/2t} B A^{(1-t)/2t})^t == tr(B^{1/2} A^{(1-t)/t} B^{1/2})^t
    for seed in range(10):
        A = random_spd(4, 0.5, 3.0, 1000 + seed)
        B = random_spd(4, 0.5, 3.0, 2000 + seed)
        for t in (0.2, 0.5, 0.8):
            lhs = sandwich_trace(A, B, t)
            Bh = matrix_power(B, 0.5)
            App = matrix_power(A, (1.0 - t) / t)
            rhs = float(np.sum(np.linalg.eigvalsh(symmetrize(Bh @ App @ Bh)) ** t))
            assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


def test_bures_distance_examples():
    A = random_spd(3, 0.5, 2.0, 4)
    # the radicand cancels to rounding dust, so compare squared distances
    assert bures_distance(A, A) ** 2 <= 1e-12 * np.trace(A).real
    assert np.isclose(bures_distance(np.array([[1.0]]), np.array([[4.0]])), np.sqrt(0.5))
    d = bures_distance(np.diag([1.0, 4.0]), np.diag([4.0, 1.0]))
    assert np.isclose(d, 1.0)


def test_bures_distance_symmetric_and_nonnegative():
    for seed in range(10):
        A = random_spd(4, 0.5, 2.0, 3000 + seed)
        B = random_spd(4, 0.5, 2.0, 4000 + seed)
        d1, d2 = bures_distance(A, B), bures_distance(B, A)
        assert d1 >= 0.0
        assert abs(d1 - d2) <= 1e-10


def test_sandwiched_divergence_zero_for_equal_density():
    A = random_spd(3, 0.5, 2.0, 8)
    A = A / np.trace(A).real
    for t in (0.3, 0.7, 2.0, 16.0):
        assert abs(sandwiched_divergence(A, A, t)) <= 1e-10


def test_sandwiched_divergence_scalar_and_commuting():
    one = np.array([[1.0]])
    for t in (0.4, 3.0):
        assert abs(sandwiched_divergence(one, one, t)) <= 1e-14
    # commuting densities: D_2(B||A) = log sum a^{-1} b^2
    A = np.diag([0.5, 0.5])
    B = np.diag([0.9, 0.1])
    assert np.isclose(sandwiched_divergence(A, B, 2.0), np.log(1.64), atol=1e-12)


def test_sandwiched_divergence_order_guards():
    A = random_spd(2, 0.5, 2.0, 5)
    with pytest.raises(ParameterError):
        sandwiched_divergence(A, A, 1.0)
    with pytest.raises(ParameterError):
        sandwiched_divergence(A, A, 65.0)
    with pytest.raises(ParameterError):
        sandwiched_divergence(A, A, 5e-4)
    # orders within 1e-4 of 1 are needed by the limit checks and must work
    assert np.isfinite(sandwiched_divergence(A, A, 1.0 + 1e-4))
    assert np.isfinite(sandwiched_divergence(A, A, 1.0 - 1e-4))


def test_renyi_classic_matches_sandwiched_for_commuting():
    A, B, a, b = commuting_pair(4, 17)
    for t in (0.3, 0.8, 2.0):
        assert abs(renyi_classic(A, B, t) - sandwiched_divergence(A, B, t)) <= 1e-10
    A = np.diag([0.5, 0.5])
    B = np.diag([0.9, 0.1])
    assert np.isclose(renyi_classic(A, B, 2.0), np.log(1.64), atol=1e-12)
    d = np.diag([0.25, 0.75])
    assert abs(renyi_classic(d, d, 0.5)) <= 1e-12


def test_umegaki_examples():
    A = random_spd(3, 0.5, 2.0, 12)
    assert abs(umegaki_relative_entropy(A, A)) <= 1e-10
    a = 2.5
    assert np.isclose(
        umegaki_relative_entropy(np.array([[1.0]]), np.array([[a]])), -np.log(a)
    )
    expected = 0.9 * np.log(1.8) + 0.1 * np.log(0.2)
    assert np.isclose(
        umegaki_relative_entropy(np.diag([0.9, 0.1]), np.diag([0.5, 0.5])), expected
    )


def test_thompson_metric_examples():
    A = random_spd(3, 0.5, 2.0, 13)
    assert thompson_metric(A, A) <= 1e-10
    assert np.isclose(thompson_metric(A, 2.0 * A), np.log(2.0), atol=1e-10)
    assert np.isclose(thompson_metric(np.diag([1.0, 4.0]), np.diag([2.0, 1.0])), np.log(4.0))


def test_thompson_metric_invariances():
    rng = np.random.default_rng(77)
    A = random_spd(4, 0.5, 2.0, 14)
    B = random_spd(4, 0.5, 2.0, 15)
    d = thompson_metric(A, B)
    assert abs(d - thompson_metric(B, A)) <= 1e-10
    Ai = matrix_power(A, -1.0)
    Bi = matrix_power(B, -1.0)
    assert abs(d - thompson_metric(Ai, Bi)) <= 1e-10
    M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert abs(d - thompson_metric(M @ A @ M.conj().T, M @ B @ M.conj().T)) <= 1e-9
    # operator-norm form of the whitened logarithm
    Ami = matrix_power(A, -0.5)
    w = np.linalg.eigvalsh(symmetrize(Ami @ B @ Ami))
    assert abs(d - np.max(np.abs(np.log(w)))) <= 1e-10
    # the larger of the two directed max-relative entropies
    d_max = max(max_relative_entropy(A, B), max_relative_entropy(B, A))
    assert abs(d - d_max) <= 1e-12


def test_whitened_metrics_reject_indefinite_argument():
    # B whitened by an SPD A: an indefinite B raises, never a negative distance
    A = random_spd(3, 0.5, 2.0, 17)
    B = np.diag([1.0, 1.0, -1e-3])
    calls = (
        lambda: thompson_metric(A, B),
        lambda: max_relative_entropy(B, A),
        lambda: riemannian_distance(A, B),
    )
    for call in calls:
        with pytest.raises(NumericalError):
            call()


def test_max_relative_entropy_examples():
    A = random_spd(3, 0.5, 2.0, 16)
    assert abs(max_relative_entropy(A, A)) <= 1e-10
    assert np.isclose(max_relative_entropy(2.0 * A, A), np.log(2.0), atol=1e-10)
    assert np.isclose(
        max_relative_entropy(np.diag([1.0, 4.0]), np.diag([2.0, 1.0])), np.log(4.0)
    )


def test_geometric_mean_examples():
    assert np.allclose(
        geometric_mean(np.eye(2), np.diag([4.0, 9.0]), 0.5), np.diag([2.0, 3.0])
    )
    A = random_spd(4, 0.5, 2.0, 18)
    B = random_spd(4, 0.5, 2.0, 19)
    assert np.allclose(geometric_mean(A, B, 0.0), A, atol=1e-12)
    assert np.allclose(geometric_mean(A, B, 1.0), B, atol=1e-12)
    g = geometric_mean(np.array([[2.0]]), np.array([[16.0]]), 1.0 / 3.0)
    assert np.isclose(g[0, 0].real, 4.0)


def test_geometric_mean_error_types():
    # a non positive definite A is outside the domain, as for matrix_power(A, -1/2);
    # an indefinite congruence A^{-1/2} B A^{-1/2} is a numerical failure
    A = random_spd(3, 0.5, 2.0, 20)
    for bad in (np.diag([1.0, -1.0]), np.diag([1.0, 0.0])):
        with pytest.raises(DomainError):
            matrix_power(bad, -0.5)
        with pytest.raises(DomainError):
            geometric_mean(bad, np.eye(2), 0.5)
    with pytest.raises(NumericalError):
        geometric_mean(A, np.diag([1.0, 1.0, -1e-3]), 0.5)


def test_geometric_mean_symmetry_and_positivity():
    for seed in range(10):
        A = random_spd(4, 0.5, 2.0, 5000 + seed)
        B = random_spd(4, 0.5, 2.0, 6000 + seed)
        for t in (-0.5, 0.3, 0.7, 1.5):
            G1 = geometric_mean(A, B, t)
            G2 = geometric_mean(B, A, 1.0 - t)
            assert np.linalg.norm(G1 - G2) <= 1e-10 * np.linalg.norm(G1)
            assert np.linalg.eigvalsh(G1)[0] > 0


def test_geometric_mean_inversion_rule():
    # C = Y^{-1} #_alpha X^{-1}  implies  X = Y #_{1/alpha} C^{-1}
    for seed in range(10):
        Y = random_spd(4, 0.5, 2.0, 7000 + seed)
        X = random_spd(4, 0.5, 2.0, 8000 + seed)
        for alpha in (0.3, 0.7, 1.5):
            C = geometric_mean(matrix_power(Y, -1.0), matrix_power(X, -1.0), alpha)
            X_back = geometric_mean(Y, matrix_power(C, -1.0), 1.0 / alpha)
            assert np.linalg.norm(X_back - X) <= 1e-8 * np.linalg.norm(X)


def test_riemannian_distance_examples():
    A = random_spd(3, 0.5, 2.0, 23)
    assert riemannian_distance(A, A) <= 1e-10
    assert np.isclose(riemannian_distance(np.eye(2), np.diag([np.e, np.e])), np.sqrt(2.0))
    assert np.isclose(
        riemannian_distance(np.eye(2), np.diag([np.e, 1.0 / np.e])), np.sqrt(2.0)
    )
    B = random_spd(3, 0.5, 2.0, 24)
    assert abs(riemannian_distance(A, B) - riemannian_distance(B, A)) <= 1e-10


def test_riemannian_geodesic_property():
    for seed in range(5):
        A = random_spd(4, 0.5, 2.0, 9000 + seed)
        B = random_spd(4, 0.5, 2.0, 9100 + seed)
        full = riemannian_distance(A, B)
        for t in (0.25, 0.5, 0.75):
            part = riemannian_distance(A, geometric_mean(A, B, t))
            assert abs(part - t * full) <= 1e-8 * max(1.0, full)


def test_commuting_inputs_reduce_to_scalar_formulas():
    A, B, a, b = commuting_pair(4, 31)
    t = 0.3
    assert abs(fidelity(A, B, t) - np.sum(a ** (1 - t) * b**t)) <= 1e-10 * fidelity(A, B, t)
    d2 = np.sum(a + b) / 2 - np.sum(np.sqrt(a * b))
    assert abs(bures_distance(A, B) ** 2 - d2) <= 1e-10
    tr_b = np.sum(b)
    re = float(np.sum(b * (np.log(b) - np.log(a)))) / tr_b
    assert abs(umegaki_relative_entropy(B, A) - re) <= 1e-10
    assert abs(thompson_metric(A, B) - np.max(np.abs(np.log(a / b)))) <= 1e-10
    assert abs(max_relative_entropy(A, B) - np.log(np.max(a / b))) <= 1e-10
    assert abs(riemannian_distance(A, B) - np.linalg.norm(np.log(b / a))) <= 1e-10
    for t in (0.4, 2.0):
        dv = np.log(np.sum(a ** (1 - t) * b**t)) / (t - 1)
        assert abs(sandwiched_divergence(A, B, t) - dv) <= 1e-10


def test_divergence_value_sign_invariants():
    for seed in range(10):
        A = random_spd(4, 0.5, 2.0, 400 + seed)
        B = random_spd(4, 0.5, 2.0, 500 + seed)
        assert bures_distance(A, B) >= -1e-10
        assert thompson_metric(A, B) >= -1e-10
        assert riemannian_distance(A, B) >= -1e-10
        assert fidelity(A, B, 0.5) > 0.0
        Ad = A / np.trace(A).real
        Bd = B / np.trace(B).real
        assert umegaki_relative_entropy(Bd, Ad) >= -1e-10


def test_compute_divergence_dispatch():
    A = random_spd(3, 0.5, 2.0, 61)
    B = random_spd(3, 0.5, 2.0, 62)
    dv = compute_divergence("sandwiched", A, B, t=2.0)
    assert dv.kind == "sandwiched" and dv.t == 2.0
    assert dv.value == sandwiched_divergence(A, B, 2.0)
    assert compute_divergence("umegaki", A, B).value == umegaki_relative_entropy(B, A)
    assert compute_divergence("bures", A, B).value == bures_distance(A, B)
    with pytest.raises(ParameterError):
        compute_divergence("sandwiched", A, B)
    with pytest.raises(InvalidInput):
        compute_divergence("total_variation", A, B)


@pytest.mark.parametrize("kind", ["bures", "umegaki", "thompson", "max_relative", "riemannian"])
def test_compute_divergence_rejects_stray_order(kind):
    A = random_spd(3, 0.5, 2.0, 61)
    B = random_spd(3, 0.5, 2.0, 62)
    with pytest.raises(ParameterError, match="takes no order t"):
        compute_divergence(kind, A, B, t=0.3)


def test_seeded_pairs_are_reproducible():
    s = derive_seed(9, "entropy-pair")
    assert np.array_equal(random_spd(4, 1.0, 2.0, s), random_spd(4, 1.0, 2.0, s))


def test_stack_errors_name_the_first_failing_index():
    # a stack of 5 pairs where only B[3] is not positive definite
    from sandwich_opt.entropy import _mean_at, _sandwich_spectrum, _whiten, _whitened_spectrum
    from sandwich_opt.linalg import random_spd_stack, spectral_decompose

    A = random_spd_stack(3, 0.5, 2.0, range(5))
    B = random_spd_stack(3, 0.5, 2.0, range(5, 10))
    B[3] = np.diag([1.0, -0.5, 2.0])
    decA = spectral_decompose(A)
    with pytest.raises(NumericalError, match=r"lost positivity at stack index 3 \(min eigenvalue -"):
        _sandwich_spectrum(decA, B, 0.4)
    with pytest.raises(NumericalError, match=r"whitened product A\^\{-1/2\} B A\^\{-1/2\} lost positivity at stack index 3 \(min eigenvalue -"):
        _whitened_spectrum(decA, B)
    with pytest.raises(NumericalError, match=r"whitened product A\^\{-1/2\} B A\^\{-1/2\} lost positivity at stack index 3 \(min eigenvalue -"):
        _mean_at(_whiten(decA, B), 0.5)
    # one matrix: no index
    with pytest.raises(NumericalError, match=r"lost positivity \(min eigenvalue"):
        _sandwich_spectrum(spectral_decompose(A)[0], B[3], 0.4)
    # every other entry of the stack passes
    keep = [0, 1, 2, 4]
    assert np.all(_sandwich_spectrum(decA[keep], B[keep], 0.4) > 0)


def test_overflowing_power_of_a_spectrum_raises_numerical_error():
    # these t-th powers ran outside the overflow check: A #_2 B was a NaN
    # matrix after a RuntimeWarning, the divergence inf, not about 690.8, and
    # the t-derivative overflowed with a RuntimeWarning
    I3 = np.eye(3)
    for call in (lambda: geometric_mean(I3, 1e200 * I3, 2.0),
                 lambda: sandwiched_divergence(1e-300 * I3, I3, 64.0),
                 lambda: fidelity_t_derivative(1e-300 * I3, I3, 64.0)):
        with pytest.raises(NumericalError, match="power.* is not finite on the spectrum"):
            call()


def test_whitened_product_overflow_raises_numerical_error():
    # valid inputs whose A^{-1/2} B A^{-1/2} = 1e310 I overflows; geometric_mean
    # raised InvalidInput and the whitened spectra numpy's LinAlgError
    A, B = 1e-10 * np.eye(4), 1e300 * np.eye(4)
    for call in (lambda: geometric_mean(A, B, 0.5), lambda: thompson_metric(A, B),
                 lambda: riemannian_distance(A, B), lambda: max_relative_entropy(B, A)):
        with pytest.raises(NumericalError, match=r"whitened product A\^\{-1/2\} B A\^\{-1/2\} overflows$"):
            call()


def test_geometric_mean_congruence_overflow_raises_numerical_error():
    # (A^{-1/2} B A^{-1/2})^3 = 1e150 I is finite, its congruence by
    # A^{1/2} = 1e100 I is not: A #_3 B was a NaN matrix after RuntimeWarnings
    I2 = np.eye(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=r"^geometric mean .* overflows at t = 3$"):
            geometric_mean(1e200 * I2, 1e250 * I2, 3)


def test_renyi_product_overflow_raises_numerical_error():
    # A^{1-t} = diag(1e189, 1) and B^t = diag(1e192, 1) are finite at t = 64,
    # their product is not: the divergence was inf after RuntimeWarnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=r"^product A\^\{1-t\} B\^t overflows at t = 64$"):
            renyi_classic(np.diag([1e-3, 1.0]), np.diag([1e3, 1.0]), 64)


def test_relative_entropy_product_overflow_raises_numerical_error():
    # log B - log A = ln(1e606) I is finite, B (log B - log A) is not: the
    # entropy was inf after RuntimeWarnings, though its value is about 1395
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=r"^product B \(log B - log A\) overflows$"):
            umegaki_relative_entropy(1e306 * np.eye(3), 1e-300 * np.eye(3))


def test_finite_inputs_near_the_largest_float_are_not_rejected_as_non_finite():
    # the Hermitian part of 1e308 I overflowed: fidelity raised InvalidInput
    # "non-finite entries" for finite inputs, and the Umegaki entropy did so
    # before it reached its product B (log B - log A), which does overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fidelity(1e308 * np.eye(2), np.eye(2), 0.5) == 2e154
        with pytest.raises(NumericalError, match=r"^product B \(log B - log A\) overflows$"):
            umegaki_relative_entropy(1e308 * np.eye(3), 1e307 * np.eye(3))


def test_bures_distance_to_itself_at_large_scale():
    # the radicand test was absolute: 71 of these 200 raised a "negative
    # Bures radicand" of about -1.9e-9, rounding left on traces near 1e7
    for s in range(200):
        A = 1e6 * random_spd(4, 1.0, 4.0, s)
        assert bures_distance(A, A) <= 1e-6 * np.sqrt(np.trace(A).real), s


def test_bures_negative_radicand_raises_at_small_scale(monkeypatch):
    # relative to (tr A + tr B)/2 = 1e-5, a radicand of -1e-15 is far beyond
    # rounding; the absolute test let it pass as a distance of 0
    scale = 1e-6
    A, B = scale * random_spd(4, 1.0, 4.0, 1), scale * random_spd(4, 1.0, 4.0, 2)
    half_sum = float(np.trace(A).real + np.trace(B).real) / 2.0
    monkeypatch.setattr(entropy, "_sandwich_trace", lambda decA, B, t: half_sum + 1e-9 * scale)
    with pytest.raises(NumericalError, match="negative Bures radicand"):
        bures_distance(A, B)
