import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sandwich_opt import (
    DomainError,
    EXP,
    InvalidInput,
    NumericalError,
    ParameterError,
    ScalarFunction,
    canonical_json,
    derive_seed,
    divergence_limit_check,
    fidelity,
    gamma_limit_check,
    gauge_convexity_check,
    geometric_mean,
    log_majorization_chain,
    majorizes,
    matrix_power,
    max_relative_entropy,
    open_question_search,
    power,
    random_spd,
    random_spd_stack,
    run_suite,
    sandwiched_divergence,
    spectral_decompose,
    symmetrize,
    thompson_metric,
    trace_chain_check,
    umegaki_relative_entropy,
    variational_minimizer,
    variational_value,
)
from sandwich_opt import entropy, inequalities
from sandwich_opt.entropy import sandwich_spectrum
from sandwich_opt.inequalities import (
    LARGE_T_GRID,
    OPEN_QUESTION_RELATIONS,
    REPRESENTATIONS,
    SUITES,
    density_pair,
    random_pair,
)

from oracles import (
    SUITE_ORACLES,
    count_lapack,
    gamma_limit_oracle,
    mp_gamma_error,
    mp_means,
    mp_sandwich_trace,
    variational_value_oracle,
)

# the LAPACK routines a suite decomposes by
DECOMPOSITIONS = ("eigh", "eigvalsh", "svd")


def sorted_eigs(M):
    return np.linalg.eigvalsh(symmetrize(M))[::-1]


# ---------------------------------------------------------------- majorization


def test_majorizes_equal_vectors_hold_for_all_relations():
    x = np.array([3.0, 1.0, 2.0])
    for rel in ("weak_majorize", "majorize", "weak_log_majorize", "log_majorize", "entrywise_le"):
        v = majorizes(x, x, rel)
        assert v.holds
        assert abs(v.worst_margin) <= 1e-15


def test_majorizes_textbook_cases():
    assert majorizes([2.0, 2.0], [3.0, 1.0], "majorize").holds
    assert majorizes([4.0, 1.0], [5.0, 0.8], "log_majorize").holds
    assert not majorizes([3.0, 1.0], [2.0, 2.0], "weak_majorize").holds
    assert not majorizes([3.0, 1.0], [2.0, 2.0], "entrywise_le").holds
    # rearrangement: order of the input entries is irrelevant
    assert majorizes([1.0, 2.0], [2.0, 1.0], "entrywise_le").holds
    # weak majorization without sum equality is not majorization
    assert majorizes([1.0, 1.0], [3.0, 1.0], "weak_majorize").holds
    assert not majorizes([1.0, 1.0], [3.0, 1.0], "majorize").holds


@pytest.mark.parametrize("rel", inequalities.RELATIONS)
def test_majorizes_rejects_empty_vectors(rel):
    with pytest.raises(InvalidInput, match="non-empty"):
        majorizes([], [], rel)
    for x, y in (([np.nan, 1.0], [1.0, 1.0]), ([1.0, 1.0], [np.inf, 1.0])):
        with pytest.raises(InvalidInput, match="finite entries"):
            majorizes(x, y, rel)


def test_majorizes_errors():
    with pytest.raises(InvalidInput):
        majorizes([1.0], [1.0, 2.0], "majorize")
    with pytest.raises(InvalidInput):
        majorizes([1.0], [1.0], "totally_ordering")
    with pytest.raises(DomainError):
        majorizes([1.0, -1.0], [1.0, 1.0], "log_majorize")
    # a string raised a bare ValueError; numeric strings and booleans were
    # read as floats
    for x, y in ((["a"], [1]), (["1", "2"], [2, 1]), ([True, False], [1, 0]), ([1, 0], [True, False])):
        with pytest.raises(InvalidInput, match="real numbers"):
            majorizes(x, y, "majorize")


def test_strict_convexity_separates_non_permutations():
    # x strictly inside the permutohedron of y: sum x_i^2 < sum y_i^2
    rng = np.random.default_rng(123)
    for _ in range(20):
        y = np.sort(rng.uniform(0.1, 3.0, 5))[::-1]
        perms = [rng.permutation(y) for _ in range(3)]
        wts = rng.dirichlet(np.ones(3))
        x = sum(w * p for w, p in zip(wts, perms))
        if np.allclose(np.sort(x), np.sort(y)):
            continue
        assert majorizes(x, y, "majorize").holds
        assert np.sum(x**2) < np.sum(y**2)


# ---------------------------------------------------------------- trace chain


def test_trace_chain_equal_arguments():
    A = random_spd(3, 0.5, 2.0, 1)
    rep = trace_chain_check(A, A, 0.3)
    tr = np.trace(A).real
    for _, v in rep.link_values:
        assert abs(v - tr) <= 1e-10 * tr
    assert rep.all_hold


def test_trace_chain_commuting_example():
    rep = trace_chain_check(np.diag([1.0, 4.0]), np.diag([4.0, 1.0]), 0.5)
    values = [v for _, v in rep.link_values]
    assert np.allclose(values, [4.0, 4.0, 4.0, 5.0], atol=1e-12)
    assert rep.all_hold


def test_trace_chain_random_noncommuting():
    for seed in range(10):
        A = random_spd(4, 0.5, 2.0, 100 + seed)
        B = random_spd(4, 0.5, 2.0, 200 + seed)
        for t in (0.1, 0.3, 0.5, 0.7, 0.9):
            rep = trace_chain_check(A, B, t)
            assert rep.all_hold, (seed, t)
    with pytest.raises(ParameterError):
        trace_chain_check(A, B, 1.0)


def test_trace_chain_middle_link_is_classical_fidelity_at_half():
    from sandwich_opt import bures_distance

    for seed in range(5):
        A = random_spd(4, 0.5, 2.0, 2000 + seed)
        B = random_spd(4, 0.5, 2.0, 2100 + seed)
        rep = trace_chain_check(A, B, 0.5)
        links = dict(rep.link_values)
        F = fidelity(A, B, 0.5)
        assert abs(links["tr_sandwich"] - F) <= 1e-10 * F
        d2 = (np.trace(A).real + np.trace(B).real) / 2.0 - F
        assert abs(bures_distance(A, B) ** 2 - d2) <= 1e-10 * max(1.0, abs(d2))


# ---------------------------------------------------------------- variational


def test_variational_rep_i_at_identity_is_arithmetic_link():
    A = random_spd(4, 0.5, 2.0, 7)
    B = random_spd(4, 0.5, 2.0, 8)
    t = 0.35
    val = variational_value(A, B, t, np.eye(4), "i")
    expected = (1 - t) * np.trace(A).real + t * np.trace(B).real
    assert abs(val - expected) <= 1e-10 * expected


def test_variational_minimizer_forms_and_tightness():
    for seed in range(5):
        A = random_spd(4, 0.5, 2.0, 300 + seed)
        B = random_spd(4, 0.5, 2.0, 400 + seed)
        for t in (0.3, 0.5, 0.7):
            X0 = variational_minimizer(A, B, t, "iii")
            other = geometric_mean(matrix_power(A, (t - 1.0) / t), B, t)
            assert np.linalg.norm(X0 - other) <= 1e-10 * np.linalg.norm(X0)
            X_i = variational_minimizer(A, B, t, "i")
            other = geometric_mean(matrix_power(A, (1.0 - t) / t), matrix_power(B, -1.0), 1.0 - t)
            assert np.linalg.norm(X_i - other) <= 1e-10 * np.linalg.norm(X_i)
            assert np.array_equal(variational_minimizer(A, B, t, "ii"), X_i)
            assert np.array_equal(variational_minimizer(A, B, t, "iv"), X0)
            F = fidelity(A, B, t)
            for rep in ("iii", "iv"):
                assert abs(variational_value(A, B, t, X0, rep) - F) <= 1e-9 * F


def test_variational_minimizer_special_cases():
    A = random_spd(3, 0.5, 2.0, 9)
    X0 = variational_minimizer(A, A, 0.5, "iii")
    assert np.linalg.norm(X0 - np.eye(3)) <= 1e-10
    # general t: A = B gives A^{(2t-1)/t}
    t = 0.4
    X0 = variational_minimizer(A, A, t, "iii")
    assert np.linalg.norm(X0 - matrix_power(A, (2 * t - 1) / t)) <= 1e-10
    # t = 1/2: minimizer is A^{-1} #_{1/2} B
    B = random_spd(3, 0.5, 2.0, 10)
    X0 = variational_minimizer(A, B, 0.5, "iii")
    assert np.linalg.norm(X0 - geometric_mean(matrix_power(A, -1.0), B, 0.5)) <= 1e-10


def test_variational_rep_iv_scalar_hand_value():
    a, t = 2.0, 0.3
    A = np.array([[a]])
    X = np.array([[a ** ((2 * t - 1) / t)]])
    val = variational_value(A, A, t, X, "iv")
    assert np.isclose(val, a)


def test_variational_lower_bound_property():
    for seed in range(20):
        A = random_spd(4, 0.5, 2.0, 500 + seed)
        B = random_spd(4, 0.5, 2.0, 600 + seed)
        X = random_spd(4, 0.25, 4.0, 700 + seed)
        t = (0.3, 0.5, 0.7)[seed % 3]
        F = fidelity(A, B, t)
        for rep in ("i", "ii", "iii", "iv"):
            assert variational_value(A, B, t, X, rep) >= F * (1 - 1e-9), (seed, rep)


def _assert_minimum_rises_under_perturbation(rep):
    from sandwich_opt import random_hermitian

    A = random_spd(4, 0.5, 2.0, 11)
    B = random_spd(4, 0.5, 2.0, 12)
    t = 0.45
    X0 = variational_minimizer(A, B, t, rep)
    base = variational_value(A, B, t, X0, rep)
    for seed in range(5):
        H = random_hermitian(4, 800 + seed)
        H = H / np.linalg.norm(H)
        Xp = X0 + 1e-3 * np.linalg.norm(X0) * H
        assert variational_value(A, B, t, Xp, rep) > base + 1e-12 * base


def test_variational_rep_iii_increases_under_perturbation():
    _assert_minimum_rises_under_perturbation("iii")


def test_variational_rep_i_increases_under_perturbation():
    _assert_minimum_rises_under_perturbation("i")


def test_variational_congruence_overflow_raises_numerical_error():
    # A^{(t-1)/2t} = 0.1^{-249.5} I is finite at t = 0.002, its congruence of
    # X = I is not: numpy's LinAlgError after a matmul overflow. The same for
    # B^{-1/2} X B^{-1/2} of representation iii
    I3 = np.eye(3)
    cases = [((0.1 * I3, I3, 0.002, I3, "i"), r"A\^\{\(t-1\)/2t\} X A\^\{\(t-1\)/2t\}"),
             ((I3, 1e-300 * I3, 0.5, 1e10 * I3, "iii"), r"B\^\{-1/2\} X B\^\{-1/2\}")]
    for args, what in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=f"^{what} overflows$"):
                variational_value(*args)


def test_variational_guards():
    A = random_spd(2, 0.5, 2.0, 13)
    with pytest.raises(InvalidInput):
        variational_value(A, A, 0.5, A, "v")
    with pytest.raises(ParameterError):
        variational_value(A, A, 1.5, A, "i")
    for rep in ("v", "I", None, 1):
        with pytest.raises(InvalidInput, match="unknown representation"):
            variational_minimizer(A, A, 0.5, rep)
    with pytest.raises(ParameterError):
        variational_minimizer(A, A, 1.5, "i")
    with pytest.raises(DomainError):
        variational_minimizer(-A, A, 0.5, "i")


def test_variational_value_tells_a_bad_x_from_lost_positivity():
    # X is positive definite, but at t = 0.02 the computed congruence
    # A^{(t-1)/2t} X A^{(t-1)/2t} turns indefinite: a numerical failure
    A, B = random_pair(4, 1, "pair")
    X = random_spd(4, 0.25, 4.0, 1001)
    with pytest.raises(NumericalError, match="lost positivity"):
        variational_value(A, B, 0.02, X, "i")
    for rep in REPRESENTATIONS:
        with pytest.raises(DomainError, match="positive definite X"):
            variational_value(A, B, 0.5, -X, rep)


# Every representation's value at variational_minimizer is within this of
# F_t, relative. Measured worst on 40 random_pair pairs per n = 1-6 at t in
# {0.1, 0.3, 0.5, 0.7, 0.9}: 4.6e-13, all at t = 0.1 (iv at 3.7 X); at most
# 3.7e-15 from t = 0.3 on.
MINIMIZER_RTOL = 1e-12


@pytest.mark.parametrize("n", range(1, 7))
def test_variational_minimizer_reaches_fidelity_for_every_representation(n):
    # ii and iv are scale invariant: every positive multiple of X minimizes them
    for i in range(4):
        A, B = random_pair(n, derive_seed(900, n, i), "pair")
        for t in (0.1, 0.3, 0.5, 0.7, 0.9):
            F = fidelity(A, B, t)
            for rep in REPRESENTATIONS:
                X = variational_minimizer(A, B, t, rep)
                for scale in (1.0, 3.7) if rep in ("ii", "iv") else (1.0,):
                    value = variational_value(A, B, t, scale * X, rep)
                    assert abs(value - F) <= MINIMIZER_RTOL * F, (n, i, t, rep, scale)


def test_variational_minimizer_rep_i_value_matches_mpmath():
    # measured worst 8.7e-16 relative on 10 pairs
    for i in range(3):
        A, B = random_pair(3, derive_seed(901, i), "pair")
        for t in (0.3, 0.7):
            ref = float(mp_sandwich_trace(A, B, t))
            value = variational_value(A, B, t, variational_minimizer(A, B, t, "i"), "i")
            assert abs(value - ref) <= 1e-13 * ref, (i, t)


@pytest.mark.parametrize("box", [(0.5, 2.0), (1e-3, 1e3)])
def test_means_and_minimizers_match_mpmath(box):
    # A #_t B, X_i and X_iii from the frame of the graded sandwich, against
    # the definitions at 250 digits. Measured worst 2.9e-14 relative; the
    # ungraded congruences were 5.3e-9 off for X_i at t = 0.05 on [0.5, 2]
    # and raised "lost positivity" on [1e-3, 1e3]
    for k in range(4):
        A, B = (random_spd(4, *box, derive_seed(904, k, side)) for side in ("a", "b"))
        for t in (0.05, 0.3):
            ref = mp_means(A, B, t)
            values = {"mean": geometric_mean(A, B, t), "i": variational_minimizer(A, B, t, "i"),
                      "iii": variational_minimizer(A, B, t, "iii")}
            for key, X in values.items():
                err = np.linalg.norm(X - ref[key]) / np.linalg.norm(ref[key])
                assert err <= 1e-12, (k, t, key, err)


@pytest.mark.parametrize("rep", REPRESENTATIONS)
def test_variational_minimizer_decomposes_a_once_and_not_b(monkeypatch, rep):
    # A and the sandwich A^m B A^m, whose one frame gives both minimizers:
    # B itself is not decomposed
    A, B = random_pair(4, 903, "pair")
    calls = count_lapack(monkeypatch, *DECOMPOSITIONS)
    variational_minimizer(A, B, 0.4, rep)
    assert calls == {"eigh": 2, "eigvalsh": 0, "svd": 0}


# ------------------------------------------------------------------ log chains


def test_log_majorization_chain_equal_arguments():
    A = random_spd(4, 0.5, 2.0, 14)
    for t in (0.25, 0.5, 0.75):
        rep = log_majorization_chain(A, A, t)
        assert rep.all_hold
        lam = sorted_eigs(A)
        for _, link in rep.link_values:
            assert np.allclose(link, lam, rtol=1e-10)


def test_log_majorization_chain_commuting_collapse():
    base = random_spd(4, 1.0, 2.0, 15)
    U = spectral_decompose(base).eigenvectors
    rng = np.random.default_rng(16)
    a, b = rng.uniform(0.5, 3.0, 4), rng.uniform(0.5, 3.0, 4)
    A = (U * a) @ U.conj().T
    B = (U * b) @ U.conj().T
    t = 0.25
    rep = log_majorization_chain(A, B, t)
    assert rep.all_hold
    links = dict(rep.link_values)
    scalar = np.sort(a ** (1 - t) * b**t)[::-1]
    for label in ("geometric_mean", "power_product", "power_product_singular", "sandwich_power"):
        assert np.allclose(links[label], scalar, rtol=1e-10), label


def test_log_majorization_chain_random_and_halfpoint_agreement():
    for seed in range(10):
        A = random_spd(4, 0.5, 2.0, 1000 + seed)
        B = random_spd(4, 0.5, 2.0, 1100 + seed)
        for t in (0.25, 0.5, 0.7):
            rep = log_majorization_chain(A, B, t)
            assert rep.all_hold, (seed, t)
        rep_half = log_majorization_chain(A, B, 0.5)
        links = dict(rep_half.link_values)
        assert np.allclose(
            links["sandwich_power"], links["power_product_singular"], rtol=1e-9
        )


# ------------------------------------------------------------------ limits


def test_gamma_limit_identity_cases():
    A = random_spd(4, 0.5, 2.0, 17)
    report = gamma_limit_check(A, np.eye(4))
    for t, err in zip(report["t_grid"], report["errors"]):
        expected = np.linalg.norm(matrix_power(A, 1.0 - t) - A)
        assert abs(err - expected) <= 1e-12 * max(1.0, expected)
    assert report["all_hold"]

    B = random_spd(4, 0.5, 2.0, 18)
    report = gamma_limit_check(np.eye(4), B)
    for t, err in zip(report["t_grid"], report["errors"]):
        expected = np.linalg.norm(matrix_power(B, t) - np.eye(4))
        assert abs(err - expected) <= 1e-12 * max(1.0, expected)
    assert report["all_hold"]


def test_gamma_limit_random_envelope():
    for seed in range(10):
        A = random_spd(4, 0.5, 2.0, 1200 + seed)
        B = random_spd(4, 0.5, 2.0, 1300 + seed)
        report = gamma_limit_check(A, B)
        assert report["all_hold"], seed
        assert report["errors"][-1] <= report["final_bound"] * (1 + 1e-10)
        # errors shrink toward the small-t end of the default grid
        assert report["errors"][-1] <= report["errors"][0]
    with pytest.raises(ParameterError):
        gamma_limit_check(A, B, t_grid=(0.2, 1e-5))


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_gamma_limit_matches_scalar_jacobi_oracle(n):
    for seed in range(8):
        A, B = random_pair(n, derive_seed(1250, n, seed), "gamma")
        report = gamma_limit_check(A, B)
        errors, envelope_ok = gamma_limit_oracle(A, B, report["t_grid"])
        for err, ref in zip(report["errors"], errors):
            assert abs(err - ref) <= 1e-11 * ref, (n, seed)
        assert report["envelope_ok"] == envelope_ok


def test_limits_suite_does_not_depend_on_chunk_size(monkeypatch):
    # the report, and every value the batch kernels compute, bit for bit
    kernels = {name: getattr(inequalities, name)
               for name in ("_gamma_limit_batch", "_divergence_limit_batch")}

    def run(chunk):
        seen = {name: [] for name in kernels}
        for name, kernel in kernels.items():
            monkeypatch.setattr(inequalities, name,
                                lambda *a, _k=kernel, _s=seen[name]: _s.append(_k(*a)) or _s[-1])
        monkeypatch.setattr(inequalities, "SUITE_CHUNK", chunk)
        report = run_suite("limits", n=3, trials=20, seed=36)
        values = {f"{name}.{key}": np.concatenate([out[key] for out in outs])
                  for name, outs in seen.items() for key in outs[0]}
        return report, values

    report, values = run(inequalities.SUITE_CHUNK)
    for chunk in (1, 7):
        other_report, other_values = run(chunk)
        assert other_report == report
        for key, value in values.items():
            assert np.array_equal(other_values[key], value), (chunk, key)


def test_limits_chunk_certifies_its_envelopes_by_one_cholesky(monkeypatch):
    # eigh of the gamma A and the density pair, eigvalsh of the gamma B, of
    # all eight divergence orders at once and of the whitened pair, one svd of
    # the graded factors, and two Cholesky: U*BU and all envelopes of the chunk
    calls = count_lapack(monkeypatch, "eigh", "eigvalsh", "svd", "cholesky")
    assert run_suite("limits", n=4, trials=50, seed=11)["all_hold"]
    assert calls == {"eigh": 3, "eigvalsh": 3, "svd": 1, "cholesky": 2}


def _limits_outputs():
    pairs = [random_pair(n, derive_seed(53, n, i), "gamma") for n in (1, 3, 4, 6) for i in range(5)]
    return ([canonical_json(run_suite("limits", n=n, trials=30, seed=s)) for n in (1, 3, 4) for s in range(4)]
            + [canonical_json(gamma_limit_check(A, B)) for A, B in pairs])


def test_limits_envelope_without_the_certificate_is_the_eigvalsh_test(monkeypatch):
    # a failed certificate leaves every envelope to the eigvalsh of both gaps
    certified = _limits_outputs()
    monkeypatch.setattr(inequalities, "_positive_definite", lambda H: False)
    assert _limits_outputs() == certified
    calls = count_lapack(monkeypatch, *DECOMPOSITIONS)
    run_suite("limits", n=4, trials=50, seed=11)
    assert calls["eigvalsh"] == 4


def test_limits_envelope_failures_are_counted_through_the_fallback(monkeypatch):
    # with slack -scale no gap reaches scale I: the certificate fails and
    # the eigvalsh test counts every trial
    monkeypatch.setattr(inequalities, "MAJORIZE_RTOL", -1.0)
    assert run_suite("limits", n=3, trials=20, seed=52)["gamma_violations"] == 20


@pytest.mark.parametrize("n", [1, 3, 4, 5, 8])
def test_divergence_limit_values_equal_the_entropy_functions(n):
    # the batch kernel evaluates the entropy module's own formulas on stacks:
    # every value is bit-identical to the scalar function
    for i in range(10):
        A, B = density_pair(n, derive_seed(37, n, i), "density")
        report = divergence_limit_check(A, B)
        assert report["relative_entropy"] == umegaki_relative_entropy(B, A)
        for entry in report["near_one"] + report["large_t"]:
            assert entry["divergence"] == sandwiched_divergence(A, B, entry["t"])
        assert [e["t"] for e in report["large_t"]] == list(LARGE_T_GRID)
        assert report["thompson_metric"] == thompson_metric(A, B)
        assert report["max_relative_form"] == max_relative_entropy(B, A)


@pytest.mark.parametrize("suite", SUITES)
def test_suite_decomposition_count_does_not_grow_with_trials(monkeypatch, suite):
    # decompositions are counted per chunk, not per trial
    counts = []
    for trials in (1, 50):
        calls = count_lapack(monkeypatch, *DECOMPOSITIONS)
        run_suite(suite, n=4, trials=trials, seed=38)
        counts.append(sum(calls.values()))
        monkeypatch.undo()
    assert counts[0] == counts[1] > 0


def test_trace_chain_suite_decomposes_each_input_once(monkeypatch):
    # per chunk: the stacks A and B and the whitened A^{-1/2} B A^{-1/2}
    # once each, shared by A #_t B at every order, and one eigvalsh of the
    # sandwiches at every order
    t_values = (0.1, 0.5, 0.9)
    for chunk, chunks in ((inequalities.SUITE_CHUNK, 1), (2, 3)):
        monkeypatch.setattr(inequalities, "SUITE_CHUNK", chunk)
        calls = count_lapack(monkeypatch, *DECOMPOSITIONS)
        run_suite("trace-chain", n=4, trials=6, seed=39, t_values=t_values)
        assert calls["eigh"] == chunks * 3
        assert calls["eigvalsh"] == chunks
        monkeypatch.undo()


def test_variational_chunk_maps_each_function_of_a_and_b_once(monkeypatch):
    # per chunk, SpectralDecomp.apply assembles the two boxes' draws (2), and
    # the one _variational_values call of the probe and the minimizer maps
    # A^{(t-1)/2t}, B^{-1/2} and A^{(1-t)/t} (3); the minimizer maps nothing,
    # it is read from the frame of the sandwich. One eigvalsh takes the
    # sandwiches, one i/ii at the probe, and one iii/iv at the probe and the
    # minimizer together
    from sandwich_opt.linalg import SpectralDecomp

    for chunk, chunks in ((inequalities.SUITE_CHUNK, 1), (2, 3)):
        monkeypatch.setattr(inequalities, "SUITE_CHUNK", chunk)
        calls = count_lapack(monkeypatch, *DECOMPOSITIONS)
        apply = SpectralDecomp.apply
        applied = []
        monkeypatch.setattr(SpectralDecomp, "apply", lambda self, v: applied.append(1) or apply(self, v))
        run_suite("variational", n=4, trials=6, seed=39)
        assert len(applied) == chunks * 5
        assert calls["eigvalsh"] == chunks * 3
        monkeypatch.undo()


# draws per chunk: one SPD assembly (linalg._spd_from_draws) for all inputs
# that share a spectral box
DRAWS_PER_CHUNK = {"trace-chain": 1, "log-major": 1, "variational": 2, "gauge": 1,
                   "limits": 2, "open-question": 1}


@pytest.mark.parametrize("suite", SUITES)
def test_suite_draws_once_per_box_per_chunk(monkeypatch, suite):
    draws = []
    monkeypatch.setattr(inequalities, "_spd_from_draws",
                        lambda *a, _f=inequalities._spd_from_draws: draws.append(a) or _f(*a))
    for chunk, chunks in ((inequalities.SUITE_CHUNK, 1), (4, 3)):
        monkeypatch.setattr(inequalities, "SUITE_CHUNK", chunk)
        draws.clear()
        run_suite(suite, n=3, trials=10, seed=48)
        assert len(draws) == chunks * DRAWS_PER_CHUNK[suite], chunk
        assert len({(a[2], a[3]) for a in draws}) == DRAWS_PER_CHUNK[suite]


@pytest.mark.parametrize("suite", SUITES)
def test_suite_seeding_does_not_grow_with_trials(monkeypatch, suite):
    # a run derives one seed per stream of each input family and builds one
    # Generator from it, at any trial count
    counts = []
    for trials in (1, 300):
        calls = {"derive_seed": 0, "default_rng": 0}
        for module, name in ((inequalities, "derive_seed"), (np.random, "default_rng")):
            def counted(*args, _fn=getattr(module, name), _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(module, name, counted)
        run_suite(suite, n=3, trials=trials, seed=50)
        monkeypatch.undo()
        counts.append(calls)
    assert counts[0] == counts[1] and counts[0]["default_rng"] > 0


@pytest.mark.parametrize("suite,grids", [
    ("trace-chain", [(0.5,), (0.1, 0.3, 0.5, 0.7, 0.9)]),
    ("log-major", [(0.25,), (0.25, 0.5, 0.75)]),
])
def test_chain_suites_whiten_once_per_chunk(monkeypatch, suite, grids):
    # A, B and A^{-1/2} B A^{-1/2}: three stacked eigh per chunk at any grid length
    calls = count_lapack(monkeypatch, *DECOMPOSITIONS)
    for chunk, chunks in ((inequalities.SUITE_CHUNK, 1), (3, 2)):
        monkeypatch.setattr(inequalities, "SUITE_CHUNK", chunk)
        for grid in grids:
            calls["eigh"] = 0
            run_suite(suite, n=4, trials=6, seed=49, t_values=grid)
            assert calls["eigh"] == 3 * chunks, (chunk, grid)


def test_divergence_limit_equal_density():
    A = random_spd(3, 1.0, 2.0, 19)
    A = A / np.trace(A).real
    report = divergence_limit_check(A, A)
    assert report["all_hold"]
    assert abs(report["relative_entropy"]) <= 1e-12
    assert all(abs(e["divergence"]) <= 1e-9 for e in report["near_one"])
    assert all(abs(e["divergence"]) <= 1e-9 for e in report["large_t"])


def test_divergence_limit_commuting_values():
    A = np.diag([0.5, 0.5])
    B = np.diag([0.9, 0.1])
    report = divergence_limit_check(A, B)
    assert report["all_hold"]
    expected_re = 0.9 * np.log(1.8) + 0.1 * np.log(0.2)
    assert np.isclose(report["relative_entropy"], expected_re)
    assert np.isclose(report["max_relative_form"], np.log(1.8))
    assert report["max_relative_form"] == max_relative_entropy(B, A)
    Ad, Bd = density_pair(3, 35, "density")
    report = divergence_limit_check(Ad, Bd)
    assert report["max_relative_form"] == max_relative_entropy(Bd, Ad)
    # gaps to the large-t asymptote shrink monotonically
    gaps = report["gaps_to_max_relative"]
    assert all(g2 <= g1 + 1e-12 for g1, g2 in zip(gaps[:-1], gaps[1:]))
    # both candidate limit values are recorded, equality is not asserted
    assert "thompson_metric" in report and "max_relative_form" in report


def test_divergence_limit_scalar_density():
    one = np.array([[1.0]])
    report = divergence_limit_check(one, one)
    assert report["all_hold"]
    assert all(abs(e["divergence"]) <= 1e-12 for e in report["large_t"])


def test_divergence_limit_rejects_non_density():
    A = random_spd(3, 1.0, 2.0, 20)
    with pytest.raises(DomainError):
        divergence_limit_check(A, A / np.trace(A).real)


# ------------------------------------------------------------------- gauge


def test_gauge_convexity_direct_midpoint_instance():
    # f = power(2), p = 1: tr((A+B)/2)^2 <= (tr A^2 + tr B^2)/2
    A = random_spd(4, 0.5, 2.0, 21)
    B = random_spd(4, 0.5, 2.0, 22)
    lhs = np.sum(np.linalg.eigvalsh((A + B) / 2) ** 2)
    rhs = (np.sum(np.linalg.eigvalsh(A) ** 2) + np.sum(np.linalg.eigvalsh(B) ** 2)) / 2
    assert lhs <= rhs


@pytest.mark.parametrize(
    "fn,p", [(power(2.0), 1.0), (power(2.0), 2.0), (power(-1.0), 2.0), (EXP, 1.0)]
)
def test_gauge_convexity_check_panel(fn, p):
    report = gauge_convexity_check(fn, p, trials=50, seed=23)
    assert report["all_hold"]
    assert report["violations"] == 0 and report["strict_violations"] == 0


@pytest.mark.parametrize("chunk", [inequalities.SUITE_CHUNK, 7])
def test_gauge_suite_checks_equal_gauge_convexity_check(monkeypatch, chunk):
    # the suite runs the whole panel as one batch; each entry is the public
    # check of its (f, p) on its own seed
    monkeypatch.setattr(inequalities, "SUITE_CHUNK", chunk)
    seed, trials = 25, 20
    checks = run_suite("gauge", n=3, trials=trials, seed=seed)["checks"]
    assert len(checks) == len(inequalities.GAUGE_PANEL)
    for idx, (fn, p) in enumerate(inequalities.GAUGE_PANEL):
        assert checks[idx] == gauge_convexity_check(fn, p, trials, derive_seed(seed, "gauge-panel", idx), n=3)


def test_gauge_convexity_check_linear_power_not_strict():
    report = gauge_convexity_check(power(1.0), 2.0, trials=20, seed=24)
    assert report["all_hold"]


def test_gauge_convexity_check_rejects_non_convex_ids():
    from sandwich_opt import LOG

    with pytest.raises(InvalidInput):
        gauge_convexity_check(LOG, 2.0, trials=5, seed=0)
    with pytest.raises(InvalidInput):
        gauge_convexity_check(power(0.5), 2.0, trials=5, seed=0)
    with pytest.raises(InvalidInput):
        gauge_convexity_check(power(2.0), 0.5, trials=5, seed=0)


@pytest.mark.parametrize("exponent", [np.array([2.0, 3.0]), np.nan, np.inf], ids=["stacked", "nan", "inf"])
def test_gauge_convexity_check_rejects_a_stacked_or_non_finite_power(exponent):
    # power() of an array is one exponent per spectrum, not one function; a
    # NaN or infinite exponent gave 4 violations of 4 instead of an error.
    # power() itself rejects a NaN or infinite exponent, so the id is built
    # directly, as a caller could
    with pytest.raises(InvalidInput, match="scalar function id"):
        gauge_convexity_check(ScalarFunction("power", exponent), 2, 4, 1)


# ------------------------------------------------------------- open question


def test_open_question_equal_and_commuting_cases():
    A = random_spd(4, 0.5, 2.0, 25)
    t = 0.25
    P = matrix_power(A, (1 - t) / (2 * t))
    x = sorted_eigs(P @ A @ P) ** t
    y = sorted_eigs(A)
    for rel in ("weak_majorize", "weak_log_majorize", "entrywise_le"):
        assert majorizes(x, y, rel).holds

    base = random_spd(4, 1.0, 2.0, 26)
    U = spectral_decompose(base).eigenvectors
    rng = np.random.default_rng(27)
    a, b = rng.uniform(0.5, 3.0, 4), rng.uniform(0.5, 3.0, 4)
    A = (U * a) @ U.conj().T
    B = (U * b) @ U.conj().T
    P = matrix_power(A, (1 - t) / (2 * t))
    x = sorted_eigs(P @ B @ P) ** t
    y = sorted_eigs((1 - t) * A + t * B)
    assert majorizes(x, y, "entrywise_le").holds


def test_open_question_search_report():
    report = open_question_search(3, (0.25, 0.5), trials=40, seed=28)
    assert report["all_hold"]  # exploratory: nothing asserted
    assert report["float_violations"] == len(report["candidates"])
    assert set(report["checked"]) == {"weak_majorize", "weak_log_majorize", "entrywise_le"}
    assert all(c == 80 for c in report["checked"].values())
    # determinism of the full report
    report2 = open_question_search(3, (0.25, 0.5), trials=40, seed=28)
    report.pop("candidates_truncated")
    report2.pop("candidates_truncated")
    assert canonical_json(report) == canonical_json(report2)


def test_open_question_rechecks_the_pairs_its_batches_drew(monkeypatch):
    # a negative tolerance makes every check a float violation: the first
    # _MP_REVERIFY_CAP candidates are re-checked on the pairs their batch
    # drew, as the per-trial oracle replays them, at any chunk size
    monkeypatch.setattr(inequalities, "MAJORIZE_RTOL", -1.0)
    expected = SUITE_ORACLES["open-question"](2, 30, 51)
    assert expected["candidates_truncated"] and len(expected["candidates"]) == 90
    for chunk in (7, inequalities.SUITE_CHUNK):
        monkeypatch.setattr(inequalities, "SUITE_CHUNK", chunk)
        assert run_suite("open-question", n=2, trials=30, seed=51) == expected


def test_gamma_limit_overflow_raises_numerical_error_without_warning():
    # on a [1, 1e4] box the column-graded factor L* A^{(1-t)/2t} overflows at
    # t = 0.005 of the default grid: a NumericalError naming the order, and no
    # numpy warning
    A, B = random_spd(4, 1.0, 1e4, 3), random_spd(4, 1.0, 4.0, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="overflows at stack index 0 at t = 0.005$"):
            gamma_limit_check(A, B)


def test_gamma_limit_holds_on_the_wide_box_down_to_t_001():
    # the pair above: the factor squares only half the grading, so t = 0.01,
    # a graded sandwich of about 1e396, is checked, and each error matches
    # 500-digit mpmath
    import mpmath as mp

    A, B = random_spd(4, 1.0, 1e4, 3), random_spd(4, 1.0, 4.0, 4)
    report = gamma_limit_check(A, B, (0.2, 0.1, 0.05, 0.01))
    assert report["all_hold"]
    for t, err in zip(report["t_grid"], report["errors"]):
        ref = mp_gamma_error(A, B, t)
        assert abs(mp.mpf(err) - ref) <= 1e-14 * ref, t


def test_gamma_limit_rejects_b_not_positive_definite():
    # the Cholesky factor of U*BU needs B > 0; numpy raised LinAlgError
    A = random_spd(3, 1.0, 2.0, 1)
    for B in (np.diag([1.0, 0.0, 2.0]), np.diag([1.0, -1.0, 2.0]), np.zeros((3, 3))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="B positive definite"):
                gamma_limit_check(A, B)


def test_open_question_search_guards():
    # the caps were compared before the type: a None n raised TypeError
    for n in (9, None, 2.0, True):
        with pytest.raises(InvalidInput, match="search dimension"):
            open_question_search(n, (0.25,), trials=5, seed=0)
    with pytest.raises(InvalidInput, match="trial count"):
        open_question_search(3, (0.25,), trials=10**6 + 1, seed=0)
    with pytest.raises(ParameterError):
        open_question_search(3, (0.6,), trials=5, seed=0)


def test_mp_reverification_flags_float_ghosts():
    from sandwich_opt.inequalities import _mp_relation_margin

    A = random_spd(3, 0.5, 2.0, 29)
    B = random_spd(3, 0.5, 2.0, 30)
    margin, scale = _mp_relation_margin(A, B, 0.25, "weak_majorize")
    assert scale > 0
    assert float(margin) > 0  # the trace inequality gives genuine room here
    # the float verdict and the extended-precision re-check share one margin formula
    t = 0.25
    x = sandwich_spectrum(A, B, t)[::-1] ** t
    y = sorted_eigs((1 - t) * A + t * B)
    for rel in OPEN_QUESTION_RELATIONS:
        margin, scale = _mp_relation_margin(A, B, t, rel)
        float_margin = majorizes(x, y, rel).worst_margin
        assert abs(float_margin - float(margin)) <= 1e-12 * float(scale), rel


@pytest.mark.parametrize("t", [0.005, 0.002])
def test_mp_reverification_is_graded_at_small_t(t):
    # the sandwich is formed graded at digits scaled to its grading: the
    # product P B P at 50 digits gave a negative eigenvalue and a TypeError
    # at t = 0.005, and margins of -0.43 (a false counterexample) at 0.002
    import mpmath as mp
    from oracles import _mp_herm_eig, _mp_sandwich_eig, _to_mp

    from sandwich_opt.inequalities import _mp_relation_margin, _relation_margins

    A = random_spd(3, 0.5, 2.0, 29)
    B = random_spd(3, 0.5, 2.0, 30)
    with mp.workdps(600):
        tm = mp.mpf(t)
        x = sorted((mp.power(e, tm) for e in _mp_sandwich_eig(A, B, tm)[0]), reverse=True)
        y = sorted(_mp_herm_eig((1 - tm) * _to_mp(A) + tm * _to_mp(B))[0], reverse=True)
        for rel in OPEN_QUESTION_RELATIONS:
            ref = min(_relation_margins(np.array(x, dtype=object), np.array(y, dtype=object), rel)[0])
            margin, scale = _mp_relation_margin(A, B, t, rel)
            assert ref > 0 and abs(margin - ref) <= mp.mpf(10) ** -45 * scale, rel


def test_mp_reverification_raises_on_a_sandwich_that_is_not_positive():
    from sandwich_opt.inequalities import _mp_relation_margin

    A = random_spd(3, 0.5, 2.0, 29)
    with pytest.raises(NumericalError, match="weak_majorize re-check's sandwich lost positivity at t = 0.25"):
        _mp_relation_margin(A, np.diag([1.0, -0.5, 2.0]), 0.25, "weak_majorize")


# ------------------------------------------------------------------- suites


@pytest.mark.parametrize("suite", ["trace-chain", "variational", "log-major", "limits", "gauge"])
def test_run_suite_small(suite):
    report = run_suite(suite, n=3, trials=8, seed=31)
    assert report["suite"] == suite
    assert report["all_hold"]


def test_run_suite_open_question_and_unknown():
    report = run_suite("open-question", n=3, trials=5, seed=32, t_values=(0.25,))
    assert report["suite"] == "open-question"
    with pytest.raises(InvalidInput):
        run_suite("chaos", n=3, trials=5, seed=0)
    # empty runs, and an order grid for a suite that takes none
    bad = [("log-major", 3, 0, None), ("trace-chain", 3, -2, None), ("open-question", 0, 5, None),
           ("limits", 3, 2, (0.3,)), ("gauge", 3, 2, (0.3,))]
    for suite, n, trials, grid in bad:
        with pytest.raises(InvalidInput):
            run_suite(suite, n=n, trials=trials, seed=0, t_values=grid)


def test_run_suite_rejects_an_unhashable_name():
    with pytest.raises(InvalidInput, match="unknown suite"):
        run_suite(["gauge"])


def test_suite_helpers_are_seed_stable():
    A1, B1 = random_pair(3, 33, "pair")
    A2, B2 = random_pair(3, 33, "pair")
    assert np.array_equal(A1, A2) and np.array_equal(B1, B2)
    Ad, Bd = density_pair(3, 34, "density")
    assert abs(np.trace(Ad).real - 1.0) <= 1e-12
    assert abs(np.trace(Bd).real - 1.0) <= 1e-12


# ------------------------------------------------------------- suite oracles


def _suite_matches_oracle(suite, n, trials, seed, chunks):
    expected = SUITE_ORACLES[suite](n, trials, seed)
    for chunk in chunks:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(inequalities, "SUITE_CHUNK", chunk)
            assert run_suite(suite, n=n, trials=trials, seed=seed) == expected, (suite, n, trials, chunk)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("suite", SUITES)
def test_suite_report_equals_per_trial_oracle(suite, n):
    for trials in (1, 7):
        _suite_matches_oracle(suite, n, trials, derive_seed(40, suite, n, trials), (1, 7, 256))


@pytest.mark.parametrize("suite", SUITES)
def test_suite_report_equals_per_trial_oracle_across_chunks(suite):
    # 300 trials: one full chunk of 256 and a partial one
    _suite_matches_oracle(suite, 4, 300, 41, (inequalities.SUITE_CHUNK, 7))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(suite=st.sampled_from(SUITES), n=st.integers(1, 6), trials=st.integers(1, 20),
       chunk=st.sampled_from([1, 7, 256]), seed=st.integers(0, 2**32 - 1))
def test_suite_report_equals_per_trial_oracle_property(suite, n, trials, chunk, seed):
    _suite_matches_oracle(suite, n, trials, seed, (chunk,))


def test_variational_value_equals_matrix_power_oracle():
    # decompositions of A and B shared across the formulas move no bit
    for n in (2, 3, 4, 6):
        for i in range(5):
            A, B = random_pair(n, derive_seed(42, n, i), "pair")
            X = random_spd(n, 0.25, 4.0, derive_seed(42, n, i, "probe"))
            for t in (0.3, 0.5, 0.7):
                for rep in ("i", "ii", "iii", "iv"):
                    assert variational_value(A, B, t, X, rep) == variational_value_oracle(A, B, t, X, rep)


GRID_SUITES = ("trace-chain", "log-major", "variational", "open-question")


@pytest.mark.parametrize("check", GRID_SUITES + ("gamma_limit_check",))
def test_an_empty_order_grid_is_invalid_input(check):
    # it passed vacuously (trace-chain, log-major), divided by zero
    # (variational), or raised a bare numpy ValueError or IndexError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInput, match="order grid is empty"):
            if check == "gamma_limit_check":
                gamma_limit_check(random_spd(3, 0.5, 2.0, 1), random_spd(3, 0.5, 2.0, 2), ())
            else:
                run_suite(check, n=3, trials=2, seed=0, t_values=())


@pytest.mark.parametrize("seed", [1.7, True, None, -1, 2**128, "3", np.float64(2.0)])
def test_every_suite_rejects_a_seed_outside_the_seed_domain(seed):
    # one check, where a suite seeds its streams: 1.7 ran as seed 1 and
    # reported 1.7, True ran, None raised a bare TypeError
    for suite in SUITES:
        with pytest.raises(InvalidInput, match="seed"):
            run_suite(suite, n=3, trials=2, seed=seed)
    with pytest.raises(InvalidInput, match="seed"):
        gauge_convexity_check(power(2.0), 1.0, 2, seed)
    with pytest.raises(InvalidInput, match="seed"):
        open_question_search(3, (0.25,), 2, seed)
    assert run_suite("trace-chain", n=3, trials=2, seed=np.uint64(2**64 - 1))["all_hold"]
    assert run_suite("trace-chain", n=3, trials=2, seed=2**128 - 1)["all_hold"]


@pytest.mark.parametrize("seed", [1.7, True, None, -1, 2**128, "3", np.float64(2.0)])
def test_seeded_pairs_reject_a_seed_outside_the_seed_domain(seed):
    # derive_seed ran int() on its master seed: 1.7 drew the pair of seed 1
    for draw in (random_pair, density_pair):
        with pytest.raises(InvalidInput, match="seed"):
            draw(3, seed, "pair")


@pytest.mark.parametrize("trials", [0, -3, 2.5, True, np.float64(4.0), None])
def test_every_suite_rejects_a_trial_count_that_is_not_an_integer_from_one(trials):
    # one check, where a suite cuts its trials into chunks (inequalities._suite_inputs)
    for suite in SUITES:
        with pytest.raises(InvalidInput, match="trial count"):
            run_suite(suite, n=3, trials=trials, seed=0)
    with pytest.raises(InvalidInput, match="trial count"):
        gauge_convexity_check(power(2.0), 1.0, trials, 0)
    assert run_suite("gauge", n=3, trials=np.int64(2), seed=0)["all_hold"]


# ------------------------------------------------------- stacked order grids


@pytest.mark.parametrize("suite", GRID_SUITES)
def test_a_chunk_decomposes_as_often_at_any_grid_length(monkeypatch, suite):
    # each kernel evaluates the chunk's whole order grid in one pass; the
    # trace chain took one eigvalsh per order, the variational suite one pass
    # per order, and the open-question search one eigvalsh pair per order
    counts = []
    for grid in ((0.5,), None, (0.05, 0.2, 0.3, 0.5)):
        calls = count_lapack(monkeypatch, *DECOMPOSITIONS)
        run_suite(suite, n=4, trials=10, seed=55, t_values=grid)
        monkeypatch.undo()
        counts.append(calls)
    assert counts[0] == counts[1] == counts[2], counts


STACKED_GRID = (0.05, 0.3, 0.5, 0.9)


def _stack(n, k, seed, box=inequalities.PAIR_BOX):
    return [random_spd_stack(n, *box, [derive_seed(seed, n, side, i) for i in range(k)]) for side in "abx"]


def _assert_grid_equals_one_order_calls(kernel, grid):
    # output g of a call on the (G, 1) grid has the bits of a call at t_g alone
    out = kernel(np.array(grid)[:, None])
    for g, t in enumerate(grid):
        one = kernel(np.array([t]))
        for key in one:
            assert np.array_equal(out[key][g], one[key]), (t, key)


@pytest.mark.parametrize("n", [1, 3, 4])
def test_stacked_chain_kernels_equal_one_order_calls_bit_for_bit(n):
    A, B, _ = _stack(n, 8, 56)
    pair = inequalities._decomposed(A, B)
    _assert_grid_equals_one_order_calls(lambda t: {"links": inequalities._trace_chain_links(*pair, t)},
                                        STACKED_GRID)
    _assert_grid_equals_one_order_calls(lambda t: inequalities._log_major_links(*pair, t), STACKED_GRID)
    # and the powered spectrum has the bits of the per-pair formula's scalar power
    links = inequalities._log_major_links(*pair, np.array(STACKED_GRID)[:, None])
    for g, t in enumerate(STACKED_GRID):
        for i in range(len(A)):
            assert np.array_equal(links["sandwich_power"][g, i], sandwich_spectrum(A[i], B[i], t)[::-1] ** t)
    decA = spectral_decompose(A)
    _assert_grid_equals_one_order_calls(
        lambda t: dict(enumerate(inequalities._open_question_margins(A, B, decA, t))), (0.05, 0.25, 0.5))


@pytest.mark.parametrize("n", [1, 3, 4])
def test_stacked_divergence_orders_equal_one_order_calls_bit_for_bit(n):
    A, R, _ = _stack(n, 8, 57, inequalities.DENSITY_BOX)
    A, B = inequalities._density(A, R)
    decA = spectral_decompose(A)
    _assert_grid_equals_one_order_calls(
        lambda t: {"divergence": entropy._sandwiched_divergence(decA, B, t)},
        [t for t, _ in inequalities._NEAR_ONE] + list(LARGE_T_GRID) + [0.05, 0.5])


@pytest.mark.parametrize("n", [1, 3, 4])
def test_variational_orders_per_trial_equal_one_order_calls_bit_for_bit(n):
    # trial i at t[i] has the bits of the whole stack at the one number t[i]
    A, B, X = _stack(n, 8, 58)
    decA, decB = spectral_decompose(A), spectral_decompose(B)

    def kernel(t):
        out = inequalities._variational_values(decA, decB, B, t, X, REPRESENTATIONS)
        X0 = inequalities._variational_minimizer(decA, B, t)
        out["minimizer"] = X0
        out["F"] = entropy._sandwich_trace(decA, B, t)
        out.update({f"{rep} at X0": v for rep, v in
                    inequalities._variational_values(decA, decB, B, t, X0, ("iii", "iv")).items()})
        return out

    t = np.array([0.05, 0.3, 0.5, 0.9, 0.05, 0.5, 0.3, 0.5])
    per_trial = kernel(t)
    for i, ti in enumerate(t.tolist()):
        one = kernel(ti)
        for key in one:
            assert np.array_equal(per_trial[key][i], one[key][i]), (i, key)


def test_a_stacked_grid_names_the_order_that_fails():
    # trial 1's sandwich A^{(1-t)/2t} B A^{(1-t)/2t}, about 1e309 I at t = 0.004,
    # overflows; the other trials are multiples of I, finite at every order
    A, B, _ = _stack(2, 3, 59)
    A[[0, 2]], B[[0, 2]] = 1.5 * np.eye(2), 0.5 * np.eye(2)
    A[1], B[1] = np.diag([10.0, 1.0]), 1e60 * np.eye(2)
    decA = spectral_decompose(A)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="^sandwiched product overflows at stack index 1 at t = 0.004$"):
            entropy._sandwich_trace(decA, B, np.array([[0.5], [0.2], [0.004]]))
        with pytest.raises(NumericalError, match="^sandwiched product overflows at stack index 1 at t = 0.004$"):
            entropy._sandwich_trace(decA, B, np.array([0.5, 0.004, 0.004]))
        with pytest.raises(NumericalError, match="^sandwiched product overflows at t = 0.004$"):
            entropy.sandwich_trace(A[1], B[1], 0.004)
    assert np.all(np.isfinite(entropy._sandwich_trace(decA[[0, 2]], B[[0, 2]], np.array([[0.5], [0.004]]))))


# ------------------------------------------------------------- small orders


@pytest.mark.parametrize("suite,t", [("log-major", 0.05), ("log-major", 0.02),
                                     ("trace-chain", 0.02), ("open-question", 0.02)])
def test_sandwich_suites_hold_at_small_orders(suite, t):
    # the graded sandwich keeps the small eigenvalues: formed as the product
    # of the full A^{(1-t)/2t} with B, log-major reported 57 violations at
    # t = 0.05, and all three raised "lost positivity" at t = 0.02
    report = run_suite(suite, n=4, trials=200, seed=3, t_values=(t,))
    assert report["all_hold"]
    assert report.get("violations", report.get("float_violations")) == 0
