import numpy as np
import pytest

from sandwich_opt import (
    InvalidInput,
    barycenter_problem,
    canonical_json,
    derive_seed,
    load_matrix,
    load_problem,
    matrix_from_json,
    matrix_to_json,
    problem_from_json,
    problem_to_json,
    random_spd,
    report_to_json,
    save_matrix,
    solve_gradient_projection,
)
from sandwich_opt.serialization import format_float


def test_format_float_round_trips_doubles():
    rng = np.random.default_rng(1)
    samples = list(rng.standard_normal(200) * 10.0 ** rng.integers(-300, 300, 200))
    samples += [0.0, -0.0, 1 / 3, 0.1, 2**-1074, -(2**-1074), 1.7976931348623157e308]
    for x in samples:
        assert float(format_float(float(x))) == float(x)


def test_format_float_rejects_non_finite():
    with pytest.raises(InvalidInput):
        format_float(np.inf)
    with pytest.raises(InvalidInput):
        format_float(np.nan)


def test_a_list_of_floats_is_written_as_value_by_value():
    # a list of Python floats takes one join; a tuple goes value by value
    rng = np.random.default_rng(2)
    values = [float(x) for x in rng.standard_normal(300) * 10.0 ** rng.integers(-300, 300, 300)]
    values += [0.0, -0.0, 2**-1074, 1.7976931348623157e308]
    assert canonical_json(values) == canonical_json(tuple(values))
    assert canonical_json({"v": [[1.5, -2.0], [0.1]]}) == '{"v":[[1.5,-2],[0.10000000000000001]]}'


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_a_non_finite_value_in_a_float_list_is_rejected(bad):
    with pytest.raises(InvalidInput, match=f"non-finite value {bad}$"):
        canonical_json({"grad_norms": [1.0, 2.0, bad, 3.0]})


def test_canonical_json_types_and_determinism():
    obj = {
        "a": 1,
        "b": [True, False, None],
        "c": 0.5,
        "d": {"nested": [1.0, np.float64(2.5), np.int64(3)]},
        "e": "text with \"quotes\"",
        "f": np.bool_(True),
    }
    s1 = canonical_json(obj)
    s2 = canonical_json(obj)
    assert s1 == s2
    import json

    back = json.loads(s1)
    assert back["a"] == 1 and back["c"] == 0.5 and back["d"]["nested"] == [1.0, 2.5, 3]
    with pytest.raises(InvalidInput):
        canonical_json({1: "non-string key"})
    with pytest.raises(InvalidInput):
        canonical_json(object())


def test_matrix_round_trip_exact():
    M = random_spd(5, 0.5, 3.0, 7)
    back = matrix_from_json(matrix_to_json(M))
    assert np.array_equal(M, back)


def test_real_matrix_omits_imaginary_block():
    d = matrix_to_json(np.diag([1.0, 2.0]))
    assert "im" not in d
    assert np.array_equal(matrix_from_json(d), np.diag([1.0, 2.0]))


def test_matrix_from_json_validation():
    with pytest.raises(InvalidInput):
        matrix_from_json({"n": 2})
    with pytest.raises(InvalidInput):
        matrix_from_json({"n": 2, "re": [[1.0]]})
    with pytest.raises(InvalidInput):
        matrix_from_json({"n": 0, "re": []})
    with pytest.raises(InvalidInput):
        matrix_from_json({"n": 1, "re": [[np.inf]]})


def test_save_and_load_matrix_bit_identical_value(tmp_path):
    M = random_spd(4, 1.0, 2.0, 9)
    path = tmp_path / "m.json"
    save_matrix(path, M)
    assert np.array_equal(load_matrix(path), M)
    text1 = path.read_text()
    save_matrix(path, M)
    assert path.read_text() == text1


def test_load_matrix_reports_position_on_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 2, "re": [[1, 2],\n [3, ]]}')
    with pytest.raises(InvalidInput) as err:
        load_matrix(path)
    msg = str(err.value)
    assert "bad.json" in msg and "line" in msg and "column" in msg


def test_problem_json_round_trip():
    mats = [random_spd(3, 1.0, 2.0, 11), random_spd(3, 1.0, 2.0, 12)]
    d = {
        "t": 0.4,
        "weights": [3.0, 1.0],
        "matrices": [matrix_to_json(M) for M in mats],
    }
    p = problem_from_json(d)
    assert np.allclose(p.weights, [0.75, 0.25])
    d2 = problem_to_json(p)
    p2 = problem_from_json(d2)
    assert p2.alpha == p.alpha and p2.beta == p.beta and p2.t == p.t
    for M1, M2 in zip(p.matrices, p2.matrices):
        assert np.array_equal(M1, M2)
    with pytest.raises(InvalidInput):
        problem_from_json({"t": 0.4, "weights": [1.0]})


@pytest.mark.parametrize("weights", [[1.0, 2.0, 3.0], [0.1, 0.7, 0.3]])
def test_a_default_box_problem_round_trips_through_a_file(tmp_path, weights):
    # the file carries the power-mean box; loading it back checks that box
    # against the one its marginals give, and the GP report keeps every byte
    mats = [s * random_spd(4, 1.0, 2.0, derive_seed(906, "tb", j)) for j, s in enumerate((1, 2, 5))]
    p = barycenter_problem(mats, weights, 0.3)
    path = tmp_path / "problem.json"
    path.write_text(canonical_json(problem_to_json(p)) + "\n")
    q = load_problem(path)
    assert (q.alpha, q.beta) == (p.alpha, p.beta)
    assert np.array_equal(q.weights, p.weights)
    reports = [canonical_json(report_to_json(solve_gradient_projection(r))) for r in (p, q)]
    assert reports[0] == reports[1]
