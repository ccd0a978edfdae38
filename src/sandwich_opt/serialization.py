"""JSON formats for matrices, problems, and reports.

Floats are serialized as decimal text with 17 significant digits, which
round-trips every finite double exactly and keeps reports byte-identical
across runs for identical seeds.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .barycenter import BarycenterProblem, SolverReport, barycenter_problem
from .errors import InvalidInput
from .linalg import _check_integer, _is_number


def format_float(x) -> str:
    x = float(x)
    if not np.isfinite(x):
        raise InvalidInput(f"cannot serialize non-finite value {x}")
    return format(x, ".17g")


def canonical_json(obj) -> str:
    """Deterministic compact JSON with 17-significant-digit decimal floats."""
    parts = []
    _write(obj, parts)
    return "".join(parts)


def _write(obj, parts):
    if obj is None:
        parts.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        parts.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(format_float(obj))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, dict):
        parts.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if not isinstance(k, str):
                raise InvalidInput(f"JSON object keys must be strings, got {k!r}")
            if i:
                parts.append(",")
            parts.append(json.dumps(k))
            parts.append(":")
            _write(v, parts)
        parts.append("}")
    elif isinstance(obj, list) and all(type(v) is float for v in obj):
        parts.append(_float_list(obj))
    elif isinstance(obj, (list, tuple, np.ndarray)):
        parts.append("[")
        for i, v in enumerate(obj):
            if i:
                parts.append(",")
            _write(v, parts)
        parts.append("]")
    else:
        raise InvalidInput(f"cannot serialize object of type {type(obj).__name__}")


def _float_list(values) -> str:
    """A list of Python floats as ``_write`` writes it value by value, in one join."""
    if not all(map(math.isfinite, values)):
        for v in values:
            format_float(v)  # raises InvalidInput naming the first non-finite value
    return "[" + ",".join([format(v, ".17g") for v in values]) + "]"


def matrix_to_json(M) -> dict:
    """Matrix as {"n": ..., "re": [[...]], "im": [[...]]}; "im" omitted when zero."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {M.shape}")
    out = {"n": int(M.shape[0]), "re": [[float(v) for v in row] for row in M.real]}
    if np.any(M.imag != 0.0):
        out["im"] = [[float(v) for v in row] for row in M.imag]
    return out


def matrix_from_json(d) -> np.ndarray:
    if not isinstance(d, dict) or "n" not in d or "re" not in d:
        raise InvalidInput('matrix JSON must carry "n" and "re"')
    n = _check_integer(d["n"], 'matrix dimension "n"', 1)

    def grid(field):
        try:
            arr = np.asarray(d[field], dtype=float)
        except (TypeError, ValueError):
            raise InvalidInput(f'matrix field "{field}" must hold numbers') from None
        if arr.shape != (n, n):
            raise InvalidInput(f'matrix field "{field}" must be {n}x{n}')
        return arr

    re = grid("re")
    im = grid("im") if "im" in d else np.zeros((n, n))
    M = re + 1j * im
    if not np.all(np.isfinite(M)):
        raise InvalidInput("matrix JSON has non-finite entries")
    return M


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInput(
            f"{path}: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc


def load_matrix(path) -> np.ndarray:
    return matrix_from_json(_load_json(path))


def save_matrix(path, M):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(matrix_to_json(M)) + "\n")


def problem_from_json(d) -> BarycenterProblem:
    if not isinstance(d, dict):
        raise InvalidInput("problem JSON must be an object")
    for key in ("t", "weights", "matrices"):
        if key not in d:
            raise InvalidInput(f'problem JSON is missing "{key}"')
    for key in ("t", "alpha", "beta"):  # alpha and beta may be absent or null
        value = d.get(key)
        if (key == "t" or value is not None) and not _is_number(value):
            raise InvalidInput(f'problem field "{key}" must be a number, got {value!r}')
    if not isinstance(d["weights"], list) or not all(_is_number(w) for w in d["weights"]):
        raise InvalidInput('problem field "weights" must be a list of numbers')
    if not isinstance(d["matrices"], list):
        raise InvalidInput('problem field "matrices" must be a list of matrices')
    matrices = [matrix_from_json(m) for m in d["matrices"]]
    return barycenter_problem(
        matrices,
        d["weights"],
        d["t"],
        alpha=d.get("alpha"),
        beta=d.get("beta"),
    )


def load_problem(path) -> BarycenterProblem:
    return problem_from_json(_load_json(path))


def problem_to_json(p: BarycenterProblem) -> dict:
    return {
        "t": p.t,
        "weights": [float(w) for w in p.weights],
        "matrices": [matrix_to_json(M) for M in p.matrices],
        "alpha": p.alpha,
        "beta": p.beta,
    }


def report_to_json(report: SolverReport) -> dict:
    """The report as JSON; it carries the iterates when the solve was traced."""
    out = {
        "minimizer": matrix_to_json(report.minimizer),
        "iterations": report.iterations,
        "grad_norms": list(report.grad_norms),
        "history_indices": list(report.history_indices),
        "alpha_star": report.alpha_star,
        "beta_star": report.beta_star,
        "q": report.q,
        "eta": report.eta,
        "termination": report.termination,
        "error_bound": report.error_bound,
        "fixed_point_residual": report.fixed_point_residual,
    }
    if report.iterates is not None:
        out["iterates"] = [matrix_to_json(M) for M in report.iterates]
    return out
