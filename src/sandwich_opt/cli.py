"""Batch command-line interface.

Verbs: fidelity, divergence, gmean, grad, hess-bounds, constants, barycenter,
verify, gen. Results go to standard output or --out; diagnostics go to
standard error. Exit codes: 0 success / all properties hold, 1 property
violation or a barycenter solve that stopped short of its tolerance
(termination other than "gradient_tol"; the report is still written), 2
usage or input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

from . import __version__
from .barycenter import solve_fixed_point, solve_gradient_projection
from .calculus import (
    DENSE_MAX_N,
    convexity_constants,
    gradient_f,
    hessian_extreme_eigs,
    hessian_operator,
)
from .entropy import compute_divergence, geometric_mean
from .errors import InvalidInput, SandwichOptError
from .inequalities import SUITES, run_suite
from .linalg import _SEED_MAX, _check_integer, as_spd, check_box, derive_seed, random_spd
from .serialization import (
    canonical_json,
    format_float,
    load_matrix,
    load_problem,
    matrix_to_json,
    report_to_json,
    save_matrix,
)

DIVERGENCE_CLI_KINDS = {
    "sandwiched": "sandwiched",
    "renyi": "renyi_classic",
    "umegaki": "umegaki",
    "thompson": "thompson",
    "max": "max_relative",
    "bures": "bures",
    "riemannian": "riemannian",
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it.

    ``main`` parses every argv with this one parser; building it takes about
    as long as a small command, so it is not rebuilt per call. Each verb
    names its handler with ``set_defaults(run=...)``.
    """
    parser = argparse.ArgumentParser(
        prog="sandwich-opt",
        description="Sandwiched quasi-relative entropies, certified derivatives, "
        "entropic barycenters, and inequality verification suites.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # arguments shared by several verbs, each declared once
    out, order, scalar, pair, point = (argparse.ArgumentParser(add_help=False) for _ in range(5))
    out.add_argument("--out", help="write the result to this path instead of stdout")
    order.add_argument("--t", type=float, required=True)
    scalar.add_argument(
        "--format", choices=("text", "json", "csv"), default="text",
        help="scalar output format (default text, 17 significant digits)",
    )
    pair.add_argument("--a", required=True, help="matrix JSON file for A")
    pair.add_argument("--b", required=True, help="matrix JSON file for B")
    point.add_argument("--a", required=True, help="parameter matrix A")
    point.add_argument("--x", dest="b", required=True, help="base point X")

    def verb(name, run, about, *parents):
        sp = sub.add_parser(name, help=about, parents=parents)
        sp.set_defaults(run=run)
        return sp

    verb("fidelity", _cmd_divergence, "parameterized fidelity of two SPD matrices",
         pair, order, scalar, out).set_defaults(kind="fidelity")
    sp = verb("divergence", _cmd_divergence, "divergence/distance between SPD matrices",
              pair, scalar, out)
    sp.add_argument("--kind", required=True, choices=sorted(DIVERGENCE_CLI_KINDS))
    sp.add_argument("--t", type=float, help="order (required by sandwiched/renyi, rejected by the rest)")
    verb("gmean", lambda args: _emit_matrix(args, geometric_mean),
         "weighted geometric mean A #_t B", pair, order, out)
    verb("grad", lambda args: _emit_matrix(args, gradient_f),
         "gradient of the sandwiched trace functional", point, order, out)
    verb("hess-bounds", _cmd_hess_bounds,
         "extreme eigenvalues of -grad^2 f(X), read from a twin operator with the "
         f"same spectrum: dense for n <= {DENSE_MAX_N}, where it is measured faster, "
         "Lanczos beyond (NumericalError, exit 2, if unconverged)", point, order, out)

    sp = verb("constants", _cmd_constants, "certified convexity/smoothness constants", order, out)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--beta", type=float, required=True)

    sp = verb("barycenter", _cmd_barycenter, "solve an entropic barycenter problem", out)
    sp.add_argument("--problem", required=True, help="problem JSON file")
    sp.add_argument("--solver", choices=("gp", "fp"), default="gp")
    sp.add_argument("--eta", type=float, help="step size (gp only; default 1/beta_star)")
    sp.add_argument("--tol", type=float, help="gradient (gp) or residual (fp) tolerance")
    sp.add_argument("--max-iters", type=int, default=100_000)
    sp.add_argument("--x0", help="matrix JSON file with the starting iterate")
    sp.add_argument("--trace", action="store_true", help="include iterates in the report")

    sp = verb("verify", _cmd_verify, "run a verification suite", out)
    sp.add_argument("--suite", required=True, choices=SUITES)
    sp.add_argument("--n", type=int, default=4)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--t", help="order parameter or comma-separated grid")

    sp = verb("gen", _cmd_gen, "generate seeded SPD matrix JSON files")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--count", type=int, required=True)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--beta", type=float, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--out", required=True, help="output directory")

    return parser


def _emit(text, out):
    if out is None:
        sys.stdout.write(text + "\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _parse_t_grid(text):
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise InvalidInput(f"cannot parse order grid {text!r}") from exc


def _load_pair(args):
    return as_spd(load_matrix(args.a)), as_spd(load_matrix(args.b))


def _cmd_divergence(args):
    """divergence, and fidelity as the divergence kind "fidelity"."""
    dv = compute_divergence(DIVERGENCE_CLI_KINDS.get(args.kind, args.kind), *_load_pair(args), t=args.t)
    if args.format == "json":
        _emit(canonical_json({"kind": dv.kind, "t": dv.t, "value": dv.value}), args.out)
    elif args.format == "csv":
        ttxt = "" if dv.t is None else format_float(dv.t)
        _emit(f"kind,t,value\n{dv.kind},{ttxt},{format_float(dv.value)}", args.out)
    else:
        _emit(format_float(dv.value), args.out)
    return 0


def _emit_matrix(args, fn):
    _emit(canonical_json(matrix_to_json(fn(*_load_pair(args), args.t))), args.out)
    return 0


def _cmd_hess_bounds(args):
    lam_min, lam_max = hessian_extreme_eigs(hessian_operator(*_load_pair(args), args.t))
    _emit(canonical_json({"lambda_min": lam_min, "lambda_max": lam_max}), args.out)
    return 0


def _cmd_constants(args):
    c = convexity_constants(args.t, args.alpha, args.beta)
    _emit(canonical_json(dataclasses.asdict(c)), args.out)
    return 0


def _cmd_barycenter(args):
    problem = load_problem(args.problem)
    x0 = load_matrix(args.x0) if args.x0 else None
    if args.solver == "gp":
        report = solve_gradient_projection(
            problem, eta=args.eta, grad_tol=args.tol,
            max_iters=args.max_iters, x0=x0, trace=args.trace,
        )
    else:
        if args.eta is not None:
            raise InvalidInput("--eta applies to the gp solver only")
        report = solve_fixed_point(
            problem, tol=args.tol, max_iters=args.max_iters, x0=x0, trace=args.trace
        )
    _emit(canonical_json(report_to_json(report)), args.out)
    return 0 if report.termination == "gradient_tol" else 1


def _cmd_verify(args):
    t_values = _parse_t_grid(args.t) if args.t else None
    report = run_suite(args.suite, n=args.n, trials=args.trials, seed=args.seed,
                       t_values=t_values)
    _emit(canonical_json(report), args.out)
    return 0 if report["all_hold"] else 1


def _cmd_gen(args):
    _check_integer(args.count, "--count", 0)
    _check_integer(args.n, "--n", 1)
    _check_integer(args.seed, "--seed", 0, _SEED_MAX)
    check_box(args.alpha, args.beta)
    os.makedirs(args.out, exist_ok=True)
    for k in range(args.count):
        M = random_spd(args.n, args.alpha, args.beta, derive_seed(args.seed, "gen", k))
        save_matrix(os.path.join(args.out, f"spd_{k:04d}.json"), M)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (SandwichOptError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    raise SystemExit(main())
