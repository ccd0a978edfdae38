"""Sandwiched quasi-relative entropies on positive definite matrices.

Library surface: dense Hermitian/SPD primitives (``linalg``), divergence
functionals (``entropy``), exact derivatives with certified constants
(``calculus``), the entropic barycenter solvers (``barycenter``), and the
inequality verification suites (``inequalities``).
"""

__version__ = "0.1.0"

from .barycenter import (
    BarycenterProblem,
    SolverReport,
    barycenter_problem,
    certified_rate,
    fixed_point_map,
    objective,
    objective_gradient,
    solve_fixed_point,
    solve_gradient_projection,
)
from .calculus import (
    ConvexityConstants,
    HessianOperator,
    bregman,
    convexity_constants,
    fidelity_t_derivative,
    gradient_f,
    hessian_apply,
    hessian_extreme_eigs,
    hessian_operator,
    hessian_operator_matrix,
    sharper_lower_bound,
    third_derivative_bound,
)
from .entropy import (
    DivergenceValue,
    bures_distance,
    compute_divergence,
    fidelity,
    geometric_mean,
    max_relative_entropy,
    renyi_classic,
    riemannian_distance,
    sandwich_trace,
    sandwiched_divergence,
    thompson_metric,
    umegaki_relative_entropy,
)
from .errors import (
    DomainError,
    InvalidBox,
    InvalidInput,
    InvalidStart,
    InvalidStepSize,
    NumericalError,
    ParameterError,
    SandwichOptError,
)
from .inequalities import (
    ChainReport,
    ComparisonVerdict,
    MajorizationVerdict,
    divergence_limit_check,
    gamma_limit_check,
    gauge_convexity_check,
    log_majorization_chain,
    majorizes,
    open_question_search,
    run_suite,
    trace_chain_check,
    variational_minimizer,
    variational_value,
)
from .linalg import (
    EXP,
    LOG,
    ScalarFunction,
    SpectralDecomp,
    as_hermitian,
    as_spd,
    derive_seed,
    frechet_derivative,
    inner,
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
from .serialization import (
    canonical_json,
    load_matrix,
    load_problem,
    matrix_from_json,
    matrix_to_json,
    problem_from_json,
    problem_to_json,
    report_to_json,
    save_matrix,
)
