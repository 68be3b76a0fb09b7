"""Chebyshev-Legendre tau solver for linear Fredholm fractional
integro-differential equations with Caputo derivatives on [0, 1].

The package splits into orthogonal-polynomial tables (`orthopoly`),
Gauss quadrature (`quadrature`), Caputo derivatives and their shifted
Legendre operational matrices (`fracderiv`), the Chebyshev-Legendre
transform pair (`cltransform`), the tau solver with its manufactured
solution tools and built-in problem catalog (`solver`), the expression
language used by problem configs (`exprlang`), and the command line
front end (`cli`).
"""

from .cltransform import (
    TransformPair,
    chebyshev_interpolate,
    chebyshev_to_legendre,
    legendre_to_chebyshev,
    transform_pair,
)
from .exprlang import (
    EvalError,
    Expression,
    ParseError,
    evaluate,
    free_variables,
    parse,
    to_source,
)
from .fracderiv import (
    CaputoOrder,
    OperationalMatrix,
    apply_operational,
    caputo_apply,
    caputo_power_rule,
    gamma,
    operational_matrix,
)
from .orthopoly import (
    ChebyshevSeries,
    LegendreSeries,
    MonomialSeries,
    eval_series,
    eval_shifted_chebyshev,
    eval_shifted_legendre,
    monomial_form_chebyshev,
    monomial_form_legendre,
    shifted_chebyshev_table,
    shifted_legendre_table,
)
from .quadrature import (
    QuadratureRule,
    chebyshev_gauss_rule,
    integrate,
    legendre_gauss_rule,
    project_legendre,
)
from .solver import (
    BuiltinExample,
    ConvergenceEntry,
    ConvergenceReport,
    DecayFit,
    FIDEProblem,
    KernelMoments,
    SolverError,
    SpectralSolution,
    assemble_system,
    builtin_example,
    builtin_example_ids,
    convergence_study,
    example_config,
    forcing_coeffs,
    initial_condition_residuals,
    kernel_moments,
    l2_error,
    max_error,
    mms_forcing,
    solve_fide,
    tau_residuals,
)

__version__ = "0.1.0"

__all__ = [
    "BuiltinExample",
    "CaputoOrder",
    "ChebyshevSeries",
    "ConvergenceEntry",
    "ConvergenceReport",
    "DecayFit",
    "EvalError",
    "Expression",
    "FIDEProblem",
    "KernelMoments",
    "LegendreSeries",
    "MonomialSeries",
    "OperationalMatrix",
    "ParseError",
    "QuadratureRule",
    "SolverError",
    "SpectralSolution",
    "TransformPair",
    "apply_operational",
    "assemble_system",
    "builtin_example",
    "builtin_example_ids",
    "caputo_apply",
    "caputo_power_rule",
    "chebyshev_gauss_rule",
    "chebyshev_interpolate",
    "chebyshev_to_legendre",
    "convergence_study",
    "eval_series",
    "eval_shifted_chebyshev",
    "eval_shifted_legendre",
    "evaluate",
    "example_config",
    "forcing_coeffs",
    "free_variables",
    "gamma",
    "initial_condition_residuals",
    "integrate",
    "kernel_moments",
    "l2_error",
    "legendre_gauss_rule",
    "legendre_to_chebyshev",
    "max_error",
    "mms_forcing",
    "monomial_form_chebyshev",
    "monomial_form_legendre",
    "operational_matrix",
    "parse",
    "project_legendre",
    "shifted_chebyshev_table",
    "shifted_legendre_table",
    "solve_fide",
    "tau_residuals",
    "to_source",
    "transform_pair",
    "__version__",
]
