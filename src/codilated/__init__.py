"""Semi-iterative accelerated Landweber methods built from co-dilated
orthogonal polynomials: polynomial machinery, test operators, solvers,
and reproducible experiments."""

from .operators import (
    Deriv2Problem,
    LinearOperator,
    NoisyProblem,
    NormEstimate,
    Problem,
    add_noise,
    deriv2_assemble,
    diagonal_operator,
    matrix_operator,
    operator_norm_sq,
)
from .orthopoly import (
    CoDilation,
    CriticalConstants,
    DivergentNormalization,
    NormalizationVanishes,
    RecurrenceScheme,
    ResidualKind,
    UltrasphericalParams,
    chebyshev_closed,
    chebyshev_u_scheme,
    critical_constants,
    eval_codilated_via_representation,
    eval_monic,
    limit_ratio,
    mu_closed,
    mu_recursive,
    numerator_quotient_at_one,
    numerator_scheme,
    power_basis_scheme,
    residual_eval,
    sup_bound_codilated,
    ultraspherical_beta,
    ultraspherical_scheme,
)
from .solvers import (
    IterationState,
    Method,
    RelaxationWarning,
    SolveReport,
    SolverConfig,
    StopReason,
    oracle_check,
    semi_iterative,
    solve,
)
from .zeros import ZeroReport, find_polynomial_zeros, find_zeros, modulus_of_convergence

__version__ = "0.1.0"
