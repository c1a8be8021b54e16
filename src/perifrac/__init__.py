"""Periodic fractional two-solution solver.

Spectral discretization of [(-Lap + m^2)^s - gamma] u = lambda f(x, u) on a
torus, with certified constants (kappa, embedding sigmas, admissible-lambda
tables), an extension-problem cross-check battery, and a constrained-descent /
mountain-pass pipeline that returns two distinct solutions when the
certificate admits them.
"""

from .config import (AUTO, ConfigError, RunConfig, default_example_text,
                     load_config, parse_config, serialize_config)
from .constants import (EmbeddingEstimate, InadmissibleLambdaError,
                        ball_radius, best_lambda, certify, chi_upper,
                        golden_key, lambda_max, lambda_table, load_golden,
                        sigma_estimate)
from .extension import (QuadratureError, TraceIdentityReport,
                        WeightedQuadrature, conormal_limit, kappa, mode_energy,
                        ode_residual, profile_energy, theta,
                        verify_trace_identity)
from .solvers import (BoundaryActiveError, DegeneratePathError,
                      EndpointSearchError, MultiplicityReport,
                      NonConvergenceError, PathCollapseError, SolutionReport,
                      SolverConfig, SolverError, ball_minimize,
                      find_descent_endpoint, mountain_pass, solve_multiplicity)
from .spectral import (FourierField, ProblemSpec, SpectrumParams,
                       SymmetryError, apply_fractional_op, dual_norm, e_norm,
                       forward_transform, grid_coordinates, hs_distance,
                       hs_norm, inverse_transform, l2_norm, mean_value,
                       pairing)
from .variational import (CheckReport, Nonlinearity, check_ar, check_growth,
                          check_superhomogeneity, dealias_points, energy,
                          get_nonlinearity, gradient, integral_of_potential,
                          make_nonlinearity, nonlinear_image, registry_keys,
                          residual_dual_norm, validate_growth_exponent,
                          weak_residual)

__version__ = "0.1.0"

__all__ = [
    "AUTO", "ConfigError", "RunConfig", "default_example_text", "load_config",
    "parse_config", "serialize_config",
    "EmbeddingEstimate", "InadmissibleLambdaError", "ball_radius",
    "best_lambda", "certify", "chi_upper", "golden_key", "lambda_max",
    "lambda_table", "load_golden", "sigma_estimate",
    "QuadratureError", "TraceIdentityReport", "WeightedQuadrature",
    "conormal_limit", "kappa", "mode_energy", "ode_residual",
    "profile_energy", "theta", "verify_trace_identity",
    "BoundaryActiveError", "DegeneratePathError", "EndpointSearchError",
    "MultiplicityReport", "NonConvergenceError",
    "PathCollapseError", "SolutionReport", "SolverConfig", "SolverError",
    "ball_minimize", "find_descent_endpoint", "mountain_pass",
    "solve_multiplicity",
    "FourierField", "ProblemSpec", "SpectrumParams", "SymmetryError",
    "apply_fractional_op", "dual_norm", "e_norm",
    "forward_transform", "grid_coordinates", "hs_distance", "hs_norm",
    "inverse_transform", "l2_norm", "mean_value", "pairing",
    "CheckReport", "Nonlinearity", "check_ar", "check_growth",
    "check_superhomogeneity", "dealias_points", "energy",
    "get_nonlinearity", "gradient", "integral_of_potential",
    "make_nonlinearity", "nonlinear_image", "registry_keys",
    "residual_dual_norm", "validate_growth_exponent", "weak_residual",
    "__version__",
]
